package main

import (
	"fmt"
)

// sizes fixes how much work a run does. Op counts, not durations, are fixed:
// a read here costs more the more often its range has been overwritten, so
// a fixed duration would hand faster code a worse state to measure.
type sizes struct {
	timedOps int   // measured requests of the timed run, at refSeconds
	modelOps int   // measured requests of the model run, at refSeconds
	warmOps  int   // unmeasured requests that end every set-up
	volBytes int64 // the workload's main volume (per stream for ingest)
	logBytes int64 // wire-small's append volume
	gcEvery  int   // ingest: RunGC after every gcEvery measured requests
	refWork  int   // the reference kernel does 1/refWork of its nominal work
}

// refSeconds is the run length the op counts were sized for on the host
// that produced the first baseline (see README.md); --seconds scales them.
const refSeconds = 10

func (sz sizes) scaled(seconds int) sizes {
	sz.timedOps = sz.timedOps * seconds / refSeconds
	sz.modelOps = sz.modelOps * seconds / refSeconds
	return sz
}

// workload generates one workload's requests.
type workload interface {
	// prepare creates and fills the volumes on a fresh rig.
	prepare(r *rig) error
	// next returns stream s's next request.
	next(s *stream) op
}

// spec names a workload and says how to build it.
type spec struct {
	name  string
	why   string
	wire  bool // served over loopback TCP
	full  sizes
	smoke sizes
	build func(sz sizes, seed uint64) workload
}

const (
	cblockBytes = 32 << 10 // the largest cblock: one 32 KiB write
	pageBytes   = 4 << 10
	cacheBlocks = 4096 // core.DefaultConfig().CBlockCacheEntries
)

var specs = []*spec{
	{
		name: "ingest",
		why:  "sequential unique 32 KiB database-class overwrites with periodic GC: only the write path, NVRAM commit, segment placement, erasure coding and GC work",
		full: sizes{timedOps: 15360, modelOps: 6144, warmOps: 1024, volBytes: 4 << 20, gcEvery: 3072, refWork: 1},
		smoke: sizes{
			timedOps: 640, modelOps: 320, warmOps: 64, volBytes: 512 << 10, gcEvery: 160, refWork: 8,
		},
		build: func(sz sizes, _ uint64) workload { return &ingest{slots: sz.volBytes / cblockBytes} },
	},
	{
		name: "readmiss",
		why:  "uniform 4 KiB reads over 16,384 cblocks, four times the cblock cache: pyramid lookup on clean keys, segment read with CRC check, SSD model, decompression",
		full: sizes{timedOps: 6500, modelOps: 2000, warmOps: 1024, volBytes: 4 * cacheBlocks * 2 * pageBytes, refWork: 1},
		smoke: sizes{
			timedOps: 1000, modelOps: 500, warmOps: 128, volBytes: 4 << 20, refWork: 8,
		},
		build: func(sz sizes, _ uint64) workload { return &readmiss{pages: uint64(sz.volBytes / pageBytes)} },
	},
	{
		name: "vdi-mixed",
		why:  "70/30 zipfian 32 KiB reads and template-pool writes over 16 clones of one golden image: dedup-hit writes, medium chains, overwritten keys, cache-resident hot set",
		full: sizes{timedOps: 22000, modelOps: 8000, warmOps: 2048, volBytes: 64 << 20, refWork: 1},
		smoke: sizes{
			timedOps: 800, modelOps: 400, warmOps: 64, volBytes: 2 << 20, refWork: 8,
		},
		build: func(sz sizes, seed uint64) workload {
			return &vdiMixed{slots: uint64(sz.volBytes / cblockBytes), seed: seed,
				zipf: newZipf(uint64(sz.volBytes/cblockBytes), 0.99)}
		},
	},
	{
		name: "wire-small",
		why:  "70/30 4 KiB cache-hit reads and unique appends through client, loopback TCP, server and controller on one pipelined connection: the front end's largest share of an op",
		wire: true,
		full: sizes{timedOps: 80000, modelOps: 16000, warmOps: 4096, volBytes: 8 << 20, logBytes: 256 << 20, refWork: 1},
		smoke: sizes{
			timedOps: 2000, modelOps: 600, warmOps: 256, volBytes: 1 << 20, logBytes: 8 << 20, refWork: 8,
		},
		build: func(sz sizes, _ uint64) workload {
			return &wireSmall{zipf: newZipf(uint64(sz.volBytes/pageBytes), 0.99),
				pages: uint64(sz.volBytes / pageBytes), logSlots: uint64(sz.logBytes / pageBytes / numStreams)}
		},
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// ingest: stream i overwrites its own volume front to back, again and again,
// with content that never repeats.
type ingest struct{ slots int64 }

func (w *ingest) prepare(r *rig) error {
	for i := 0; i < numStreams; i++ {
		if _, err := r.addVolume(fmt.Sprintf("ingest-%d", i), w.slots*cblockBytes, cblockBytes); err != nil {
			return err
		}
	}
	return nil
}

func (w *ingest) next(s *stream) op {
	o := op{kind: opWrite, vol: s.id, off: s.cursor % w.slots * cblockBytes, n: cblockBytes, id: s.uniqueID()}
	s.cursor++
	return o
}

// readmiss: every stream reads uniformly from one volume written once, in
// 8 KiB writes, so it holds four times more cblocks than the cache.
type readmiss struct{ pages uint64 }

func (w *readmiss) prepare(r *rig) error {
	vol, err := r.addVolume("readmiss", int64(w.pages)*pageBytes, 2*pageBytes)
	if err != nil {
		return err
	}
	return r.fillVolume(vol, func(slot int64) uint64 { return prefillID(vol, slot) })
}

func (w *readmiss) next(s *stream) op {
	return op{kind: opRead, vol: 0, off: int64(s.r.below(w.pages)) * pageBytes, n: pageBytes}
}

// vdiMixed: a golden image is snapshotted and cloned once per stream; each
// stream reads and overwrites its clone with a zipfian hot set, writing
// extents from the image's own template pool, as desktops booted from one
// image do.
type vdiMixed struct {
	slots uint64
	seed  uint64
	zipf  *zipf
}

const (
	poolExtents    = 256 // distinct template extents in the image pool
	vdiUniqueOneIn = 20  // one write in 20 is per-desktop data no one else has
	goldenUniqueIn = 32  // one golden extent in 32 is unique to the image
)

// isWrite makes a stream's read/write mix exactly 70/30 in every window of
// ten requests, so that every seed does the same amount of each.
func (s *stream) isWrite() bool {
	n := (s.ops + uint64(s.id)) % 10
	s.ops++
	return n == 2 || n == 5 || n == 8
}

// imagePool switches the rig to VDI-class content and renders the template
// extents every desktop image is mostly made of.
func (r *rig) imagePool() {
	r.data.noiseWords = vdiNoiseWords
	r.pool = make([][]byte, poolExtents)
	for i := range r.pool {
		r.pool[i] = make([]byte, cblockBytes)
		r.data.fill(r.pool[i], 0xE<<60|uint64(i), 0)
	}
}

func (w *vdiMixed) prepare(r *rig) error {
	r.imagePool()
	golden, err := r.addVolume("golden", int64(w.slots)*cblockBytes, cblockBytes)
	if err != nil {
		return err
	}
	err = r.fillVolume(golden, func(slot int64) uint64 {
		if (uint64(slot)+w.seed)%goldenUniqueIn == 0 {
			return prefillID(golden, slot)
		}
		return 1 + mix(w.seed, uint64(slot))%poolExtents
	})
	if err != nil {
		return err
	}
	at := r.streams[0].now
	snap, at, err := r.arr.Snapshot(at, r.vols[golden], "golden-snap")
	if err != nil {
		return err
	}
	for i := 0; i < numStreams; i++ {
		id, done, err := r.arr.Clone(at, snap, fmt.Sprintf("desktop-%d", i))
		if err != nil {
			return err
		}
		at = done
		r.track(id, int64(w.slots)*cblockBytes, cblockBytes, golden)
	}
	r.setNow(at)
	return nil
}

func (w *vdiMixed) next(s *stream) op {
	// Scatter the ranks so each desktop's hot extents are its own.
	slot := (w.zipf.rank(s.r.unit())*2654435761 + uint64(s.id)*977) % w.slots
	o := op{kind: opRead, vol: 1 + s.id, off: int64(slot) * cblockBytes, n: cblockBytes}
	if s.isWrite() {
		o.kind = opWrite
		o.id = 1 + s.r.below(poolExtents)
		if s.cursor++; s.cursor%vdiUniqueOneIn == 0 {
			o.id = s.uniqueID()
		}
	}
	return o
}

// wireSmall: small cache-resident reads of one volume and small appends to
// a log volume (each stream appends to its own region of it).
type wireSmall struct {
	zipf     *zipf
	pages    uint64
	logSlots uint64
}

func (w *wireSmall) prepare(r *rig) error {
	vol, err := r.addVolume("hot", int64(w.pages)*pageBytes, pageBytes)
	if err != nil {
		return err
	}
	if _, err := r.addVolume("log", int64(w.logSlots)*numStreams*pageBytes, pageBytes); err != nil {
		return err
	}
	return r.fillVolume(vol, func(slot int64) uint64 { return prefillID(vol, slot) })
}

func (w *wireSmall) next(s *stream) op {
	if !s.isWrite() {
		page := w.zipf.rank(s.r.unit()) * 2654435761 % w.pages
		return op{kind: opRead, vol: 0, off: int64(page) * pageBytes, n: pageBytes}
	}
	slot := uint64(s.id)*w.logSlots + uint64(s.cursor)%w.logSlots
	s.cursor++
	return op{kind: opWrite, vol: 1, off: int64(slot) * pageBytes, n: pageBytes, id: s.uniqueID()}
}
