package main

import (
	"fmt"
	"net"
	"time"

	"purity/internal/client"
	"purity/internal/controller"
	"purity/internal/core"
	"purity/internal/server"
	"purity/internal/sim"
)

// target is the depth a request enters the system at. *core.Array is one;
// pairTarget and clientTarget adapt the two layers above it, so the same
// stream can be replayed at each depth.
type target interface {
	WriteAt(at sim.Time, vol core.VolumeID, off int64, data []byte) (sim.Time, error)
	ReadAt(at sim.Time, vol core.VolumeID, off int64, n int) ([]byte, sim.Time, error)
}

type pairTarget struct{ p *controller.Pair }

func (t pairTarget) WriteAt(at sim.Time, vol core.VolumeID, off int64, data []byte) (sim.Time, error) {
	return t.p.WriteAt(at, controller.Primary, vol, off, data)
}

func (t pairTarget) ReadAt(at sim.Time, vol core.VolumeID, off int64, n int) ([]byte, sim.Time, error) {
	return t.p.ReadAt(at, controller.Primary, vol, off, n)
}

// clientTarget goes over the wire; the server stamps requests from its own
// wall clock, so virtual time passes through unchanged.
type clientTarget struct{ c *client.Client }

func (t clientTarget) WriteAt(at sim.Time, vol core.VolumeID, off int64, data []byte) (sim.Time, error) {
	return at, t.c.WriteAt(uint64(vol), off, data)
}

func (t clientTarget) ReadAt(at sim.Time, vol core.VolumeID, off int64, n int) ([]byte, sim.Time, error) {
	data, err := t.c.ReadAt(uint64(vol), off, n)
	return data, at, err
}

// sample is one timed request.
type sample struct {
	kind  opKind
	start int64 // wall ns since the phase began
	wall  int64 // wall ns
	sim   sim.Time
}

// rig is one freshly formatted array with a workload's volumes on it, warmed
// up and ready to measure. Every rig of a (workload, seed) pair is in the
// same state: set-up runs on one goroutine in virtual-time order.
type rig struct {
	sp      *spec
	sz      sizes
	wl      workload
	arr     *core.Array
	vols    []core.VolumeID
	slot    []int64    // per volume: bytes per tracked extent
	parent  []int      // per volume: the volume it was cloned from, or -1
	latest  [][]uint64 // per volume, per extent: content id last written
	dirty   [][]bool   // per volume, per extent: written since the prefill
	data    content
	pool    [][]byte // VDI template extents; nil for other workloads
	streams []*stream
	prefill []sample // the set-up's writes, in order
	userW   int64    // user bytes written so far

	// Front end, wire workloads only.
	pair   *controller.Pair
	srv    *server.Server
	served chan error
	cl     *client.Client
}

// shippedConfig is what purity-server runs by default.
func shippedConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.CommitLanes = 4
	return cfg
}

// newRig performs one complete set-up: format, volumes, prefill, clones,
// server start and warm-up.
func newRig(sp *spec, sz sizes, seed uint64) (*rig, error) {
	r := &rig{sp: sp, sz: sz, streams: newStreams(seed, sp.name)}
	r.wl = sp.build(sz, seed)
	r.data = content{seed: seed, noiseWords: dbNoiseWords}
	if sp.wire {
		pair, err := controller.NewPair(controller.DefaultConfig(), shippedConfig())
		if err != nil {
			return nil, fmt.Errorf("format: %w", err)
		}
		r.pair, r.arr = pair, pair.Array()
	} else {
		arr, err := core.Format(shippedConfig())
		if err != nil {
			return nil, fmt.Errorf("format: %w", err)
		}
		r.arr = arr
	}
	if err := r.wl.prepare(r); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", sp.name, err)
	}
	if sp.wire {
		if err := r.serve(); err != nil {
			return nil, err
		}
	}
	// Warm-up: caches fill and the pyramids flush before anything is timed.
	res := modelRun(r, r.arr, phase{ops: sz.warmOps})
	if res.failed > 0 {
		r.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up ops failed: %v", sp.name, res.failed, sz.warmOps, res.firstErr)
	}
	return r, nil
}

func (r *rig) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	r.srv = server.New(r.pair, controller.Primary)
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	r.cl, err = client.DialPipelined(ln.Addr().String())
	if err != nil {
		r.close()
		return fmt.Errorf("dial: %w", err)
	}
	if !r.cl.Pipelined() {
		r.close()
		return fmt.Errorf("server refused the tagged protocol")
	}
	return nil
}

// close stops the front end, if any, and waits for it.
func (r *rig) close() {
	if r.cl != nil {
		//lint:ignore errdrop tearing down the loopback client; the run's results are already taken
		r.cl.Close()
		r.cl = nil
	}
	if r.srv != nil {
		//lint:ignore errdrop a slow drain only force-closes loopback connections we no longer use
		r.srv.Shutdown(5 * time.Second)
		<-r.served
		r.srv = nil
	}
}

// addVolume creates a volume tracked at extent granularity slotBytes.
func (r *rig) addVolume(name string, size, slotBytes int64) (int, error) {
	id, _, err := r.arr.CreateVolume(0, name, size)
	if err != nil {
		return 0, err
	}
	return r.track(id, size, slotBytes, -1), nil
}

// track starts tracking a volume's contents; a clone starts with its
// parent's.
func (r *rig) track(id core.VolumeID, size, slotBytes int64, parent int) int {
	latest := make([]uint64, size/slotBytes)
	if parent >= 0 {
		copy(latest, r.latest[parent])
	}
	r.vols = append(r.vols, id)
	r.parent = append(r.parent, parent)
	r.slot = append(r.slot, slotBytes)
	r.latest = append(r.latest, latest)
	r.dirty = append(r.dirty, make([]bool, len(latest)))
	return len(r.vols) - 1
}

// fillVolume writes the volume front to back, one extent per write.
func (r *rig) fillVolume(vol int, idOf func(slot int64) uint64) error {
	buf := make([]byte, r.slot[vol])
	at := r.streams[0].now
	for slot := range r.latest[vol] {
		id := idOf(int64(slot))
		r.render(buf, id, 0)
		t0 := time.Now()
		done, err := r.arr.WriteAt(at, r.vols[vol], int64(slot)*r.slot[vol], buf)
		wall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("prefill volume %d extent %d: %w", vol, slot, err)
		}
		r.prefill = append(r.prefill, sample{kind: opWrite, wall: wall.Nanoseconds(), sim: done - at})
		r.latest[vol][slot] = id
		r.userW += int64(len(buf))
		at = done
	}
	r.setNow(at)
	return nil
}

// render produces sectors of a content id.
func (r *rig) render(dst []byte, id uint64, firstSector int) {
	switch {
	case id == 0:
		clear(dst)
	case id <= uint64(len(r.pool)):
		copy(dst, r.pool[id-1][firstSector*sectorSize:])
	default:
		r.data.fill(dst, id, firstSector)
	}
}

// expect renders what a read of [off, off+len(dst)) must return now.
func (r *rig) expect(dst []byte, vol int, off int64) {
	sb := r.slot[vol]
	for len(dst) > 0 {
		n := min(int64(len(dst)), sb-off%sb)
		r.render(dst[:n], r.latest[vol][off/sb], int(off%sb)/sectorSize)
		dst, off = dst[n:], off+n
	}
}

// setNow moves every stream to virtual time at.
func (r *rig) setNow(at sim.Time) {
	for _, s := range r.streams {
		s.now = at
	}
}

// end is the latest virtual time any stream has reached.
func (r *rig) end() sim.Time {
	var t sim.Time
	for _, s := range r.streams {
		t = sim.Max(t, s.now)
	}
	return t
}

// readBackBytes is the size of one read-back request: the largest cblock.
// readBackCap bounds the requests per volume. modelRecoveries is how often
// the shelf the model run crashed is recovered.
const (
	readBackBytes   = 32 << 10
	readBackCap     = 256
	modelRecoveries = 9
)

// readBackWanted picks the chunks the read-back covers: every chunk holding
// an extent written since set-up began its warm-up, and one in eight of the
// chunks that hold only prefilled or inherited data.
func (r *rig) readBackWanted(vol int, off int64) bool {
	sb := r.slot[vol]
	written := false
	for s := off / sb; s*sb < off+readBackBytes; s++ {
		if r.dirty[vol][s] {
			return true
		}
		written = written || r.latest[vol][s] != 0
	}
	return written && (off/readBackBytes)%8 == 0
}

// recovery is what the crash→Open→verify step found.
type recovery struct {
	stats     core.RecoveryStats // of the first recovery
	wallMS    float64            // median wall time of the recoveries, over the host's slowdown
	reads     []sample
	readSlow  float64 // and during the read-back
	attempted int
	failed    int
	firstErr  error
}

// crashAndVerify drops the array without flushing it, as a controller losing
// power would, recovers a new one from the same shelf, recoveries times over,
// and reads back the latest version of every extent the run has written. Lost
// or wrong data are failed operations.
func (r *rig) crashAndVerify(ref *reference, recoveries int) recovery {
	r.close()
	sh, cfg, at := r.arr.Shelf(), r.arr.Config(), r.end()
	r.arr, r.pair = nil, nil
	var (
		rec   recovery
		arr   *core.Array
		walls []float64
	)
	// Recovery is an idempotent set union (§4.3): recovering the same
	// crashed shelf again does the same work, so it can be timed repeatedly.
	// The array of the last recovery serves the read-back.
	for i := 0; i < recoveries; i++ {
		var (
			rs  core.RecoveryStats
			err error
		)
		wall, slow := ref.timed(func() { arr, rs, err = core.OpenAt(cfg, sh, at, false) })
		if err != nil {
			rec.attempted, rec.failed, rec.firstErr = 1, 1, fmt.Errorf("recovery %d: %w", i+1, err)
			return rec
		}
		walls = append(walls, float64(wall.Nanoseconds())/1e6/slow)
		if i == 0 {
			rec.stats = rs
		}
		at += rs.TotalTime
	}
	rec.wallMS = median(walls)
	r.arr = arr
	r.setNow(at)

	// The 16 streams share the read-back and issue in virtual-time order, as
	// in the model run, so the recovered array is read under the same
	// concurrency as it is used.
	type chunk struct {
		vol int
		off int64
	}
	var todo [numStreams][]chunk
	n := 0
	for vol := range r.vols {
		var wanted []chunk
		size := int64(len(r.latest[vol])) * r.slot[vol]
		for off := int64(0); off < size; off += readBackBytes {
			if r.readBackWanted(vol, off) {
				wanted = append(wanted, chunk{vol, off})
			}
		}
		// A volume of small extents costs one lookup and one cblock read
		// per extent: past readBackCap requests, take every k-th.
		k := (len(wanted) + readBackCap - 1) / readBackCap
		for i := 0; i < len(wanted); i += k {
			todo[n%numStreams] = append(todo[n%numStreams], wanted[i])
			n++
		}
	}
	p := newPlayer(r, arr, nil, "")
	slow, runs, begin := ref.run(), 1, time.Now()
	for i := 0; i < n; i++ {
		if i%256 == 255 {
			slow, runs = slow+ref.run(), runs+1
		}
		var s *stream
		for _, c := range r.streams {
			if len(todo[c.id]) > 0 && (s == nil || c.now < s.now) {
				s = c
			}
		}
		c := todo[s.id][0]
		todo[s.id] = todo[s.id][1:]
		rec.attempted++
		smp, err := p.do(s, op{kind: opRead, vol: c.vol, off: c.off, n: readBackBytes}, i, begin)
		if err != nil {
			rec.failed++
			if rec.firstErr == nil {
				rec.firstErr = fmt.Errorf("after recovery: %w", err)
			}
			continue
		}
		rec.reads = append(rec.reads, smp)
	}
	rec.readSlow = (slow + ref.run()) / float64(runs+1)
	return rec
}
