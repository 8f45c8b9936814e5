package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"purity/internal/core"
	"purity/internal/sim"
)

// numSlices is how many equal-op pieces a timed run is cut into; the wall
// times of a slice are divided by the host's slowdown during it.
const numSlices = 5

// player issues requests for one goroutine and checks what comes back.
type player struct {
	r     *rig
	tg    target
	tr    *tracer
	calls [2]string // span names of the read and the write call
	buf   []byte
	want  []byte
	userW int64 // bytes written and read by successful requests
	userR int64
}

func newPlayer(r *rig, tg target, tr *tracer, layer string) *player {
	return &player{r: r, tg: tg, tr: tr, calls: [2]string{opRead: layer + ".ReadAt", opWrite: layer + ".WriteAt"}, buf: make([]byte, cblockBytes), want: make([]byte, cblockBytes)}
}

// do plays one request of stream s at the stream's virtual time, outside of
// which it renders the content and verifies the result.
func (p *player) do(s *stream, o op, opID int, since time.Time) (sample, error) {
	r := p.r
	at := s.now
	root := p.tr.begin(opNames[o.kind], -1, opID)
	var (
		done sim.Time
		err  error
		t0   time.Time
		wall time.Duration
	)
	if o.kind == opWrite {
		buf := p.buf[:o.n]
		r.render(buf, o.id, 0)
		call := p.tr.begin(p.calls[o.kind], root, opID)
		t0 = time.Now()
		done, err = p.tg.WriteAt(at, r.vols[o.vol], o.off, buf)
		wall = time.Since(t0)
		p.tr.end(call)
		if err == nil {
			slot := o.off / r.slot[o.vol]
			r.latest[o.vol][slot], r.dirty[o.vol][slot] = o.id, true
			p.userW += int64(o.n)
		}
	} else {
		var got []byte
		call := p.tr.begin(p.calls[o.kind], root, opID)
		t0 = time.Now()
		got, done, err = p.tg.ReadAt(at, r.vols[o.vol], o.off, o.n)
		wall = time.Since(t0)
		p.tr.end(call)
		if err == nil {
			check := p.tr.begin("verify", root, opID)
			want := p.want[:o.n]
			r.expect(want, o.vol, o.off)
			if !bytes.Equal(got, want) {
				err = fmt.Errorf("read of volume %d offset %d: wrong data", o.vol, o.off)
			}
			p.tr.end(check)
			p.userR += int64(o.n)
		}
	}
	p.tr.end(root)
	if err != nil {
		s.now = at + sim.Millisecond
		return sample{}, err
	}
	s.now = done
	return sample{kind: o.kind, start: t0.Sub(since).Nanoseconds(), wall: wall.Nanoseconds(), sim: done - at}, nil
}

// gcEvent is one RunGC call.
type gcEvent struct {
	start, end int64 // wall ns since the phase began
	report     core.GCReport
}

// clientRun is what one client goroutine measured.
type clientRun struct {
	samples   []sample  // successful requests, in issue order
	bounds    []int     // where each slice starts in samples, then the end
	slow      []float64 // the host's slowdown during each slice
	sliceWall []int64   // timed runs: wall ns each slice took, its GC included
}

// runResult is what one measured phase produced.
type runResult struct {
	clients   []clientRun
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	gcs       []gcEvent
	userW     int64
	userR     int64

	depthSum, depthMax, depthN int
	nvramPeak                  int64

	mem0, mem1 runtime.MemStats
}

func (res *runResult) fail(err error) {
	res.failed++
	if res.firstErr == nil {
		res.firstErr = err
	}
}

func (res *runResult) runGC(arr *core.Array, at sim.Time, tr *tracer, since time.Time) {
	sp := tr.begin("core.RunGC", -1, -1)
	t0 := time.Now()
	rep, _, err := arr.RunGC(at)
	ev := gcEvent{start: t0.Sub(since).Nanoseconds(), end: time.Since(since).Nanoseconds(), report: rep}
	tr.end(sp)
	res.attempted++
	if err != nil {
		res.fail(fmt.Errorf("RunGC: %w", err))
		return
	}
	res.gcs = append(res.gcs, ev)
}

// count returns how many successful requests of a kind the phase made.
func (res *runResult) count(kind opKind) int {
	n := 0
	for _, s := range res.all() {
		if s.kind == kind {
			n++
		}
	}
	return n
}

// all returns every client's samples.
func (res *runResult) all() []sample {
	if len(res.clients) == 1 {
		return res.clients[0].samples
	}
	var out []sample
	for _, c := range res.clients {
		out = append(out, c.samples...)
	}
	return out
}

// phase describes one model-run phase.
type phase struct {
	ops     int
	gcEvery int     // RunGC after every gcEvery requests; 0 for never
	measure bool    // sample medium depth and NVRAM use (warm-up does not)
	tr      *tracer // nil: spans off
	layer   string  // names the call spans: the package tg enters at
}

// modelRun plays a phase from one goroutine: each of the 16 streams issues
// its next request at the virtual time its previous one completed, and the
// stream that is due first goes first. Nothing depends on the wall clock, so
// virtual-time results and every count repeat exactly.
func modelRun(r *rig, tg target, ph phase) runResult {
	res := runResult{attempted: ph.ops}
	samples := make([]sample, 0, ph.ops)
	p := newPlayer(r, tg, ph.tr, ph.layer)
	begin := time.Now()
	reads := 0
	for i := 0; i < ph.ops; i++ {
		s := r.streams[0]
		for _, c := range r.streams[1:] {
			if c.now < s.now {
				s = c
			}
		}
		o := r.wl.next(s)
		if ph.measure && o.kind == opRead {
			if reads%16 == 0 {
				depth, _, err := r.arr.ResolveDepth(s.now, r.vols[o.vol], o.off, o.n)
				if err == nil {
					res.depthSum, res.depthMax, res.depthN = res.depthSum+depth, max(res.depthMax, depth), res.depthN+1
				}
			}
			reads++
		}
		smp, err := p.do(s, o, i, begin)
		if err != nil {
			res.fail(err)
			continue
		}
		samples = append(samples, smp)
		if ph.measure && i%256 == 0 {
			res.nvramPeak = max(res.nvramPeak, r.arr.Stats().NVRAMUsed)
		}
		if ph.gcEvery > 0 && (i+1)%ph.gcEvery == 0 {
			res.runGC(r.arr, s.now, ph.tr, begin)
		}
	}
	res.wall = time.Since(begin)
	res.clients = []clientRun{{samples: samples}}
	res.userW, res.userR = p.userW, p.userR
	r.userW += p.userW
	return res
}

// timedClients is how many real client goroutines the timed run uses: the
// host this benchmark was sized on has two cores. refsPerSlice is how many
// pieces the runs of the reference kernel cut a slice into.
const (
	timedClients = 2
	refsPerSlice = 4
)

// timedRun plays ops requests on the wall clock: goroutine g plays streams
// g, g+2, … round-robin, each waiting for its reply before sending again, so
// two requests are in flight. The phase is cut into equal-op slices, each
// goroutine running the reference kernel around and in the middle of each. A GC
// workload's goroutine 0 calls RunGC each time the clients together have
// issued gcEvery requests, while the other goroutine keeps going.
func timedRun(r *rig, tg target, ops int) (runResult, error) {
	per := ops / timedClients / numSlices * numSlices
	res := runResult{attempted: per * timedClients, clients: make([]clientRun, timedClients)}
	parts := make([]runResult, timedClients) // failures, GCs and bytes, merged below
	refs := make([]*reference, timedClients)
	for g := range refs {
		ref, err := newReference(r.sz.refWork)
		if err != nil {
			return res, err
		}
		defer ref.close()
		refs[g] = ref
	}
	var wg sync.WaitGroup
	runtime.GC()
	runtime.ReadMemStats(&res.mem0)
	begin := time.Now()
	for g := 0; g < timedClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			part, c, ref := &parts[g], &res.clients[g], refs[g]
			c.samples = make([]sample, 0, per)
			c.bounds = make([]int, 0, numSlices+1)
			c.sliceWall = make([]int64, 0, numSlices)
			p := newPlayer(r, tg, nil, "")
			var mine []*stream
			for i := g; i < numStreams; i += timedClients {
				mine = append(mine, r.streams[i])
			}
			// The reference kernel runs at every slice boundary and
			// refsPerSlice-1 times in between, off the slice's clock.
			last := ref.run()
			for k := 0; k < numSlices; k++ {
				c.bounds = append(c.bounds, len(c.samples))
				lo, hi := k*per/numSlices, (k+1)*per/numSlices
				sum, runs, t0 := last, 1, time.Now()
				for i := lo; i < hi; i++ {
					s := mine[i%len(mine)]
					smp, err := p.do(s, r.wl.next(s), i, begin)
					if err != nil {
						part.fail(err)
						continue
					}
					c.samples = append(c.samples, smp)
					if gcEvery := r.sz.gcEvery / timedClients; g == 0 && gcEvery > 0 && (i+1)%gcEvery == 0 {
						part.runGC(r.arr, s.now, nil, begin)
					}
					if n := i + 1 - lo; n < hi-lo && n%max((hi-lo)/refsPerSlice, 1) == 0 {
						t1 := time.Now()
						sum, runs = sum+ref.run(), runs+1
						t0 = t0.Add(time.Since(t1))
					}
				}
				c.sliceWall = append(c.sliceWall, time.Since(t0).Nanoseconds())
				last = ref.run()
				c.slow = append(c.slow, (sum+last)/float64(runs+1))
			}
			c.bounds = append(c.bounds, len(c.samples))
			part.userW = p.userW
		}(g)
	}
	wg.Wait()
	res.wall = time.Since(begin)
	runtime.ReadMemStats(&res.mem1)
	for _, part := range parts {
		res.attempted += part.attempted
		res.failed += part.failed
		if res.firstErr == nil {
			res.firstErr = part.firstErr
		}
		res.gcs = append(res.gcs, part.gcs...)
		res.userW += part.userW
	}
	r.userW += res.userW
	for _, ref := range refs {
		if ref.err != nil {
			return res, fmt.Errorf("reference kernel: %w", ref.err)
		}
	}
	return res, nil
}
