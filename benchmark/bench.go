package main

import (
	"fmt"
	"time"

	"purity/internal/core"
)

// outcome is everything one workload's run produced.
type outcome struct {
	workload  string
	attempted int
	failed    int
	errs      []error
	values    map[string]float64 // every metric, end-to-end and per-layer
	counts    map[string]int     // how many samples stand behind a value
	spans     *tracer
}

func (out *outcome) set(name string, v float64, n int) {
	out.values[name] = v
	out.counts[name] = n
}

func (out *outcome) tally(attempted, failed int, err error) {
	out.attempted += attempted
	out.failed += failed
	if err != nil {
		out.errs = append(out.errs, err)
	}
}

// setups times every set-up of a run; setup_s is their median.
type setups struct {
	sp      *spec
	sz      sizes
	seed    uint64
	ref     *reference
	secs    []float64
	prefill []clientRun // every set-up's prefill writes
}

func (st *setups) rig() (r *rig, err error) {
	wall, slow := st.ref.timed(func() { r, err = newRig(st.sp, st.sz, st.seed) })
	st.secs = append(st.secs, wall.Seconds()/slow)
	if r != nil {
		st.prefill = append(st.prefill, oneSlice(r.prefill, slow))
	}
	return r, err
}

// runWorkload runs one workload: a timed run and a model run, each on its
// own freshly set-up array and each ended by a crash, a recovery and a
// read-back. With trace set, the model run records spans and the per-layer
// probes (tracing overhead, depth replay, shadow calls) run too.
func runWorkload(sp *spec, sz sizes, seed uint64, trace bool) (*outcome, error) {
	out := &outcome{workload: sp.name, values: map[string]float64{}, counts: map[string]int{}}
	ref, err := newReference(sz.refWork)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	st := &setups{sp: sp, sz: sz, seed: seed, ref: ref}

	// Timed run.
	r, err := st.rig()
	if err != nil {
		return nil, err
	}
	var tg target = r.arr
	if sp.wire {
		tg = clientTarget{r.cl}
	}
	lanes0 := r.arr.LaneTelemetry()
	run, err := timedRun(r, tg, sz.timedOps)
	if err != nil {
		r.close()
		return nil, err
	}
	out.tally(run.attempted, run.failed, run.firstErr)
	timedLayers(out, r, &run, lanes0)
	timedMetrics(out, &run)
	rec := r.crashAndVerify(ref, 1)
	out.tally(rec.attempted, rec.failed, rec.firstErr)

	// Model run.
	r, err = st.rig()
	if err != nil {
		return nil, err
	}
	ph := phase{ops: sz.modelOps, gcEvery: sz.gcEvery, measure: true, layer: "core"}
	if trace {
		ph.tr = newTracer(4 * sz.modelOps)
		out.spans = ph.tr
	}
	stats0 := r.arr.Stats()
	model := modelRun(r, r.arr, ph)
	out.tally(model.attempted, model.failed, model.firstErr)
	stats1 := r.arr.Stats()
	userW := r.userW
	setupWrites := r.prefill
	rec = r.crashAndVerify(ref, modelRecoveries)
	out.tally(rec.attempted, rec.failed, rec.firstErr)
	// Where the measured phase has no read, the read latency is that of the
	// read-back on this rig: its state does not depend on how two goroutines
	// happened to interleave.
	if run.count(opRead) == 0 {
		latencyMetrics(out, opRead, []clientRun{oneSlice(rec.reads, rec.readSlow)})
	}
	modelMetrics(out, &model, setupWrites, &rec, stats1, userW)
	modelLayers(out, &model, &rec, stats0, stats1)

	// A third set-up, so that setup_s is a median. The traced run's probes
	// continue its streams.
	r, err = st.rig()
	if err != nil {
		return nil, err
	}
	defer r.close()
	if trace {
		traceMetrics(out, &model)
		if err := layerProbes(out, st, r, &model); err != nil {
			return nil, err
		}
	}
	if ref.err != nil {
		return nil, fmt.Errorf("reference kernel: %w", ref.err)
	}
	// Where the measured phase has no write, the write latency is that of
	// every set-up's prefill.
	if run.count(opWrite) == 0 {
		latencyMetrics(out, opWrite, st.prefill)
	}
	out.set("setup_s", median(st.secs), len(st.secs))
	return out, nil
}

// timedMetrics derives the wall metrics.
func timedMetrics(out *outcome, timed *runResult) {
	// Each client's rate over the whole run, every slice's wall time first
	// divided by the host's slowdown during it.
	var rate float64
	ops := 0
	for _, c := range timed.clients {
		var secs float64
		for k, wall := range c.sliceWall {
			secs += float64(wall) / c.slow[k] / 1e9
		}
		rate += float64(len(c.samples)) / secs
		ops += len(c.samples)
	}
	out.set("ops_per_s", rate, ops)

	for _, kind := range []opKind{opRead, opWrite} {
		if timed.count(kind) > 0 {
			latencyMetrics(out, kind, timed.clients)
		}
	}

	n := float64(ops)
	out.set("allocs_per_op", float64(timed.mem1.Mallocs-timed.mem0.Mallocs)/n, ops)
	out.set("alloc_bytes_per_op", float64(timed.mem1.TotalAlloc-timed.mem0.TotalAlloc)/n, ops)
	out.set("go.gc_cycles", float64(timed.mem1.NumGC-timed.mem0.NumGC), ops)
	out.set("go.gc_pause_total_ms", float64(timed.mem1.PauseTotalNs-timed.mem0.PauseTotalNs)/1e6, ops)
	out.set("go.heap_peak_mib", float64(timed.mem1.HeapSys)/(1<<20), 1)

	var slow []float64
	for _, c := range timed.clients {
		slow = append(slow, c.slow...)
	}
	out.set("host.slowdown", median(slow), len(slow))
}

// latencyMetrics sets one kind's wall latency metrics, over every request of
// the kind in the run. Reads are summed up by their median. Writes are not:
// beside reads (vdi-mixed) their latency has two modes, about 0.2 ms and about
// 1.2 ms (a write takes the array mutex several times, ReadAt holds it end to
// end, and sync.Mutex lets the reader barge ahead of a waiter for up to 1 ms),
// and the median sits on the cliff between them: it moved by a quarter between
// runs of the same code. Their mean is end-to-end, their median per-layer.
func latencyMetrics(out *outcome, kind opKind, clients []clientRun) {
	wall := normalizedWall(clients, kind)
	n := len(wall)
	p50, p99 := float64(percentile(wall, 50))/1e3, float64(percentile(wall, 99))/1e3
	if kind == opRead {
		out.set("read_p50_us", p50, n)
		out.set("caller.read_p99_us", p99, n)
		return
	}
	out.set("write_mean_us", mean(wall)/1e3, n)
	out.set("caller.write_p50_us", p50, n)
	out.set("caller.write_p99_us", p99, n)
}

// timedLayers takes the per-layer numbers only two real clients produce:
// lane contention, front-end admission, and the stall GC imposes on writes.
func timedLayers(out *outcome, r *rig, timed *runResult, lanes0 core.LaneStats) {
	lanes := r.arr.LaneTelemetry()
	var waits, batches, records, interleaves, rotations int64
	for i, l := range lanes.Lanes {
		l0 := lanes0.Lanes[i]
		waits += l.QueueWaits - l0.QueueWaits
		batches += l.BatchesLed - l0.BatchesLed
		records += l.BatchRecords - l0.BatchRecords
		interleaves += l.SeqInterleaves - l0.SeqInterleaves
		rotations += l.Rotations - l0.Rotations
	}
	out.set("core.lane_queue_waits", float64(waits), 1)
	out.set("core.lane_records_per_batch", ratio(float64(records), float64(batches)), int(batches))
	out.set("core.lane_max_queue_depth", float64(lanes.MaxQueueDepth), 1)
	out.set("core.lane_seq_interleaves", float64(interleaves), 1)
	out.set("core.lane_rotations", float64(rotations), 1)

	var admission, protocol int64
	if r.srv != nil {
		fe := r.srv.Frontend()
		admission = fe.AdmissionWaits.Load()
		protocol = fe.MalformedFrames.Load() + fe.OversizedFrames.Load() + fe.DuplicateTags.Load() + fe.RejectedReads.Load()
		if protocol != 0 {
			out.tally(0, 0, fmt.Errorf("server counted %d protocol errors: %s", protocol, fe.Summary()))
		}
	}
	out.set("server.admission_waits", float64(admission), 1)
	out.set("server.protocol_errors", float64(protocol), 1)

	var stall int64
	for _, s := range timed.all() {
		for _, gc := range timed.gcs {
			if s.kind == opWrite && s.start < gc.end && s.start+s.wall > gc.start {
				stall = max(stall, s.wall)
			}
		}
	}
	out.set("core.gc_foreground_stall_ms", float64(stall)/1e6, len(timed.gcs))
}

// modelMetrics derives what the model run contributes end to end. All but
// the recovery's wall time repeat exactly for a seed.
func modelMetrics(out *outcome, model *runResult, prefill []sample, rec *recovery, st core.StatsSnapshot, userW int64) {
	reads := pick(model.all(), opRead, simOf)
	if len(reads) == 0 {
		reads = pick(rec.reads, opRead, simOf)
	}
	writes := pick(model.all(), opWrite, simOf)
	if len(writes) == 0 {
		writes = pick(prefill, opWrite, simOf)
	}
	out.set("core.sim_read_mean_us", mean(reads)/1e3, len(reads))
	out.set("core.sim_read_p999_us", float64(percentile(reads, 99.9))/1e3, len(reads))
	out.set("sim_write_mean_us", mean(writes)/1e3, len(writes))
	out.set("core.sim_write_p99_us", float64(percentile(writes, 99))/1e3, len(writes))
	out.set("reduction_ratio", st.ReductionRatio, 1)
	out.set("flash_write_amp", ratio(float64(st.FlashStats.FlashBytesWritten), float64(userW)), 1)
	out.set("recover_wall_ms", rec.wallMS, modelRecoveries)
}

// modelLayers takes the per-layer counts of the model run: public counter
// snapshots before and after it, and what the run itself sampled.
func modelLayers(out *outcome, model *runResult, rec *recovery, s0, s1 core.StatsSnapshot) {
	d := func(a, b int64) float64 { return float64(b - a) }
	writes := d(s0.Writes, s1.Writes)
	out.set("nvram.appends_per_write", ratio(d(s0.NVRAMAppends, s1.NVRAMAppends), writes), int(writes))
	out.set("nvram.used_bytes_peak", float64(model.nvramPeak), model.attempted/256)
	out.set("layout.segments", float64(s1.Segments), 1)
	out.set("layout.free_aus", float64(s1.FreeAUs), 1)

	var gcWall int64
	for _, gc := range model.gcs {
		gcWall += gc.end - gc.start
	}
	out.set("core.gc_runs", d(s0.GCRuns, s1.GCRuns), 1)
	out.set("core.gc_wall_s", float64(gcWall)/1e9, len(model.gcs))
	out.set("core.gc_bytes_moved", d(s0.GCBytesMoved, s1.GCBytesMoved), len(model.gcs))
	out.set("core.gc_segments_reclaimed", d(s0.GCSegsReclaimed, s1.GCSegsReclaimed), len(model.gcs))
	out.set("core.checkpoints", d(s0.Checkpoints, s1.Checkpoints), 1)
	out.set("core.frontier_writes", d(s0.FrontierWrites, s1.FrontierWrites), 1)

	out.set("medium.resolve_depth_mean", ratio(float64(model.depthSum), float64(model.depthN)), model.depthN)
	out.set("medium.resolve_depth_max", float64(model.depthMax), model.depthN)

	hits, misses := d(s0.CacheHits, s1.CacheHits), d(s0.CacheMisses, s1.CacheMisses)
	out.set("core.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	dh, dm := d(s0.DedupHits, s1.DedupHits), d(s0.DedupMisses, s1.DedupMisses)
	out.set("core.dedup_hit_ratio", ratio(dh, dh+dm), int(dh+dm))
	out.set("core.inline_dup_blocks", d(s0.InlineDupBlocks, s1.InlineDupBlocks), 1)

	out.set("layout.direct_shard_reads", d(s0.SegRead.DirectShardReads, s1.SegRead.DirectShardReads), 1)
	out.set("layout.reconstructed_reads", d(s0.SegRead.ReconstructedReads, s1.SegRead.ReconstructedReads), 1)
	out.set("layout.busy_avoided", d(s0.SegRead.BusyAvoided, s1.SegRead.BusyAvoided), 1)
	out.set("layout.shard_bytes_read_per_user_byte", ratio(d(s0.SegRead.ShardBytesRead, s1.SegRead.ShardBytesRead), float64(model.userR)), 1)
	crc := d(s0.SegRead.CRCMismatches, s1.SegRead.CRCMismatches)
	out.set("layout.crc_mismatches", crc, 1)
	if crc != 0 {
		out.tally(0, 0, fmt.Errorf("layout counted %v CRC mismatches", crc))
	}
	out.set("core.hedged_reads", d(s0.HedgedReads, s1.HedgedReads), 1)

	f0, f1 := s0.FlashStats, s1.FlashStats
	out.set("ssd.host_bytes_written", d(f0.HostBytesWritten, f1.HostBytesWritten), 1)
	out.set("ssd.flash_bytes_written", d(f0.FlashBytesWritten, f1.FlashBytesWritten), 1)
	out.set("ssd.host_bytes_read", d(f0.HostBytesRead, f1.HostBytesRead), 1)
	out.set("ssd.erases", d(f0.Erases, f1.Erases), 1)
	out.set("ssd.random_writes", d(f0.RandomWrites, f1.RandomWrites), 1)
	out.set("ssd.stalled_reads", d(f0.StalledReads, f1.StalledReads), 1)
	out.set("ssd.max_wear", float64(f1.MaxWear), 1)

	out.set("core.recover_sim_ms", rec.stats.TotalTime.Millis(), 1)
	out.set("core.recover_nvram_records", float64(rec.stats.NVRAMRecords), 1)
	out.set("core.recover_aus_scanned", float64(rec.stats.AUsScanned), 1)
}

// traceMetrics reports what tracing cost the model run. The cost of a span
// is measured on a scratch tracer, because the difference between a traced
// and an untraced run of the same requests is far below what two runs on
// this kind of host differ by anyway.
func traceMetrics(out *outcome, model *runResult) {
	spans := len(out.spans.spans)
	out.set("trace.spans_per_op", ratio(float64(spans), float64(model.attempted)), model.attempted)
	const probes = 1 << 16
	scratch := newTracer(probes)
	t0 := time.Now()
	for i := 0; i < probes; i++ {
		scratch.end(scratch.begin("probe", -1, i))
	}
	perSpan := float64(time.Since(t0).Nanoseconds()) / probes
	out.set("trace.overhead_pct", 100*perSpan*float64(spans)/float64(model.wall.Nanoseconds()), probes)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
