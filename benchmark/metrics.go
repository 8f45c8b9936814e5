package main

import (
	"math"
	"slices"
	"sort"
)

// metricDef declares one metric: BENCHMARK.json lists the same names, units,
// directions and bounds (bench_test.go checks that the two agree).
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// Wall metrics come from the timed run, model metrics (sim_*, reduction,
// write amplification, recovery) from the model run. Where a workload's
// measured phase has no request of a kind, that kind's latency is taken from
// the phase that has them: set-up's prefill writes, or the read-back after
// recovery.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},            // format + prefill + clones + server start + warm-up, median of the run's set-ups
	{"ops_per_s", "1/s", "higher", 0.25},       // completed requests per wall second, 2 clients, GC time included
	{"read_p50_us", "us", "lower", 0.25},       // wall latency of a read as its caller sees it, median over the whole run
	{"write_mean_us", "us", "lower", 0.25},     // wall latency of a write as its caller sees it, mean over the whole run
	{"allocs_per_op", "count", "lower", 0.15},  // heap allocations per request over the timed run
	{"alloc_bytes_per_op", "B", "lower", 0.15}, // heap bytes allocated per request over the timed run
	{"sim_write_mean_us", "us", "lower", 0.20}, // device-model write acknowledgement latency, mean
	{"reduction_ratio", "x", "higher", 0.10},   // logical bytes written per physical byte stored
	{"flash_write_amp", "x", "lower", 0.05},    // bytes programmed to flash per user byte written
	{"recover_wall_ms", "ms", "lower", 0.25},   // wall time of recovering the array the model run crashed, median of nine recoveries
}

var perLayer = []metricDef{
	{name: "frontend.self_us_per_op", unit: "us", better: "lower"},              // client+wire+server: wall per request entering at client.Client minus at controller.Pair
	{name: "controller.self_us_per_op", unit: "us", better: "lower"},            // wall per request entering at controller.Pair minus at core.Array
	{name: "wire.frame_encode_ns", unit: "ns", better: "lower"},                 // WriteTaggedFrame of the workload's request payload
	{name: "wire.frame_decode_ns", unit: "ns", better: "lower"},                 // ReadTaggedFrame of the same frame
	{name: "wire.frame_allocs", unit: "count", better: "lower"},                 // heap allocations per frame written and read back
	{name: "server.admission_waits", unit: "count", better: "lower"},            // requests that blocked on a tenant window or the byte budget, timed run
	{name: "server.protocol_errors", unit: "count", better: "lower"},            // malformed, oversized, duplicate-tag and rejected frames; must be 0
	{name: "core.write_us_per_op", unit: "us", better: "lower"},                 // wall inside core.WriteAt, model run
	{name: "core.read_us_per_op", unit: "us", better: "lower"},                  // wall inside core.ReadAt, model run
	{name: "core.write_self_us_per_op", unit: "us", better: "lower"},            // core.WriteAt minus cblock.Pack and dedup.HashBlocks of its bytes: commit, placement, locks
	{name: "core.read_self_us_per_op", unit: "us", better: "lower"},             // core.ReadAt minus pyramid lookup and the cache misses' cblock.Unpack
	{name: "cblock.pack_ns_per_kib", unit: "ns/KiB", better: "lower"},           // cblock.Pack of the workload's write buffers
	{name: "dedup.hash_ns_per_kib", unit: "ns/KiB", better: "lower"},            // dedup.HashBlocks of the same buffers
	{name: "compress.ratio", unit: "x", better: "higher"},                       // bytes in per byte out of cblock.Pack on the same buffers
	{name: "cblock.unpack_ns_per_kib", unit: "ns/KiB", better: "lower"},         // cblock.Unpack per KiB produced
	{name: "core.lane_queue_waits", unit: "count", better: "lower"},             // commits that queued behind a lane's batch leader, timed run
	{name: "core.lane_records_per_batch", unit: "count", better: "higher"},      // NVRAM records per group commit, timed run
	{name: "core.lane_max_queue_depth", unit: "count", better: "lower"},         // committer queue high-water mark, timed run
	{name: "core.lane_seq_interleaves", unit: "count", better: "higher"},        // commits whose sequence numbers interleaved across lanes, timed run
	{name: "core.lane_rotations", unit: "count", better: "lower"},               // lane segment rotations, timed run
	{name: "nvram.appends_per_write", unit: "count", better: "lower"},           // NVRAM appends per user write, model run
	{name: "nvram.append_ns", unit: "ns", better: "lower"},                      // nvram.Device.Append of a packed write on a scratch device
	{name: "nvram.used_bytes_peak", unit: "B", better: "lower"},                 // highest NVRAM occupancy sampled in the model run
	{name: "erasure.encode_ns_per_kib", unit: "ns/KiB", better: "lower"},        // Coder.Encode of a 7+2 stripe of 128 KiB write units
	{name: "erasure.reconstruct_ns_per_kib", unit: "ns/KiB", better: "lower"},   // Coder.Reconstruct of the same stripe with two shards lost
	{name: "layout.segments", unit: "count", better: "lower"},                   // segments alive at the end of the model run
	{name: "layout.free_aus", unit: "count", better: "higher"},                  // allocation units free at the end of the model run
	{name: "core.gc_runs", unit: "count", better: "lower"},                      // RunGC calls, model run
	{name: "core.gc_wall_s", unit: "s", better: "lower"},                        // wall time inside RunGC, model run
	{name: "core.gc_bytes_moved", unit: "B", better: "lower"},                   // live bytes GC copied, model run
	{name: "core.gc_segments_reclaimed", unit: "count", better: "higher"},       // segments GC freed, model run
	{name: "core.gc_foreground_stall_ms", unit: "ms", better: "lower"},          // longest write that overlapped a RunGC, timed run
	{name: "core.checkpoints", unit: "count", better: "lower"},                  // checkpoints taken, model run
	{name: "core.frontier_writes", unit: "count", better: "lower"},              // frontier-set refills persisted, model run
	{name: "pyramid.flush_ms", unit: "ms", better: "lower"},                     // Pyramid.Flush of a standalone pyramid holding the workload's keys
	{name: "pagecodec.encode_ns_per_row", unit: "ns", better: "lower"},          // pagecodec.Encode of 256-row pages of the workload's address facts
	{name: "pagecodec.open_ns_per_page", unit: "ns", better: "lower"},           // pagecodec.Open of those pages
	{name: "pyramid.lookup_ns", unit: "ns", better: "lower"},                    // the address lookup of a read (ScanVersions) on the standalone pyramid
	{name: "pyramid.insert_ns", unit: "ns", better: "lower"},                    // Pyramid.Insert of one address fact
	{name: "pyramid.versions_per_lookup", unit: "count", better: "lower"},       // facts a lookup's ScanVersions visits
	{name: "medium.resolve_depth_mean", unit: "count", better: "lower"},         // medium-chain depth of every 16th read, model run
	{name: "medium.resolve_depth_max", unit: "count", better: "lower"},          // deepest chain among them
	{name: "core.cache_hit_ratio", unit: "x", better: "higher"},                 // cblock cache hits per lookup, model run
	{name: "core.dedup_hit_ratio", unit: "x", better: "higher"},                 // dedup hits per dedup lookup, model run
	{name: "core.inline_dup_blocks", unit: "count", better: "higher"},           // 512 B blocks deduplicated inline, model run
	{name: "layout.direct_shard_reads", unit: "count", better: "lower"},         // shard ranges read from their home drive, model run
	{name: "layout.reconstructed_reads", unit: "count", better: "lower"},        // shard ranges rebuilt from peers, model run
	{name: "layout.busy_avoided", unit: "count", better: "higher"},              // reconstructions chosen because the home drive was programming, model run
	{name: "layout.shard_bytes_read_per_user_byte", unit: "x", better: "lower"}, // bytes moved from drives per byte returned to readers, model run
	{name: "layout.crc_mismatches", unit: "count", better: "lower"},             // write units that failed their CRC; must be 0
	{name: "core.hedged_reads", unit: "count", better: "lower"},                 // reads that raced a reconstruction, model run
	{name: "core.sim_read_mean_us", unit: "us", better: "lower"},                // device-model read latency, 16 simulated initiators, mean
	{name: "core.sim_read_p999_us", unit: "us", better: "lower"},                // 99.9th percentile of the same (the paper's 1 ms limit)
	{name: "core.sim_write_p99_us", unit: "us", better: "lower"},                // 99th percentile of the device-model write acknowledgement latency
	{name: "ssd.host_bytes_written", unit: "B", better: "lower"},                // bytes the drives were asked to write, model run
	{name: "ssd.flash_bytes_written", unit: "B", better: "lower"},               // bytes the drives programmed, FTL relocation included
	{name: "ssd.host_bytes_read", unit: "B", better: "lower"},                   // bytes read from the drives, model run
	{name: "ssd.erases", unit: "count", better: "lower"},                        // erase-block erases, model run
	{name: "ssd.random_writes", unit: "count", better: "lower"},                 // writes that paid the FTL relocation penalty
	{name: "ssd.stalled_reads", unit: "count", better: "lower"},                 // reads that queued behind a program or erase
	{name: "ssd.max_wear", unit: "count", better: "lower"},                      // highest erase count of any block at the end of the model run
	{name: "core.recover_sim_ms", unit: "ms", better: "lower"},                  // device-model time of the same recovery (the paper's 30 s budget)
	{name: "core.recover_nvram_records", unit: "count", better: "lower"},        // NVRAM records recovery replayed
	{name: "core.recover_aus_scanned", unit: "count", better: "lower"},          // allocation units recovery scanned
	{name: "caller.read_p99_us", unit: "us", better: "lower"},                   // 99th percentile of the wall latency behind read_p50_us
	{name: "caller.write_p50_us", unit: "us", better: "lower"},                  // median of the wall latency behind write_mean_us
	{name: "caller.write_p99_us", unit: "us", better: "lower"},                  // 99th percentile of the same
	{name: "go.gc_cycles", unit: "count", better: "lower"},                      // Go collector cycles during the timed run
	{name: "go.gc_pause_total_ms", unit: "ms", better: "lower"},                 // Go collector stop-the-world time during the timed run
	{name: "go.heap_peak_mib", unit: "MiB", better: "lower"},                    // heap obtained from the OS by the end of the timed run
	{name: "host.slowdown", unit: "x", better: "lower"},                         // how much slower than nominal the reference kernel ran during the timed run (wall end-to-end metrics are divided by it)
	{name: "trace.spans_per_op", unit: "count", better: "lower"},                // spans recorded per request of the model run
	{name: "trace.overhead_pct", unit: "%", better: "lower"},                    // measured cost of a span times the spans recorded, as a share of the model run's wall time
}

// percentile returns the smallest value with at least p percent of the
// values at or below it. vals must be sorted.
func percentile(vals []int64, p float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(vals)))) - 1
	return vals[min(max(i, 0), len(vals)-1)]
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// pick returns one field of the samples of one kind, sorted.
func pick(samples []sample, kind opKind, field func(sample) int64) []int64 {
	var out []int64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, field(s))
		}
	}
	slices.Sort(out)
	return out
}

func mean(vals []int64) float64 {
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	return ratio(sum, float64(len(vals)))
}

func simOf(s sample) int64 { return int64(s.sim) }

// normalizedWall returns the wall latencies of one kind across all clients
// and slices, sorted, each divided by the host's slowdown during its slice.
func normalizedWall(clients []clientRun, kind opKind) []int64 {
	var out []int64
	for _, c := range clients {
		for k, slow := range c.slow {
			for _, s := range c.samples[c.bounds[k]:c.bounds[k+1]] {
				if s.kind == kind {
					out = append(out, int64(float64(s.wall)/slow))
				}
			}
		}
	}
	slices.Sort(out)
	return out
}

// oneSlice wraps the samples of a phase that was not run in slices (prefill,
// read-back) and the host's slowdown during it.
func oneSlice(samples []sample, slow float64) clientRun {
	return clientRun{samples: samples, bounds: []int{0, len(samples)}, slow: []float64{slow}}
}
