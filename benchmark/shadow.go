package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"purity/internal/cblock"
	"purity/internal/core"
	"purity/internal/dedup"
	"purity/internal/elide"
	"purity/internal/erasure"
	"purity/internal/nvram"
	"purity/internal/pagecodec"
	"purity/internal/pyramid"
	"purity/internal/relation"
	"purity/internal/tuple"
	"purity/internal/wire"
)

// The layers below core cannot be spanned from outside, so the traced run
// times their public stage functions on the workload's own buffers and keys,
// outside every request ("shadow calls"), and for the layers above core it
// replays the model run entering one layer higher each time ("depth
// replay"): a layer's self time is the difference of the totals.

// shadowOps is how many of the workload's next requests feed the shadow
// calls, at most (and at most twice the timed run's); shadowBufs of their
// write payloads are kept, and shadowLookups of their reads looked up.
const (
	shadowOps     = 20000
	shadowBufs    = 128
	shadowLookups = 2048
)

// layerProbes runs the depth replay and the shadow calls. r is a set-up rig
// whose streams continue the workload.
func layerProbes(out *outcome, st *setups, r *rig, model *runResult) error {
	if err := depthReplay(out, st, model); err != nil {
		return err
	}

	// The workload's next requests: write payloads, and address keys.
	var bufs [][]byte
	var writes, reads []op
	for i := 0; i < min(shadowOps, 2*st.sz.timedOps); i++ {
		o := r.wl.next(r.streams[i%numStreams])
		if o.kind == opRead {
			reads = append(reads, o)
			continue
		}
		writes = append(writes, o)
		if len(bufs) < shadowBufs {
			buf := make([]byte, o.n)
			r.render(buf, o.id, 0)
			bufs = append(bufs, buf)
		}
	}
	// A read-only workload's writes are its prefill; a write-only
	// workload's lookups are of the keys it wrote. A clone's inherited
	// extents are its parent's keys, not its own.
	var prefilled []op
	for vol, latest := range r.latest {
		for slot, id := range latest {
			if id != 0 && !r.dirty[vol][slot] && r.parent[vol] < 0 && len(prefilled) < shadowOps {
				prefilled = append(prefilled, op{kind: opWrite, vol: vol, off: int64(slot) * r.slot[vol], n: int(r.slot[vol]), id: id})
			}
		}
	}
	for _, o := range prefilled {
		if len(bufs) >= shadowBufs || len(writes) > 0 {
			break
		}
		buf := make([]byte, o.n)
		r.render(buf, o.id, 0)
		bufs = append(bufs, buf)
	}
	if len(reads) == 0 {
		reads = writes
	}

	frames, err := shadowReduce(out, bufs)
	if err != nil {
		return err
	}
	if err := shadowErasure(out, frames); err != nil {
		return err
	}
	if err := shadowNVRAM(out, frames); err != nil {
		return err
	}
	if err := shadowWire(out, bufs, reads); err != nil {
		return err
	}
	if err := shadowPyramid(out, append(prefilled, writes...), reads, r.parent); err != nil {
		return err
	}
	selfTimes(out, model, bufs)
	return nil
}

// depthReplay plays the model run's requests again entering at
// controller.Pair and at client.Client, each on its own fresh rig.
func depthReplay(out *outcome, st *setups, model *runResult) error {
	out.set("frontend.self_us_per_op", 0, 0)
	out.set("controller.self_us_per_op", 0, 0)
	if !st.sp.wire {
		return nil
	}
	ph := phase{ops: st.sz.modelOps, measure: true}
	perOp := func(enter func(r *rig) target, layer string) (float64, error) {
		r, err := st.rig()
		if err != nil {
			return 0, err
		}
		defer r.close()
		ph.layer, ph.tr = layer, newTracer(4*ph.ops)
		res := modelRun(r, enter(r), ph)
		out.tally(res.attempted, res.failed, res.firstErr)
		return float64(res.wall.Nanoseconds()) / 1e3 / float64(ph.ops), nil
	}
	atPair, err := perOp(func(r *rig) target { return pairTarget{r.pair} }, "controller")
	if err != nil {
		return err
	}
	atClient, err := perOp(func(r *rig) target { return clientTarget{r.cl} }, "client")
	if err != nil {
		return err
	}
	atCore := float64(model.wall.Nanoseconds()) / 1e3 / float64(model.attempted)
	out.set("frontend.self_us_per_op", atClient-atPair, ph.ops)
	out.set("controller.self_us_per_op", atPair-atCore, ph.ops)
	return nil
}

// perKiB converts a total to nanoseconds per KiB.
func perKiB(d time.Duration, bytes int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(bytes)/1024)
}

// shadowReduce times the data-reduction stages of a write, and the
// decompression of a read, on the workload's write payloads.
func shadowReduce(out *outcome, bufs [][]byte) ([][]byte, error) {
	var in, packed int
	frames := make([][]byte, len(bufs))
	t0 := time.Now()
	for i, b := range bufs {
		f, err := cblock.Pack(b, true)
		if err != nil {
			return nil, fmt.Errorf("shadow cblock.Pack: %w", err)
		}
		frames[i] = f
		in, packed = in+len(b), packed+len(f)
	}
	out.set("cblock.pack_ns_per_kib", perKiB(time.Since(t0), in), len(bufs))
	out.set("compress.ratio", ratio(float64(in), float64(packed)), len(bufs))

	var hashes int
	t0 = time.Now()
	for _, b := range bufs {
		hashes += len(dedup.HashBlocks(b))
	}
	out.set("dedup.hash_ns_per_kib", perKiB(time.Since(t0), in), hashes)

	t0 = time.Now()
	for i, f := range frames {
		data, err := cblock.Unpack(f)
		if err != nil {
			return nil, fmt.Errorf("shadow cblock.Unpack: %w", err)
		}
		if !bytes.Equal(data, bufs[i]) {
			return nil, fmt.Errorf("shadow cblock.Unpack: payload %d does not round-trip", i)
		}
	}
	out.set("cblock.unpack_ns_per_kib", perKiB(time.Since(t0), in), len(frames))
	return frames, nil
}

// shadowErasure encodes and reconstructs stripes of the shipped geometry
// filled with the workload's packed cblocks.
func shadowErasure(out *outcome, frames [][]byte) error {
	lay := core.DefaultConfig().Layout
	coder, err := erasure.New(lay.DataShards, lay.ParityShards)
	if err != nil {
		return fmt.Errorf("shadow erasure: %w", err)
	}
	shards := make([][]byte, coder.TotalShards())
	for i := range shards {
		shards[i] = make([]byte, lay.WriteUnit)
	}
	next := 0
	for _, sh := range shards[:lay.DataShards] {
		for pos := 0; pos < len(sh) && len(frames) > 0; next++ {
			pos += copy(sh[pos:], frames[next%len(frames)])
		}
	}
	const rounds = 16
	stripeBytes := rounds * lay.DataShards * lay.WriteUnit
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		if err := coder.Encode(shards); err != nil {
			return fmt.Errorf("shadow erasure encode: %w", err)
		}
	}
	out.set("erasure.encode_ns_per_kib", perKiB(time.Since(t0), stripeBytes), rounds)

	want := bytes.Clone(shards[0])
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		shards[0], shards[lay.DataShards] = nil, nil
		if err := coder.Reconstruct(shards); err != nil {
			return fmt.Errorf("shadow erasure reconstruct: %w", err)
		}
	}
	out.set("erasure.reconstruct_ns_per_kib", perKiB(time.Since(t0), stripeBytes), rounds)
	if !bytes.Equal(shards[0], want) {
		return fmt.Errorf("shadow erasure: reconstructed shard differs")
	}
	return nil
}

// shadowNVRAM appends the workload's packed writes to a scratch device.
func shadowNVRAM(out *outcome, frames [][]byte) error {
	dev, err := nvram.New(nvram.DefaultConfig())
	if err != nil {
		return fmt.Errorf("shadow nvram: %w", err)
	}
	const rounds = 8
	var total time.Duration
	n := 0
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		for _, f := range frames {
			//lint:ignore crashpointcheck a scratch device nothing recovers from: the call is timed, not relied on
			if _, _, err := dev.Append(0, f); err != nil {
				return fmt.Errorf("shadow nvram append: %w", err)
			}
		}
		total += time.Since(t0)
		n += len(frames)
		if err := dev.Release(dev.Head()); err != nil {
			return fmt.Errorf("shadow nvram release: %w", err)
		}
	}
	out.set("nvram.append_ns", ratio(float64(total.Nanoseconds()), float64(n)), n)
	return nil
}

// shadowWire frames the workload's requests as the client would and parses
// them back as the server would, through a buffer in place of the socket.
func shadowWire(out *outcome, bufs [][]byte, reads []op) error {
	var payloads [][]byte
	for i, b := range bufs {
		payloads = append(payloads, (&wire.Enc{}).U64(1).U64(uint64(i)*uint64(len(b))).Bytes(b).B)
	}
	for _, o := range reads[:min(len(reads), shadowBufs)] {
		payloads = append(payloads, (&wire.Enc{}).U64(1).U64(uint64(o.off)).U32(uint32(o.n)).B)
	}
	const rounds = 64
	var buf bytes.Buffer
	var encode, decode time.Duration
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < rounds; i++ {
		buf.Reset()
		t0 := time.Now()
		for tag, p := range payloads {
			if err := wire.WriteTaggedFrame(&buf, wire.OpWrite, uint32(tag), p); err != nil {
				return fmt.Errorf("shadow wire encode: %w", err)
			}
		}
		t1 := time.Now()
		for range payloads {
			if _, _, _, err := wire.ReadTaggedFrame(&buf); err != nil {
				return fmt.Errorf("shadow wire decode: %w", err)
			}
		}
		encode, decode = encode+t1.Sub(t0), decode+time.Since(t1)
	}
	runtime.ReadMemStats(&m1)
	n := float64(rounds * len(payloads))
	out.set("wire.frame_encode_ns", ratio(float64(encode.Nanoseconds()), n), int(n))
	out.set("wire.frame_decode_ns", ratio(float64(decode.Nanoseconds()), n), int(n))
	out.set("wire.frame_allocs", ratio(float64(m1.Mallocs-m0.Mallocs), n), int(n))
	return nil
}

// shadowPyramid feeds a standalone address-map pyramid the workload's write
// keys, flushing and merging as the engine's background step does, then
// looks up its read keys the way core's address resolution does: in the
// volume's own keys first and, if it is a clone and has none there, in its
// parent's.
func shadowPyramid(out *outcome, writes, reads []op, parent []int) error {
	cfg := core.DefaultConfig()
	pyr, err := pyramid.New(pyramid.Config{ID: relation.IDAddrs, Name: "shadow", Schema: relation.AddrsSchema},
		pyramid.NewMemStore(), elide.NewTable())
	if err != nil {
		return fmt.Errorf("shadow pyramid: %w", err)
	}
	seqs := tuple.NewSeqSource(0)
	facts := make([]tuple.Fact, len(writes))
	for i, o := range writes {
		row := relation.AddrRow{Medium: uint64(o.vol), Sector: uint64(o.off) / sectorSize, Segment: 1,
			SegOff: uint64(i) * cblockBytes, PhysLen: uint64(o.n), Sectors: uint64(o.n) / sectorSize}
		facts[i] = row.Fact(seqs.Next())
	}
	var insert, flush time.Duration
	flushes := 0
	for i := range facts {
		t0 := time.Now()
		if err := pyr.Insert(facts[i : i+1]); err != nil {
			return fmt.Errorf("shadow pyramid insert: %w", err)
		}
		insert += time.Since(t0)
		if pyr.MemRows() < cfg.MemtableFlushRows {
			continue
		}
		t0 = time.Now()
		if _, err := pyr.Flush(0, facts[i].Seq); err != nil {
			return fmt.Errorf("shadow pyramid flush: %w", err)
		}
		flush += time.Since(t0)
		flushes++
		if _, err := pyr.Maintain(0, cfg.MaxPatches); err != nil {
			return fmt.Errorf("shadow pyramid maintain: %w", err)
		}
	}
	out.set("pyramid.insert_ns", ratio(float64(insert.Nanoseconds()), float64(len(facts))), len(facts))
	out.set("pyramid.flush_ms", ratio(float64(flush.Nanoseconds())/1e6, float64(flushes)), flushes)

	visited := 0
	reads = reads[:min(len(reads), shadowLookups)]
	t0 := time.Now()
	for _, o := range reads {
		sector := uint64(o.off) / sectorSize
		lo := sector - min(sector, cblockBytes/sectorSize-1)
		for vol, found := o.vol, false; vol >= 0 && !found; vol = parent[vol] {
			_, err := pyr.ScanVersions(0, []uint64{uint64(vol), lo}, []uint64{uint64(vol), sector},
				func(tuple.Fact) bool { visited++; found = true; return true })
			if err != nil {
				return fmt.Errorf("shadow pyramid lookup: %w", err)
			}
		}
	}
	out.set("pyramid.lookup_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(reads))), len(reads))
	out.set("pyramid.versions_per_lookup", ratio(float64(visited), float64(len(reads))), len(reads))

	// The page codec, on pages of the same facts in key order.
	const pageRows = 256
	sorted := append([]tuple.Fact(nil), facts...)
	sort.SliceStable(sorted, func(i, j int) bool { return tuple.Less(sorted[i], sorted[j], relation.AddrsSchema.KeyCols) })
	var pages [][]byte
	t0 = time.Now()
	for lo := 0; lo+pageRows <= len(sorted); lo += pageRows {
		page, err := pagecodec.Encode(relation.AddrsSchema, sorted[lo:lo+pageRows])
		if err != nil {
			return fmt.Errorf("shadow pagecodec encode: %w", err)
		}
		pages = append(pages, page)
	}
	out.set("pagecodec.encode_ns_per_row", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(pages)*pageRows)), len(pages)*pageRows)
	t0 = time.Now()
	for _, page := range pages {
		if _, err := pagecodec.Open(relation.AddrsSchema, page); err != nil {
			return fmt.Errorf("shadow pagecodec open: %w", err)
		}
	}
	out.set("pagecodec.open_ns_per_page", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(pages))), len(pages))
	return nil
}

// selfTimes subtracts the shadow-call costs from core's spans: what is left
// of a write is commit, placement and locks; of a read, everything but the
// address lookup and the decompression of the cblocks that missed the cache.
func selfTimes(out *outcome, model *runResult, bufs [][]byte) {
	call := func(name string) (us float64, n int) {
		ns, n := out.spans.total(name)
		return ratio(float64(ns)/1e3, float64(n)), n
	}
	writeUS, nw := call("core.WriteAt")
	readUS, nr := call("core.ReadAt")
	out.set("core.write_us_per_op", writeUS, nw)
	out.set("core.read_us_per_op", readUS, nr)

	var writeSelf, readSelf float64
	if nw > 0 {
		kib := float64(model.userW) / float64(nw) / 1024
		writeSelf = writeUS - kib*(out.values["cblock.pack_ns_per_kib"]+out.values["dedup.hash_ns_per_kib"])/1e3
	}
	if nr > 0 && len(bufs) > 0 {
		missKiB := (1 - out.values["core.cache_hit_ratio"]) * float64(len(bufs[0])) / 1024
		readSelf = readUS - (out.values["pyramid.lookup_ns"]+missKiB*out.values["cblock.unpack_ns_per_kib"])/1e3
	}
	out.set("core.write_self_us_per_op", writeSelf, nw)
	out.set("core.read_self_us_per_op", readSelf, nr)
}
