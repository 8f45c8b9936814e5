#!/bin/sh
# check.sh — the repo's one-command gate. Runs what CI would: formatting,
# vet, the repo's own invariant checker (purity-lint), build, the full test
# suite (root module and the nested benchmark/ module), the ledger gate
# (one benchmark run against the newest committed BENCH_<PR>.json: model
# clock exact, wall clock printed), the crash sweep, a short race pass
# over the packages that do real concurrency
# (the concurrent write path, its core entry points and reads beside
# writers, GC and seals, the stats document taken beside lane writers,
# the duplicate search beside other lanes' writes and flushes,
# the wire connection's deadline contract, the TCP server's
# per-connection goroutines, the allocator/shelf locking,
# layout's Reader, its pooled scratch and its seeded fault property test
# (TestReadRangeUnderFaults), and the three packages whose types promise
# concurrent use: pyramid, iosched, erasure),
# and a smoke run of every program under examples/.
#
# Usage: scripts/check.sh            from the repo root
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== purity-lint (repo invariants)"
# The full pass — every rule purity-lint -list prints, including the
# interprocedural summary layer — must stay interactive: LINT_BUDGET
# seconds wall-clock, asserted below so a regression in the summary
# fixpoint fails loudly instead of slowly.
# LINT_FINDINGS, when set, receives the machine-readable findings (-json)
# for CI to archive as a build artifact; LINT_GRAPHS, when set, names a
# directory that receives the inferred lock-order and call graphs as DOT,
# archived next to the findings (DESIGN.md's lock hierarchy is this
# output).
LINT_BUDGET="${LINT_BUDGET:-60}"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/purity-lint" ./cmd/purity-lint
echo "rules: $("$tmpdir/purity-lint" -list | awk '{print $1}' | tr '\n' ' ')"
lint_start=$(date +%s)
if [ -n "${LINT_FINDINGS:-}" ]; then
	lint_status=0
	"$tmpdir/purity-lint" -json ./... > "$LINT_FINDINGS" || lint_status=$?
	if [ "$lint_status" -ne 0 ]; then
		# Mirror the findings to stderr so the failure is readable in the log.
		cat "$LINT_FINDINGS" >&2
		exit "$lint_status"
	fi
else
	"$tmpdir/purity-lint" ./...
fi
if [ -n "${LINT_GRAPHS:-}" ]; then
	mkdir -p "$LINT_GRAPHS"
	"$tmpdir/purity-lint" -graph lock ./... > "$LINT_GRAPHS/lockorder.dot"
	"$tmpdir/purity-lint" -graph calls ./... > "$LINT_GRAPHS/callgraph.dot"
fi
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "purity-lint: clean in ${lint_elapsed}s (budget ${LINT_BUDGET}s)"
if [ "$lint_elapsed" -gt "$LINT_BUDGET" ]; then
	echo "purity-lint: wall clock ${lint_elapsed}s exceeds the ${LINT_BUDGET}s budget" >&2
	exit 1
fi

echo "== no debug prints under internal/ (fmt.Print, fmt.Printf, fmt.Println, print, println outside tests)"
# Engine code reports through its stats counters and structured errors;
# output a caller asked for goes through an io.Writer (fmt.Fprintf).
debug_print='(fmt[.]Print(f|ln)?|(^|[^.[:alnum:]_])print(ln)?)[(]'
debug_prints() {
	find "$1" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec grep -nHE "$debug_print" {} + || true
}
# The grep checks itself first: a file holding both forms must match twice.
printf 'package p\n\nfunc f() {\n\tfmt.Println("x")\n\tprintln("x")\n}\n' > "$tmpdir/debug.go"
if [ "$(debug_prints "$tmpdir" | wc -l)" -ne 2 ]; then
	echo "debug prints: self-check failed: fmt.Println( and println( in $tmpdir/debug.go were not both found" >&2
	exit 1
fi
found=$(debug_prints internal)
if [ -n "$found" ]; then
	echo "$found" >&2
	echo "debug prints: internal/ code prints to stdout; count it in a stats counter (the stats document shows it) or write to an io.Writer" >&2
	exit 1
fi

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test (benchmark/ — a nested module the root ./... does not reach)"
(cd benchmark && go test ./...)

echo "== ledger gate (benchmark/run.sh -workload all -seed 1 against the newest BENCH_<PR>.json: model clock exact, wall clock printed)"
# The benchmark runs every workload twice: on the wall clock, and on the
# device model's virtual clock, which repeats exactly. The gate holds the
# second kind to the committed ledger digit for digit — a change that moves
# a model number must say so by committing a new BENCH_<PR>.json — and only
# prints the first: the same commit measured in two sessions on a shared
# host differs by up to 20 % in ops_per_s, so wall-clock metrics are judged
# on paired, interleaved runs (benchmark/README.md), not here. The exact set
# is what two runs of unchanged code never differ in: the three model
# end-to-end metrics and every per-layer number the model run produces.
model_metrics='^(sim_write_mean_us|reduction_ratio|flash_write_amp|ssd[.]|layout[.]|medium[.]|core[.](sim_|recover_|gc_runs|gc_bytes_moved|gc_segments_reclaimed|checkpoints|frontier_writes|hedged_reads|cache_hit_ratio|dedup_hit_ratio|inline_dup_blocks)|nvram[.](appends_per_write|used_bytes_peak)|pyramid[.]versions_per_lookup)'
# ledger_at: the awk rules that keep w and m at the workload and metric a
# "value" line of a -out file belongs to (the layout json.MarshalIndent
# writes); the two readers below start from them.
ledger_at='
	/^    "[^"]+": \{$/ { w = $1; gsub(/[":]/, "", w) }
	/^        "[^"]+": \{$/ { m = $1; gsub(/[":]/, "", m) }'
# ledger_edit FILE WORKLOAD METRIC MUL ADD prints a -out file with that one
# value replaced by value*MUL+ADD.
ledger_edit() {
	awk -v ew="$2" -v em="$3" -v mul="$4" -v add="$5" "$ledger_at"'
		/^          "value": / && w == ew && m == em {
			v = $2; sub(/,$/, "", v)
			printf "          \"value\": %.17g,\n", v * mul + add
			next
		}
		{ print }' "$1"
}
# ledger_model FILE lists "workload metric value" for the model-clock
# metrics of a -out file.
ledger_model() {
	awk -v model="$model_metrics" "$ledger_at"'
		/^          "value": / && m ~ model { v = $2; sub(/,$/, "", v); print w, m, v }' "$1"
}
# ledger_gate OLD NEW succeeds iff NEW has every model-clock number of OLD,
# unchanged; it prints the ones that differ.
ledger_gate() {
	ledger_model "$1" > "$tmpdir/model.old"
	ledger_model "$2" > "$tmpdir/model.new"
	[ -s "$tmpdir/model.old" ] && diff "$tmpdir/model.old" "$tmpdir/model.new"
}
ledger=$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)
# The gate checks itself first, on doctored copies of the ledger: one model
# count moved by one must fail it, a 10 % wall-clock change must not.
ledger_edit "$ledger" ingest ssd.erases 1 1 > "$tmpdir/moved-model.json"
ledger_edit "$ledger" ingest ops_per_s 0.9 0 > "$tmpdir/moved-wall.json"
if ledger_gate "$ledger" "$tmpdir/moved-model.json" > /dev/null; then
	echo "ledger gate: self-check failed: ssd.erases + 1 on ingest passed the gate" >&2
	exit 1
fi
if cmp -s "$ledger" "$tmpdir/moved-wall.json" || ! ledger_gate "$ledger" "$tmpdir/moved-wall.json"; then
	echo "ledger gate: self-check failed: ops_per_s x 0.9 on ingest was not applied or did not pass the gate" >&2
	exit 1
fi
bash benchmark/run.sh -workload all -seed 1 -out "$tmpdir/run.json" > /dev/null
bash benchmark/run.sh -compare "$ledger" "$tmpdir/run.json" ||
	echo "ledger gate: a wall-clock metric is beyond its bound against $ledger (printed, not judged here)"
if ! ledger_gate "$ledger" "$tmpdir/run.json"; then
	echo "ledger gate: model-clock numbers differ from $ledger (< ledger, > this tree)" >&2
	exit 1
fi
echo "ledger gate: $(wc -l < "$tmpdir/model.new") model-clock numbers identical to $ledger"

echo "== crash-consistency sweep (short, lanes 1 and 4, incl. rebuild fault points; full sweep: purity-bench -experiment CS) and the consistency checker it runs (Array.Check against one planted fault per invariant)"
go test -short -run 'TestCrashSweep|TestTornTailRecovery|TestCorruptTailRecovery|TestCrashDuringRecovery|TestCheckCatches' ./internal/core/

echo "== drive-failure lifecycle (scrub repair + online rebuild)"
go test -run 'TestScrubRepairsAllInjectedCorruption|TestScrubStepPacedWalkerCoversEverything|TestRebuildRestoresRedundancyAndBootRegion|TestRebuildSurvivesSecondFailure|TestOpenAtWithOneNVRAMFailed' ./internal/core/

echo "== go test -race (concurrency-bearing packages)"
go test -race -short ./internal/wire/ ./internal/server/ ./internal/dedup/ ./internal/layout/ ./internal/shelf/ ./internal/pyramid/ ./internal/iosched/ ./internal/erasure/
go test -race -short -run 'TestConcurrentWriters|TestConcurrentScrubRebuildForeground|TestConcurrentReadersWriterGC|TestReadsAcrossSealWindow|TestStatsMarshalBesideLanes|TestDedupSearchBesideLanes' ./internal/core/

echo "== kernel benchmarks (one iteration each, so they cannot rot: dedup's hash and byte-verify, erasure's dot product)"
go test -run '^$' -bench 'HashBlocks32K|ExtendAnchor32K' -benchtime 1x ./internal/dedup/
go test -run '^$' -bench 'Dot7x128K' -benchtime 1x ./internal/erasure/

echo "== commit lanes (-race: multi-lane writers, one record order on every NVRAM mirror (TestLaneMirrorsAgreeOnRecordOrder), the log-full fallback under concurrent writers and catalog/GC steps, its shared-lock guard, the commit point's panics on a receiptless apply or shard copy and on a watermark advance under a shared world hold (TestCommitPointGuardsPanic), the short crash sweep at lanes 1 and 4, and four writers' pooled write scratch against the caller-buffer contract)"
go test -race -short -run 'TestLane|TestCrashSweep|TestCheckpointSurvivesNVRAMPressure|TestLogFullRefusesSharedWorld|TestCommitPointGuardsPanic|TestWriteAtKeepsNoCallerBuffer' ./internal/core/

echo "== pipelined front end (-race: out-of-order completion, 64 in-flight on one conn, first-frame rule, torn request, drain at a buffered frame, a batch failing mid-write, pooled bodies at QD 64, every unadmitted frame's exit giving back what admission took, a budget wait not granted once a drain began, SLO scrub deferral)"
go test -race -run 'TestPipelined|TestOutOfOrderCompletion|TestDuplicateTagKillsConnection|TestAdmissionWindowBackpressure|TestWireHealthCounters|TestServeSurvivesTransientAcceptErrors|TestFirstFrameMustBeHello|TestTornRequestCondemnsConnection|TestDrainStopsAtBufferedFrame|TestBatchWriteFailureReleasesEveryFrame|TestPooledBodiesManyWriters|TestEveryAdmissionExitReleases|TestBudgetWaitAbortsAfterDrainBegan' ./internal/server/
go test -run 'TestScrubDefersUnderSLOPressure|TestScrubRunsWithSLODisabled' ./internal/core/

echo "== wire codec, NVRAM record, patch descriptor, index page, compress frame, cblock frame, segment trailer and boot checkpoint fuzz (5 s each; the seed corpora already ran as plain tests above)"
go test -run '^$' -fuzz FuzzTaggedFrame -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz FuzzFrameStream -fuzztime 5s ./internal/wire/
go test -run '^$' -fuzz FuzzUnmarshalPatch -fuzztime 5s -fuzzminimizetime 1s ./internal/pyramid/
go test -run '^$' -fuzz FuzzOpen -fuzztime 5s -fuzzminimizetime 1s ./internal/pagecodec/
# FuzzDecompress holds the codec to its reference (lz_ref_test.go): the
# same output, consumed count and error on any input.
go test -run '^$' -fuzz FuzzDecompress -fuzztime 5s -fuzzminimizetime 1s ./internal/compress/
go test -run '^$' -fuzz FuzzUnpack -fuzztime 5s -fuzzminimizetime 1s ./internal/cblock/
go test -run '^$' -fuzz FuzzParseAUTrailer -fuzztime 5s -fuzzminimizetime 1s ./internal/layout/
go test -run '^$' -fuzz FuzzParseSegioTrailer -fuzztime 5s -fuzzminimizetime 1s ./internal/layout/
go test -run '^$' -fuzz FuzzUnmarshal -fuzztime 5s -fuzzminimizetime 1s ./internal/frontier/
# Minimizing a new input in core's large instrumented test binary stalls
# the workers for the rest of a 5 s run (0 execs/s); capped, the run fuzzes.
go test -run '^$' -fuzz FuzzDecodeRecord -fuzztime 5s -fuzzminimizetime 1s ./internal/core/

echo "== examples smoke (each examples/ program exits 0 and prints no false verdict)"
for ex in examples/*/; do
	ex=${ex%/}
	if ! go run "./$ex" > "$tmpdir/example.out" 2>&1; then
		echo "examples smoke: $ex exited non-zero" >&2
		tail -n 5 "$tmpdir/example.out" >&2
		exit 1
	fi
	if grep -E '(: |=)false([^a-z]|$)' "$tmpdir/example.out" >&2; then
		echo "examples smoke: $ex printed a false verdict" >&2
		exit 1
	fi
done

echo "== E14 smoke (one-connection queue-depth sweep over loopback TCP; every depth >= 8 must beat QD 1)"
go run ./cmd/purity-bench -experiment E14 -quick > /dev/null

echo "== HA (-race: chaos injector, session exactly-once, client reconnect/replay and write deadline, server drain, idle reap + failover; the controller, client and server binaries fail when a goroutine outlives their tests (internal/leakcheck))"
go test -race ./internal/chaos/ ./internal/controller/
go test -race -run 'TestHA' ./internal/client/
go test -race -run 'TestGracefulDrain|TestWriterDeadline|TestIdleTimeout|TestAcceptBackoffResets|TestSessionIdempotentWriteOverWire|TestHeartbeatFailover' ./internal/server/

echo "== E15 smoke, three times (kill the primary mid-workload under chaos; zero loss, zero dup, gap << 30s)"
# One run in ten used to fail here with a duplicate apply (a stale session-0
# dial adopted by client.HAClient); three runs keep the fix honest.
go build -o "$tmpdir/purity-bench" ./cmd/purity-bench
for run in 1 2 3; do
	if ! "$tmpdir/purity-bench" -experiment E15 -quick > "$tmpdir/e15.out" 2>&1; then
		echo "E15 smoke: run $run of 3 failed" >&2
		grep AppliedOK "$tmpdir/e15.out" >&2 || tail -n 5 "$tmpdir/e15.out" >&2
		exit 1
	fi
done

echo "ok: all checks passed"
