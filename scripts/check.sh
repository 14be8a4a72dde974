#!/bin/sh
# Repo hygiene gate: formatting, vet, build, tests, then the static-analysis
# self-lint over the shipped example programs. CI runs `make check`, which is
# this script.
set -e
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:"
    echo "$fmt"
    exit 1
fi

go vet ./...
go build ./...
go test ./...

# Verifier determinism gate: a failing proof must report the same
# counterexample facts, in the same order, after the same number of
# refinement rounds on every run, and a whole verify pass must repeat.
go test -count=5 -run 'Determin' ./internal/prover ./internal/verify

# Self-lint: every example program must analyze with zero error-severity
# findings. `bitc analyze` exits 1 on errors; the JSON is also checked so a
# regression in the exit-code contract cannot mask findings.
go build -o /tmp/bitc-check ./cmd/bitc
for f in examples/progs/*.bitc; do
    out=$(/tmp/bitc-check analyze -json "$f")
    errs=$(printf '%s' "$out" | sed -n 's/^  "errors": \([0-9]*\).*/\1/p')
    if [ "$errs" != "0" ]; then
        echo "$f: $errs error-severity findings"
        printf '%s\n' "$out"
        exit 1
    fi
    echo "analyze $f: 0 errors"
done

# Cache correctness: for every shipped example, a warm run out of a primed
# fact store must render byte-identically (pretty and JSON) to a cold run.
# -strict is on so directive-suppression accounting is held to the same
# standard as the findings themselves.
for f in examples/progs/*.bitc internal/core/testdata/analyze/*.bitc; do
    /tmp/bitc-check analyze -strict -verify-cache "$f" || {
        echo "$f: incremental cache is not transparent"; exit 1; }
done

# Lint baseline: every unsuppressed warning/note across the example corpus
# must already be listed in scripts/lint-baseline.txt. New findings fail the
# gate (fix the code, suppress with a directive, or deliberately re-baseline
# with `make lint-baseline`); stale baseline entries only warn. The sweep
# runs warm (-warm: re-analysis from a primed store, the daemon's code
# path), which the verify-cache sweep above proves equal to cold.
baseline=scripts/lint-baseline.txt
current=$(mktemp)
for f in examples/progs/*.bitc internal/core/testdata/analyze/*.bitc; do
    /tmp/bitc-check analyze -warm "$f" | grep '\[BITC-' | grep -v '^    ' || true
done | sort > "$current"
if [ ! -f "$baseline" ]; then
    echo "missing $baseline (run 'make lint-baseline' to create it)"
    rm -f "$current"
    exit 1
fi
new=$(comm -13 "$baseline" "$current")
if [ -n "$new" ]; then
    echo "new unsuppressed findings not in $baseline:"
    printf '%s\n' "$new"
    rm -f "$current"
    exit 1
fi
gone=$(comm -23 "$baseline" "$current")
if [ -n "$gone" ]; then
    echo "note: baseline entries no longer reported (consider 'make lint-baseline'):"
    printf '%s\n' "$gone"
fi
# Docs gate: BITC lint codes in docs/lint-codes.md must match the analyzer
# registry one-to-one (see scripts/docs-check.sh).
BITC_BIN=/tmp/bitc-check sh scripts/docs-check.sh

# Transaction-safety self-gate: the service's own generated bitc programs
# (the per-shard STM batch program and the 2PC prepare-order model rendered
# from the coordinator's prepareOrder) plus the bankstm example must carry
# zero atomicity findings — the BITC-ATOM checkers gate the very code they
# were built to protect, and a prepare-order regression in
# internal/serve/twopc.go fails here as BITC-ATOM003.
for kind in shard twopc; do
    /tmp/bitc-check serve -emit-program "$kind" > "/tmp/bitc-serve-$kind.bitc"
done
for f in /tmp/bitc-serve-shard.bitc /tmp/bitc-serve-twopc.bitc examples/bankstm/bankstm.bitc; do
    out=$(/tmp/bitc-check analyze "$f") || {
        echo "$f: error-severity findings in service code"
        printf '%s\n' "$out"; exit 1; }
    if printf '%s\n' "$out" | grep -q 'BITC-ATOM'; then
        echo "$f: atomicity findings in service code:"
        printf '%s\n' "$out"; exit 1
    fi
    echo "analyze $f: no atomicity findings"
done
rm -f /tmp/bitc-serve-shard.bitc /tmp/bitc-serve-twopc.bitc

# Dispatch fidelity gate: the fused interpreter must agree with
# the legacy switch baseline on values, traps, counters, and observer
# streams over the kernel + example corpus, and the pinned fusion listings
# of two E1 kernels must not drift silently (regenerate with -update and
# review the diff; see docs/vm.md). The counter golden pins every Stats
# field, result and output of the E1 kernels and the thread/STM programs
# across builds, and the allocation tests hold calls, boxed execution and
# scheduling to their allocation budgets.
go test -count=1 -run 'TestDispatchDifferential|TestDisasmGolden|TestVMCounterGolden|TestCallsAllocateNothing|TestBoxedAllocatesOnlyBoxes|TestSchedulingAllocatesNothing|TestForcedRetryAllocations' ./internal/vm
# The front end is held to the same standard: lexing a large well-formed
# file allocates nothing (tokens are pointer-free values).
go test -count=1 -run 'TestLexAllocatesNothing' ./internal/lexer

# Parser fuzz smoke (fixed 10s): no input panics the parser, every span
# nests inside its parent and the text, and a clean parse prints, re-parses
# and prints identically.
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/parser

# Bounds & provenance gate: the relational prover must (1) hold the E1
# kernels' discharge rate above the 60% floor and keep the PROV001
# narrowing checks honest (internal/analysis), (2) report no provably
# out-of-range access (BITC-BOUND001) anywhere in the shipped examples or
# the service's generated programs, and (3) keep proof-guided elision
# observationally equivalent to the checked interpreter — values, traps,
# counters, and observer streams (internal/vm/elide_test.go), with every
# statically flagged site actually trapping in the VM.
go test -count=1 -run 'TestBoundsE1Discharge|TestFFIProv' ./internal/analysis
go test -count=1 -run 'TestBoundsElision|TestBoundsStaticTrapAgreement' ./internal/vm
for kind in shard twopc; do
    /tmp/bitc-check serve -emit-program "$kind" > "/tmp/bitc-bound-$kind.bitc"
done
for f in examples/progs/*.bitc examples/bankstm/bankstm.bitc \
         /tmp/bitc-bound-shard.bitc /tmp/bitc-bound-twopc.bitc; do
    if /tmp/bitc-check analyze -strict "$f" | grep -q 'BITC-BOUND001'; then
        echo "$f: provably out-of-range vector access"; exit 1
    fi
done
rm -f /tmp/bitc-bound-shard.bitc /tmp/bitc-bound-twopc.bitc
echo "bounds gate: discharge floor, corpus sweep, and elision differential green"

# Bench determinism gate: two deterministic E1 collections must be
# byte-identical — dispatch work (specialization, fusion, inline caches)
# must never leak nondeterminism into the committed trajectory files.
go build -o /tmp/bitc-bench-check ./cmd/bitc-bench
d1=$(mktemp -d); d2=$(mktemp -d)
/tmp/bitc-bench-check -e E1 -quick -deterministic -metrics "$d1" > /dev/null
/tmp/bitc-bench-check -e E1 -quick -deterministic -metrics "$d2" > /dev/null
cmp "$d1/BENCH_E1.json" "$d2/BENCH_E1.json" || {
    echo "deterministic E1 runs differ byte-for-byte"; exit 1; }
echo "bench determinism: E1 deterministic collection is byte-reproducible"
rm -rf "$d1" "$d2"
# The same holds for every metrics exporter (bench.MetricsExperiments(),
# which -metrics without -e writes): two deterministic collections of each
# must be byte-identical.
d1=$(mktemp -d); d2=$(mktemp -d)
/tmp/bitc-bench-check -quick -deterministic -metrics "$d1" > /dev/null
/tmp/bitc-bench-check -quick -deterministic -metrics "$d2" > /dev/null
for f in "$d1"/BENCH_*.json; do
    cmp "$f" "$d2/$(basename "$f")" || {
        echo "deterministic $(basename "$f") runs differ byte-for-byte"; exit 1; }
done
echo "bench determinism: $(ls "$d1" | wc -l) deterministic metrics collections are byte-reproducible"
rm -rf "$d1" "$d2" /tmp/bitc-bench-check

# Serving smoke gate (~2s): 10k transactions across 4 shards with
# cross-shard 2PC transfers; `bitc serve` exits non-zero unless the
# conservation-of-balance invariant holds at shutdown (see docs/serve.md).
/tmp/bitc-check serve -smoke

# The serving subsystem mixes real OS threads (shard batches, 2PC
# coordinators) with VM green threads — hold it to the race detector.
go test -race -count=1 ./internal/serve/...

# The analysis driver runs analyzers on a worker pool that share each
# function's CFG and the whole-program facts — hold it to the race detector
# too, with no store, on a fresh store and warm.
go test -race -count=1 -run 'TestParallelDrivers|TestIncrementalNilStore' ./internal/analysis

rm -f "$current" /tmp/bitc-check

# Incremental scale gate: on the synthetic ~100k-function corpus, (1) a warm
# run after a one-function edit renders byte-identically to a fresh cold run,
# and (2) warm re-analysis is >= 20x faster than cold (see
# incremental_gate_test.go and docs/incremental.md). The full corpus takes a
# few minutes; set BITC_INCR_GATE_FUNCS to shrink it locally — note the 20x
# bar assumes near-full scale (fixed warm overheads dominate tiny corpora).
gate=$(BITC_INCR_GATE=1 go test -run TestIncrementalGate -count=1 -v -timeout 1800s .) || {
    printf '%s\n' "$gate"; exit 1; }
printf '%s\n' "$gate" | grep 'corpus:' || true

echo "check: all green"
