package bench

// Metrics export: the machine-readable companion to the printed tables.
// Where the tables are for humans, CollectMetrics emits the stable
// bitc-metrics/v1 JSON schema (internal/obs) as BENCH_<experiment>.json
// trajectory files that future PRs can regress against.

import (
	"fmt"
	"math"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
	"bitc/internal/ir"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// MetricsExperiments lists the experiments with a metrics exporter.
func MetricsExperiments() []string { return []string{"E1", "E8", "E9", "EA", "ANALYZE"} }

// CollectMetrics runs the named experiment's workloads and returns the
// metrics document. With deterministic set, wall-clock fields are zeroed so
// the emitted JSON is byte-reproducible run to run.
func CollectMetrics(id string, p Params, deterministic bool) (*obs.MetricsDoc, error) {
	switch id {
	case "E1":
		return metricsE1(p, deterministic)
	case "E8":
		return metricsE8(p, deterministic)
	case "E9":
		return metricsE9(p, deterministic)
	case "EA":
		return metricsEA(p, deterministic)
	case "ANALYZE":
		return metricsAnalyze(p, deterministic)
	default:
		return nil, fmt.Errorf("no metrics exporter for experiment %q (have %v)", id, MetricsExperiments())
	}
}

// countersOf projects the VM's internal counters onto the stable schema.
func countersOf(s vm.Stats) obs.Counters {
	return obs.Counters{
		Instrs:          s.Instrs,
		Calls:           s.Calls,
		Allocs:          s.Allocs,
		HeapBytes:       s.HeapBytes,
		BoxAllocs:       s.BoxAllocs,
		BoxBytes:        s.BoxBytes,
		BoxReads:        s.BoxReads,
		FieldReads:      s.FieldReads,
		FieldWrites:     s.FieldWrites,
		VecOps:          s.VecOps,
		Switches:        s.Switches,
		TxCommits:       s.TxCommits,
		TxAborts:        s.TxAborts,
		ExternCalls:     s.ExternCalls,
		MarshalledBytes: s.MarshalledBytes,
		RegionAllocs:    s.RegionAllocs,
		ICHits:          s.ICHits,
		ICMisses:        s.ICMisses,
	}
}

// entryRun returns a closure that runs entry(arg) on a fresh VM, leaving
// the machine in *m for counter inspection.
func entryRun(mod *ir.Module, opts vm.Options, arg int64, m **vm.VM) func() error {
	return func() error {
		*m = vm.New(mod, opts)
		_, err := (*m).RunFunc("entry", vm.IntValue(arg))
		return err
	}
}

// newDoc starts a document whose timed rows are medians over p.Reps runs.
func newDoc(id string, p Params, deterministic bool) *obs.MetricsDoc {
	doc := obs.NewMetricsDoc(id, deterministic)
	if !deterministic {
		doc.Reps = p.Reps
	}
	return doc
}

// setRatio stores s under key, its quartiles under key+"Q1" and key+"Q3".
func setRatio(d map[string]float64, key string, s spread) {
	d[key], d[key+"Q1"], d[key+"Q3"] = s.med, s.q1, s.q3
}

// metricsE1 is the one E1 measurement (fallacy 1), which the E1 table
// renders. Kernels compile under core.DefaultConfig (O2, as the benchmark's
// kernels workload) and run unboxed and boxed; measured runs add the switch
// interpreter and proof-guided elision to the same repetitions and record
// boxedRatio, dispatchSpeedup (switch/fused) and boundsElisionSpeedup
// (checked/elided), with a geomean row across kernels per repetition.
func metricsE1(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := newDoc("E1", p, deterministic)
	var dispatch, elide [][]float64
	for _, w := range workloads() {
		prog, err := core.Load(w.name, w.src, core.DefaultConfig)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		arg := w.arg(p.Scale)
		var unboxed, boxed, other *vm.VM
		runs := []func() error{
			entryRun(prog.Module, vm.Options{Mode: vm.Unboxed}, arg, &unboxed),
			entryRun(prog.Module, vm.Options{Mode: vm.Boxed}, arg, &boxed),
		}
		var proofs *analysis.BoundsProofSet
		if !deterministic {
			runs = append(runs, entryRun(prog.Module, vm.Options{Mode: vm.Unboxed, Dispatch: vm.DispatchSwitch}, arg, &other))
			cfg := core.DefaultConfig
			cfg.BoundsElide = true
			eprog, err := core.Load(w.name, w.src, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/elide: %w", w.name, err)
			}
			if proofs = eprog.Proofs; proofs.Proved > 0 {
				runs = append(runs, entryRun(eprog.Module, vm.Options{Mode: vm.Unboxed, BoundsElide: proofs.Elidable()}, arg, &other))
			}
		}
		ns, err := timeRuns(p.Reps, deterministic, runs...)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		row := func(mode string, ns []uint64, m *vm.VM) obs.Metrics {
			return obs.Metrics{Workload: w.name, Mode: mode, N: arg, Opt: core.DefaultConfig.Optimize.String(),
				WallNS: int64(median(ns)), Counters: countersOf(m.Stats)}
		}
		un, bx := row("unboxed", ns[0], unboxed), row("boxed", ns[1], boxed)
		bx.Derived = map[string]float64{
			"boxAllocsPerInstr": float64(bx.Counters.BoxAllocs) / float64(bx.Counters.Instrs),
			"boxReadsPerInstr":  float64(bx.Counters.BoxReads) / float64(bx.Counters.Instrs),
		}
		if !deterministic {
			setRatio(bx.Derived, "boxedRatio", spreadOf(ratios(ns[1], ns[0])))
			dispatch = append(dispatch, ratios(ns[2], ns[0]))
			un.Derived = map[string]float64{}
			setRatio(un.Derived, "dispatchSpeedup", spreadOf(dispatch[len(dispatch)-1]))
			if proofs.Proved > 0 {
				elide = append(elide, ratios(ns[0], ns[3]))
				setRatio(un.Derived, "boundsElisionSpeedup", spreadOf(elide[len(elide)-1]))
				un.Derived["boundsProved"] = float64(proofs.Proved)
				un.Derived["boundsSites"] = float64(proofs.Sites)
			}
		}
		doc.Rows = append(doc.Rows, un, bx)
	}
	if len(dispatch) > 0 {
		derived := map[string]float64{}
		setRatio(derived, "dispatchSpeedup", geomeanPairs(dispatch))
		if len(elide) > 0 {
			setRatio(derived, "boundsElisionSpeedup", geomeanPairs(elide))
		}
		doc.Rows = append(doc.Rows, obs.Metrics{Workload: "geomean", Mode: "unboxed", Opt: core.DefaultConfig.Optimize.String(), Derived: derived})
	}
	return doc, nil
}

// geomeanPairs summarises, per repetition i, the geomean of perKernel[k][i].
func geomeanPairs(perKernel [][]float64) spread {
	g := make([]float64, len(perKernel[0]))
	for i := range g {
		g[i] = 1
		for _, rs := range perKernel {
			g[i] *= math.Pow(rs[i], 1/float64(len(perKernel)))
		}
	}
	return spreadOf(g)
}

// metricsEA exports static-analysis cost: the full analyzer suite over the
// canonical workloads plus the unsynchronised bank workload, under the
// sequential and the parallel driver. AnalysisNS carries the wall time (the
// analysis runs no VM, so the run counters stay zero) and the finding count
// lands in Derived so a checker regression that changes coverage shows up
// in trajectory diffs too.
func metricsEA(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := newDoc("EA", p, deterministic)
	targets := append(workloads(), workload{name: "bankstm", src: bankSrc("none", int64(100*p.Scale))})
	for _, tg := range targets {
		prog, err := core.Load(tg.name, tg.src, core.Config{Optimize: opt.O2})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tg.name, err)
		}
		var reps [2]*analysis.Report
		analyze := func(i, parallelism int) func() error {
			return func() (err error) {
				reps[i], err = prog.Analyze(analysis.Options{Parallelism: parallelism})
				return err
			}
		}
		ns, err := timeRuns(p.Reps, deterministic, analyze(0, 1), analyze(1, 0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tg.name, err)
		}
		for i, mode := range []string{"sequential", "parallel"} {
			doc.Rows = append(doc.Rows, obs.Metrics{
				Workload:   tg.name,
				Mode:       mode,
				AnalysisNS: int64(median(ns[i])),
				Derived: map[string]float64{
					"findings":   float64(len(reps[i].Findings)),
					"suppressed": float64(len(reps[i].Suppressed)),
				},
			})
		}
	}
	return doc, nil
}

// metricsAnalyze exports the incremental-analysis trajectory: the synthetic
// corpus (internal/corpus) analyzed cold, then warm with no edit (pure probe
// cost), then warm after a one-function edit — the re-analysis latency a
// `bitc analyze -watch` daemon pays. AnalysisNS carries the wall time;
// findings and the per-run cache hit/miss traffic land in Derived, so a
// key-scheme regression that silently widens invalidation shows up as a
// miss-count jump in trajectory diffs even when the timings are noisy.
// Each row is timed once: the store a call leaves behind is the next
// row's input, so a repeated cold call would measure a warm one.
func metricsAnalyze(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := obs.NewMetricsDoc("ANALYZE", deterministic)
	// row times one call and appends its row: the size and derived facts
	// it returns plus the store traffic it caused.
	row := func(workload, mode string, store *factstore.Store, call func() (int64, map[string]float64, error)) error {
		var n int64
		var derived map[string]float64
		before := store.Stats()
		ns, err := timeRuns(1, deterministic, func() (err error) {
			n, derived, err = call()
			return err
		})
		if err != nil {
			return fmt.Errorf("ANALYZE/%s-%s: %w", workload, mode, err)
		}
		after := store.Stats()
		derived["cacheHits"] = float64(after.Hits - before.Hits)
		derived["cacheMisses"] = float64(after.Misses - before.Misses)
		doc.Rows = append(doc.Rows, obs.Metrics{
			Workload: workload, Mode: mode, N: n, AnalysisNS: int64(ns[0][0]), Derived: derived,
		})
		return nil
	}

	nfuncs := 200 * p.Scale
	if nfuncs < 400 {
		nfuncs = 400
	}
	src := corpus.Text(nfuncs, 25)
	prog, err := core.LoadAnalysis("corpus.bitc", src)
	if err != nil {
		return nil, fmt.Errorf("ANALYZE corpus: %w", err)
	}
	eprog, err := core.LoadAnalysis("corpus.bitc", corpus.EditOne(src, nfuncs/2))
	if err != nil {
		return nil, fmt.Errorf("ANALYZE edited corpus: %w", err)
	}
	store := factstore.New()
	for _, tier := range []struct {
		mode string
		prog *core.Program
	}{{"cold", prog}, {"warm", prog}, {"warm-one-edit", eprog}} {
		if err := row("incr-corpus", tier.mode, store, func() (int64, map[string]float64, error) {
			rep, err := tier.prog.AnalyzeWithStore(analysis.Options{}, store)
			if err != nil {
				return 0, nil, err
			}
			return int64(nfuncs), map[string]float64{
				"findings": float64(len(rep.Findings)),
				"funcs":    float64(nfuncs),
			}, nil
		}); err != nil {
			return nil, err
		}
	}

	// Transaction-safety tier: the atomicity pass (BITC-ATOM001..004) over
	// a fixture firing all four codes — the synthetic corpus has no atomic
	// regions, so this is the row where a summary regression in the atomic
	// fact kinds (sites, irreversible effects, retry loops, lock edges)
	// shows up as a findings or miss-count change.
	aprog, err := core.LoadAnalysis("atomicity.bitc", atomicitySrc)
	if err != nil {
		return nil, fmt.Errorf("ANALYZE atomicity fixture: %w", err)
	}
	astore := factstore.New()
	for _, mode := range []string{"cold", "warm"} {
		if err := row("atomicity", mode, astore, func() (int64, map[string]float64, error) {
			rep, err := aprog.AnalyzeWithStore(analysis.Options{Enable: []string{"atomicity"}}, astore)
			if err != nil {
				return 0, nil, err
			}
			return int64(len(rep.Findings)), map[string]float64{"findings": float64(len(rep.Findings))}, nil
		}); err != nil {
			return nil, err
		}
	}

	// Bounds-prover tier: the relational range analysis over the E1 kernels,
	// cold (fresh fact store, full CFG + points-to rebuild) then warm
	// (per-function proof sites served from unchanged content keys). The
	// sites/proved counts pin the discharge rate the elision experiment in
	// BENCH_E1.json depends on, and the cache traffic shows whether the
	// proof keys still match the incremental driver's invalidation.
	for _, w := range workloads() {
		bprog, err := core.LoadAnalysis(w.name, w.src)
		if err != nil {
			return nil, fmt.Errorf("ANALYZE bounds %s: %w", w.name, err)
		}
		bstore := factstore.New()
		for _, mode := range []string{"bounds-cold", "bounds-warm"} {
			if err := row(w.name, mode, bstore, func() (int64, map[string]float64, error) {
				ps := analysis.BoundsProofsWithStore(bprog.AST, bprog.Info, bstore)
				return 0, map[string]float64{"sites": float64(ps.Sites), "proved": float64(ps.Proved)}, nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return doc, nil
}

// atomicitySrc trips all four BITC-ATOM codes: a bare write to an
// atomically managed location, an extern reachable inside a transaction, a
// descending shard-lock acquisition, a nested atomic, and an unbounded
// retry loop over shared state.
const atomicitySrc = `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
(external ping (-> (int64) int64) "ping")
(define (txn) unit
  (atomic (set-field! counter v (+ (field counter v) 1))))
(define (bare) unit
  (set-field! counter v 3))
(define (effectful) unit
  (atomic
    (set-field! counter v 1)
    (ping 1)
    ()))
(define (nested) unit
  (atomic (txn)))
(define (spin) unit
  (while (> (field counter v) 0) (txn)))
(define (move) unit
  (with-lock shard1 (with-lock shard0 (set-field! counter v 2))))
(define (main) unit
  (let ((t (spawn (txn))))
    (bare)
    (join t)
    (effectful)
    (nested)
    (spin)
    (move)))
`

// metricsE8 exports the shared-state experiment (challenge 4): the bank
// transfer workload under no synchronisation, a coarse lock, and STM, with
// the abort rate as the headline derived metric.
func metricsE8(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := newDoc("E8", p, deterministic)
	transfers := int64(100 * p.Scale)
	for _, sync := range []string{"none", "coarse", "stm"} {
		prog, err := core.Load("bankstm-"+sync, bankSrc(sync, transfers), core.Config{
			Optimize: opt.O2,
			Seed:     7,
			Quantum:  13, // short quanta force interleaving so the modes differ
		})
		if err != nil {
			return nil, fmt.Errorf("bankstm/%s: %w", sync, err)
		}
		var machine *vm.VM
		var val vm.Value
		ns, err := timeRuns(p.Reps, deterministic, func() (err error) {
			machine = prog.NewVM()
			val, err = machine.RunFunc("entry", vm.IntValue(transfers))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bankstm/%s: %w", sync, err)
		}
		m := obs.Metrics{
			Workload: "bankstm",
			Mode:     sync,
			N:        transfers,
			WallNS:   int64(median(ns[0])),
			Counters: countersOf(machine.Stats),
			Derived: map[string]float64{
				// 2n transfers conserve the total only when synchronised;
				// the drift from 100000 is the lost-update count.
				"finalTotal": float64(val.I),
			},
		}
		if attempts := m.Counters.TxCommits + m.Counters.TxAborts; attempts > 0 {
			m.Derived["txAbortRate"] = float64(m.Counters.TxAborts) / float64(attempts)
		}
		doc.Rows = append(doc.Rows, m)
	}
	return doc, nil
}
