package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// spec names one metric with its unit and direction.
type spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// e2eSpecs are the end-to-end metrics of the final JSON line, the same for
// every workload, each defined on the workload's own operation. Times are
// process CPU time (every thread, the Go runtime's included): on a shared
// host the wall clock also counts time the hypervisor gives to other
// tenants. The report block prints the wall-clock figures too.
var e2eSpecs = []spec{
	{"setup_s", "s", "lower"},
	{"cpu_p50_ms", "ms", "lower"},
	{"cpu_mean_ms", "ms", "lower"},
	{"heap_live_mb", "MiB", "lower"},
}

// layerSpecs are the per-layer metrics of the traced run's JSON line. Times
// are process CPU self time per operation. A layer a workload bypasses
// reports 0.
var layerSpecs = []spec{
	{"parser.ms", "ms", "lower"},
	{"parser.mb_per_s", "MB/s", "higher"},
	{"types.ms", "ms", "lower"},
	{"compiler.ms", "ms", "lower"},
	{"compiler.ir_instrs", "count", "lower"},
	{"opt.ms", "ms", "lower"},
	{"opt.inlined", "count", "higher"},
	{"opt.const_folded", "count", "higher"},
	{"opt.ir_instrs", "count", "lower"},
	{"cfg.ms", "ms", "lower"},
	{"pointsto.ms", "ms", "lower"},
	{"analysis.cold_ms", "ms", "lower"},
	{"analysis.warm_ms", "ms", "lower"},
	{"analysis.race.ms", "ms", "lower"},
	{"analysis.escape.ms", "ms", "lower"},
	{"analysis.atomicity.ms", "ms", "lower"},
	{"analysis.bounds.ms", "ms", "lower"},
	{"analysis.deadlock.ms", "ms", "lower"},
	{"analysis.deadstore.ms", "ms", "lower"},
	{"analysis.definit.ms", "ms", "lower"},
	{"analysis.ffi.ms", "ms", "lower"},
	{"analysis.truncate.ms", "ms", "lower"},
	{"factstore.hits", "count", "higher"},
	{"factstore.misses", "count", "lower"},
	{"factstore.hit_ratio", "ratio", "higher"},
	{"factstore.entries", "count", "lower"},
	{"verify.ms", "ms", "lower"},
	{"verify.vcs", "count", "lower"},
	{"verify.proved", "count", "higher"},
	{"verify.failed", "count", "lower"},
	{"verify.skipped", "count", "lower"},
	{"verify.us_per_vc", "us", "lower"},
	{"vm.ms", "ms", "lower"},
	{"vm.instrs", "count", "lower"},
	{"vm.minstr_per_s", "Minstr/s", "higher"},
	{"vm.calls", "count", "lower"},
	{"vm.allocs", "count", "lower"},
	{"vm.box_allocs", "count", "lower"},
	{"vm.ic_hit_ratio", "ratio", "higher"},
	{"vm.go_alloc_bytes_per_instr", "B/instr", "lower"},
	{"serve.new_ms", "ms", "lower"},
	{"serve.run_ms", "ms", "lower"},
	{"serve.rounds", "count", "lower"},
	{"serve.committed", "count", "higher"},
	{"serve.cross_committed", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.conflicts", "count", "lower"},
	{"serve.retries", "count", "lower"},
	{"serve.tx_abort_ratio", "ratio", "lower"},
	{"serve.queue_peak", "count", "lower"},
	{"serve.vm_switches", "count", "lower"},
	{"serve.extern_calls", "count", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_ms", "ms", "lower"},
	{"go.alloc_mb", "MiB", "lower"},
}

// named is one figure of the report block, under the name the
// documentation gives it.
type named struct {
	Name  string
	Unit  string
	Value float64
}

// stamp is a point on the wall clock and on the process CPU clock.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuTime()} }

// since returns the wall and CPU time elapsed since s.
func (s stamp) since() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// cpuTime is the user plus system time of the whole process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase accumulates one measurement pass: untraced (tr nil) or traced.
type phase struct {
	tr                  *tracer
	setupWall, setupCPU []float64            // seconds per set-up
	wall, cpu           map[string][]float64 // operation times in ms, by series
	busyWall, busyCPU   time.Duration        // summed operation times
	units               float64              // work done: runs, edits, VCs, transactions
	ops                 int
	attempted, failed   int
	heapPeak, heapLive  uint64
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, wall: map[string][]float64{}, cpu: map[string][]float64{}}
}

// check counts one attempted output, failing it when err is non-nil.
func (p *phase) check(err error) {
	p.attempted++
	if err != nil {
		p.failed++
		if p.failed <= 5 {
			fmt.Printf("# failure: %v\n", err)
		}
	}
}

// record adds one operation, begun at start, to a series.
func (p *phase) record(series string, start stamp, units float64) {
	wall, cpu := start.since()
	p.wall[series] = append(p.wall[series], ms(wall))
	p.cpu[series] = append(p.cpu[series], ms(cpu))
	p.busyWall += wall
	p.busyCPU += cpu
	p.units += units
}

// quantile returns the geometric mean over the series of each series'
// q-quantile: one series gives its own quantile; the kernels' eight
// kernel×representation series weigh equally.
func (p *phase) quantile(times map[string][]float64, q float64) float64 {
	var qs []float64
	for _, xs := range times {
		qs = append(qs, quantile(xs, q))
	}
	return geomean(qs)
}

// mean is quantile's counterpart for the arithmetic mean, which, unlike a
// quantile, carries every operation's share of garbage-collection work.
func (p *phase) mean(times map[string][]float64) float64 {
	var ms []float64
	for _, xs := range times {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		ms = append(ms, sum/float64(len(xs)))
	}
	return geomean(ms)
}

// samples returns the size of the phase's smallest series.
func (p *phase) samples() int {
	n := -1
	for _, xs := range p.wall {
		if n < 0 || len(xs) < n {
			n = len(xs)
		}
	}
	return n
}

var liveHeap = []metrics.Sample{{Name: "/gc/heap/live:bytes"}}

// readLiveHeap returns the heap the last GC found live.
func readLiveHeap() uint64 {
	metrics.Read(liveHeap)
	if liveHeap[0].Value.Kind() == metrics.KindUint64 {
		return liveHeap[0].Value.Uint64()
	}
	return 0
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's inputs from the seed; measure times it.
	setup(p *phase) error
	// start runs once after the last set-up, before the operations (the
	// watch workload's cold analysis).
	start(p *phase) error
	// run performs operation i and records it in the phase.
	run(p *phase, i int) error
	// finish runs the post-loop oracles, outside every timing.
	finish(p *phase) error
	// named lists the workload's own figures, by their documented names.
	named(p *phase) []named
	// opKind is the root-span kind of the measured operation.
	opKind() string
	// extra makes the traced run's additional layer calls.
	extra(p *phase) error
	// layers derives the per-layer metrics from a traced phase.
	layers(p *phase, rows []layerRow) map[string]float64
	// describe lists the workload's configuration for the report.
	describe() [][2]string
}

// result is the outcome of one benchmark invocation.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	E2E       map[string]float64
	Named     []named
	Config    [][2]string

	// Traced run only.
	Layers   map[string]float64
	Table    []layerRow
	Overhead map[string]float64 // traced minus untraced, per end-to-end metric
	Account  accounting
	SpanFile string
	tracer   *tracer
}

// accounting compares one operation's untraced time with the layer self
// times the traced run attributes to it, in CPU and wall time (ms).
type accounting struct {
	Kind                      string
	UntracedCPU, UntracedWall float64 // mean untraced operation
	TracedCPU, TracedWall     float64 // mean traced operation
	LayersCPU, LayersWall     float64 // layer self time per traced operation
	BenchCPU, BenchWall       float64 // root-span self time per traced operation
}

// e2e derives the end-to-end metrics of a phase.
func e2e(p *phase) map[string]float64 {
	return map[string]float64{
		"setup_s":      median(p.setupCPU),
		"cpu_p50_ms":   p.quantile(p.cpu, 0.5),
		"cpu_mean_ms":  p.mean(p.cpu),
		"heap_live_mb": mib(p.heapLive),
	}
}

// execute runs one workload: the untraced measurement, then, when asked,
// the traced run.
func execute(cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	un := newPhase(nil)
	if err := measure(w, un, cfg.Size.SetupReps, cfg.Size.SetupSeconds, cfg.Seconds, cfg.Size.MinOps, 0); err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.Workload, Config: w.describe(), E2E: e2e(un)}
	res.Named = append([]named{{"setup_wall_s", "s", median(un.setupWall)}}, w.named(un)...)
	res.Named = append(res.Named,
		named{"heap_peak_mb", "MiB", mib(un.heapPeak)},
		named{"samples", "count", float64(un.samples())})
	res.Attempted, res.Failed = un.attempted, un.failed
	if !cfg.Trace {
		return res, nil
	}

	tr := newTracer()
	tp := newPhase(tr)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := measure(w, tp, cfg.Size.TraceSetupReps, 0, 0, 0, cfg.Size.TraceOps); err != nil {
		return nil, err
	}
	if err := w.extra(tp); err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	res.tracer = tr
	res.Table = tr.layerTable()
	res.Layers = w.layers(tp, res.Table)
	res.Layers["gc.cycles"] = float64(after.NumGC - before.NumGC)
	res.Layers["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	res.Layers["go.alloc_mb"] = mib(after.TotalAlloc - before.TotalAlloc)
	traced := e2e(tp)
	res.Overhead = map[string]float64{}
	for _, s := range e2eSpecs {
		res.Overhead[s.Name] = traced[s.Name] - res.E2E[s.Name]
	}
	kind := w.opKind()
	ops := float64(max(un.ops, 1))
	a := accounting{Kind: kind, UntracedCPU: ms(un.busyCPU) / ops, UntracedWall: ms(un.busyWall) / ops}
	a.TracedWall, a.TracedCPU = tr.opMs(kind)
	for _, r := range res.Table {
		if r.Kind != kind {
			continue
		}
		if r.Layer == "bench" {
			a.BenchCPU, a.BenchWall = r.CPUPerOp, r.WallPerOp
		} else {
			a.LayersCPU += r.CPUPerOp
			a.LayersWall += r.WallPerOp
		}
	}
	res.Account = a
	return res, nil
}

// measure times at least reps set-ups, repeating for at least setupSeconds,
// then runs operations: for at least seconds and minOps operations, or
// exactly fixedOps when that is positive. It samples the live heap after
// every set-up and operation, and after a collection once heapLiveAfter
// operations have run: a fixed point, so the figure does not depend on how
// many operations fit in the time.
func measure(w workload, p *phase, reps int, setupSeconds, seconds float64, minOps, fixedOps int) error {
	setupEnd := time.Now().Add(time.Duration(setupSeconds * float64(time.Second)))
	for r := 0; r < reps || time.Now().Before(setupEnd); r++ {
		start := now()
		if err := w.setup(p); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		wall, cpu := start.since()
		p.setupWall = append(p.setupWall, wall.Seconds())
		p.setupCPU = append(p.setupCPU, cpu.Seconds())
		p.heapPeak = max(p.heapPeak, readLiveHeap())
	}
	if err := w.start(p); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		if fixedOps > 0 {
			if i >= fixedOps {
				break
			}
		} else if i >= minOps && !time.Now().Before(deadline) {
			break
		}
		if err := w.run(p, i); err != nil {
			return err
		}
		p.ops++
		p.heapPeak = max(p.heapPeak, readLiveHeap())
		if p.ops == heapLiveAfter {
			runtime.GC()
			p.heapLive = readLiveHeap()
		}
	}
	return w.finish(p)
}

// heapLiveAfter is the operation after which heap_live_mb is measured. It
// is at most every phase's operation count (MinOps and TraceOps).
const heapLiveAfter = 8

// errMismatch reports an output that differs from its reference.
var errMismatch = errors.New("output differs from reference")

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "inclusive" method).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
