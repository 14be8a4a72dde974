package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"bitc/internal/bench"
	"bitc/internal/compiler"
	"bitc/internal/core"
	"bitc/internal/ir"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/vm"
)

// kernels runs the four E1 kernels, loaded with core.DefaultConfig (O2,
// fused dispatch), under the unboxed and the boxed representation. One
// operation is one kernel run on a fresh VM; runs cycle through the eight
// kernel×representation pairs.
type kernels struct {
	cfg   config
	lcg   int64 // insertion-sort's LCG seed constant
	progs []kernelProg
	reps  []vm.RepMode

	// Traced-run counters.
	srcBytes      int
	compileInstrs int
	optInstrs     int
	optRes        opt.Result
	vmStats       vm.Stats
	runs          int
	allocStart    uint64
	allocBytes    uint64
}

type kernelProg struct {
	name string
	src  string
	arg  int64
	mod  *ir.Module
}

func newKernels(cfg config) *kernels {
	k := &kernels{cfg: cfg, lcg: int64((cfg.Seed*48271 + 12345) % 2147483648), reps: []vm.RepMode{vm.Unboxed, vm.Boxed}}
	args := map[string]int64{"fib": cfg.Size.Fib, "vector-sum": cfg.Size.VecSum,
		"struct-walk": cfg.Size.StructWalk, "insertion-sort": cfg.Size.Sort}
	for _, name := range bench.KernelNames() {
		src, _ := bench.KernelSource(name)
		if name == "insertion-sort" {
			src = strings.Replace(src, "(mutable seed 12345)", "(mutable seed "+strconv.FormatInt(k.lcg, 10)+")", 1)
		}
		k.progs = append(k.progs, kernelProg{name: name, src: src, arg: args[name]})
	}
	return k
}

func (k *kernels) opKind() string { return "kernels.run" }

func (k *kernels) describe() [][2]string {
	var sz []string
	for _, kp := range k.progs {
		sz = append(sz, fmt.Sprintf("%s(%d)", kp.name, kp.arg))
	}
	return [][2]string{
		{"load", "core.DefaultConfig (opt O2, bounds elision off)"},
		{"dispatch", "fused"},
		{"representations", "unboxed, boxed"},
		{"kernels", strings.Join(sz, " ")},
		{"insertion_sort_lcg_seed", strconv.FormatInt(k.lcg, 10)},
	}
}

// setup loads the four kernels: core.Load when untraced; in the traced run
// its phases one by one, in core.Load's order, each in its own span.
func (k *kernels) setup(p *phase) error {
	if p.tr == nil {
		for i := range k.progs {
			prog, err := core.Load(k.progs[i].name, k.progs[i].src, core.DefaultConfig)
			if err != nil {
				return err
			}
			k.progs[i].mod = prog.Module
		}
		return nil
	}
	op := p.tr.op("kernels.load")
	defer p.tr.end(op)
	k.srcBytes, k.compileInstrs, k.optInstrs, k.optRes = 0, 0, 0, opt.Result{}
	for i := range k.progs {
		kp := &k.progs[i]
		s := p.tr.begin("parser")
		prog, diags := parser.Parse(kp.name, kp.src)
		p.tr.end(s)
		if err := diags.ErrOrNil(); err != nil {
			return err
		}
		s = p.tr.begin("types")
		info, cdiags := types.Check(prog)
		p.tr.end(s)
		if err := cdiags.ErrOrNil(); err != nil {
			return err
		}
		s = p.tr.begin("compiler")
		mod, mdiags := compiler.Compile(prog, info, compiler.Options{EmitContracts: core.DefaultConfig.EmitContracts})
		p.tr.end(s)
		if err := mdiags.ErrOrNil(); err != nil {
			return err
		}
		k.compileInstrs += irInstrs(mod)
		s = p.tr.begin("opt")
		res := opt.Optimize(mod, core.DefaultConfig.Optimize)
		p.tr.end(s)
		k.optInstrs += irInstrs(mod)
		k.optRes.Inlined += res.Inlined
		k.optRes.ConstFolded += res.ConstFolded
		k.srcBytes += len(kp.src)
		kp.mod = mod
	}
	return nil
}

func irInstrs(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

func (k *kernels) start(p *phase) error {
	if p.tr != nil {
		k.vmStats, k.runs = vm.Stats{}, 0
		k.allocStart = totalAlloc()
	}
	return nil
}

func (k *kernels) run(p *phase, i int) error {
	pair := i % (len(k.progs) * len(k.reps))
	kp, rep := k.progs[pair/len(k.reps)], k.reps[pair%len(k.reps)]
	start := now()
	op := p.tr.op("kernels.run")
	s := p.tr.begin("vm")
	machine := vm.New(kp.mod, vm.Options{Mode: rep})
	v, err := machine.RunFunc("entry", vm.IntValue(kp.arg))
	p.tr.end(s)
	p.tr.end(op)
	p.record(kp.name+"/"+rep.String(), start, 1)
	if err == nil {
		if want := k.cfg.Refs.kernel(kp.name, kp.arg, k.lcg); v.I != want {
			err = fmt.Errorf("%s/%s(%d) = %d, want %d: %w", kp.name, rep, kp.arg, v.I, want, errMismatch)
		}
	} else {
		err = fmt.Errorf("%s/%s(%d): %w", kp.name, rep, kp.arg, err)
	}
	p.check(err)
	if p.tr != nil {
		addStats(&k.vmStats, machine.Stats)
		k.runs++
	}
	return nil
}

func addStats(dst *vm.Stats, s vm.Stats) {
	dst.Instrs += s.Instrs
	dst.Calls += s.Calls
	dst.Allocs += s.Allocs
	dst.BoxAllocs += s.BoxAllocs
	dst.ICHits += s.ICHits
	dst.ICMisses += s.ICMisses
	dst.Switches += s.Switches
	dst.ExternCalls += s.ExternCalls
	dst.TxCommits += s.TxCommits
	dst.TxAborts += s.TxAborts
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (k *kernels) finish(p *phase) error {
	if p.tr != nil {
		k.allocBytes = totalAlloc() - k.allocStart
	}
	return nil
}

func (k *kernels) extra(p *phase) error { return nil }

// named reports the geometric mean over the four kernels of the median run,
// per representation, on both clocks.
func (k *kernels) named(p *phase) []named {
	geo := func(times map[string][]float64, rep vm.RepMode) float64 {
		var meds []float64
		for _, kp := range k.progs {
			meds = append(meds, median(times[kp.name+"/"+rep.String()]))
		}
		return geomean(meds)
	}
	return []named{
		{"run_ms_geomean", "ms", geo(p.wall, vm.Unboxed)},
		{"boxed_run_ms_geomean", "ms", geo(p.wall, vm.Boxed)},
		{"run_cpu_ms_geomean", "ms", geo(p.cpu, vm.Unboxed)},
		{"boxed_run_cpu_ms_geomean", "ms", geo(p.cpu, vm.Boxed)},
	}
}

// layers reports the front end per load of all four kernels and the VM per
// kernel run.
func (k *kernels) layers(p *phase, rows []layerRow) map[string]float64 {
	runs := float64(k.runs)
	vmMs := perOp(rows, "kernels.run", "vm")
	parserMs := perOp(rows, "kernels.load", "parser")
	return map[string]float64{
		"parser.ms":                   parserMs,
		"parser.mb_per_s":             ratio(float64(k.srcBytes)/1e6, parserMs/1e3),
		"types.ms":                    perOp(rows, "kernels.load", "types"),
		"compiler.ms":                 perOp(rows, "kernels.load", "compiler"),
		"compiler.ir_instrs":          float64(k.compileInstrs),
		"opt.ms":                      perOp(rows, "kernels.load", "opt"),
		"opt.inlined":                 float64(k.optRes.Inlined),
		"opt.const_folded":            float64(k.optRes.ConstFolded),
		"opt.ir_instrs":               float64(k.optInstrs),
		"vm.ms":                       vmMs,
		"vm.instrs":                   float64(k.vmStats.Instrs) / runs,
		"vm.minstr_per_s":             ratio(float64(k.vmStats.Instrs)/runs/1e6, vmMs/1e3),
		"vm.calls":                    float64(k.vmStats.Calls) / runs,
		"vm.allocs":                   float64(k.vmStats.Allocs) / runs,
		"vm.box_allocs":               float64(k.vmStats.BoxAllocs) / runs,
		"vm.ic_hit_ratio":             ratio(float64(k.vmStats.ICHits), float64(k.vmStats.ICHits+k.vmStats.ICMisses)),
		"vm.go_alloc_bytes_per_instr": ratio(float64(k.allocBytes), float64(k.vmStats.Instrs)),
	}
}
