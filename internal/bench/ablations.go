package bench

import (
	"fmt"
	"time"

	"bitc/internal/alloc"
	"bitc/internal/core"
	"bitc/internal/heap"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// Ablations returns the design-choice sweeps (A1–A4): parameters the main
// experiments hold fixed, varied here to show why the chosen defaults are
// where they are.
func Ablations() []Experiment {
	return []Experiment{
		{ID: "A1", Title: "malloc coalescing cadence",
			Claim: "coalescing frequency trades average throughput against the latency tail",
			Run:   runA1},
		{ID: "A2", Title: "generational nursery size",
			Claim: "bigger nurseries mean fewer but longer minor pauses",
			Run:   runA2},
		{ID: "A3", Title: "STM contention vs scheduler quantum",
			Claim: "shorter quanta mean more interleaving and more aborts",
			Run:   runA3},
		{ID: "A4", Title: "optimiser levels",
			Claim: "each pass tier pays for itself on the standard kernels",
			Run:   runA4},
	}
}

// AllWithAblations returns E1–E8 followed by A1–A4.
func AllWithAblations() []Experiment {
	return append(All(), Ablations()...)
}

func runA1(p Params) []*Table {
	t := &Table{
		ID: "A1", Title: "freelist coalescing cadence (same trace as E6)",
		Headers: []string{"coalesce every", "wall", "work p50", "work p99", "work max", "OOM?"},
	}
	nAllocs := 30000 * p.Scale
	window := 256
	for _, every := range []int{0, 16, 64, 256} {
		f := alloc.NewFreeList(1 << 23)
		f.CoalesceEvery = every
		live := make([]heap.Addr, 0, window+1)
		oom := "no"
		start := time.Now()
		for i := 0; i < nAllocs; i++ {
			a, err := f.Alloc(0, 16+(i*37)%144)
			if err != nil {
				oom = fmt.Sprintf("at %d", i)
				break
			}
			if i%64 == 0 {
				continue
			}
			live = append(live, a)
			if len(live) > window {
				victim := (i * 31) % len(live)
				if err := f.Free(live[victim]); err != nil {
					oom = err.Error()
					break
				}
				live[victim] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		wall := time.Since(start)
		label := fmt.Sprint(every)
		if every == 0 {
			label = "never"
		}
		st := f.Stats()
		t.AddRow(label, wall, percentile(st.WorkPerOp, 50), percentile(st.WorkPerOp, 99),
			percentile(st.WorkPerOp, 100), oom)
	}
	t.Notes = append(t.Notes,
		"frequent coalescing flattens nothing (spikes just come sooner); never coalescing defers the cost to allocation-failure recovery")
	return []*Table{t}
}

func runA2(p Params) []*Table {
	t := &Table{
		ID: "A2", Title: "nursery size sweep on the E6 trace",
		Headers: []string{"nursery", "minor GCs", "minor max pause", "major GCs", "bytes copied"},
	}
	nAllocs := 30000 * p.Scale
	window := 256
	for _, nursery := range []int{1 << 14, 1 << 16, 1 << 18} {
		roots := &alloc.Roots{}
		g := alloc.NewGenerational(1<<23, nursery, roots)
		slots := make([]heap.Addr, window)
		perm := make([]heap.Addr, 0, nAllocs/64+1)
		for i := range slots {
			roots.Add(&slots[i])
		}
		ok := true
		for i := 0; i < nAllocs; i++ {
			obj, err := g.Alloc(0, 16+(i*37)%144)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("nursery %d: %v", nursery, err))
				ok = false
				break
			}
			if i%64 == 0 {
				perm = append(perm, heap.Nil)
				s := &perm[len(perm)-1]
				roots.Add(s)
				*s = obj
				continue
			}
			slots[i%window] = obj
		}
		if !ok {
			continue
		}
		var minorMax time.Duration
		for _, d := range g.MinorPauses {
			if d > minorMax {
				minorMax = d
			}
		}
		t.AddRow(fmt.Sprintf("%d KB", nursery/1024), len(g.MinorPauses), minorMax,
			len(g.MajorPauses), g.Stats().BytesCopied)
	}
	return []*Table{t}
}

func runA3(p Params) []*Table {
	t := &Table{
		ID: "A3", Title: "STM aborts vs scheduler quantum (bank workload)",
		Headers: []string{"quantum", "commits", "aborts", "abort rate", "invariant"},
	}
	n := int64(800 * p.Scale)
	src := bankSrc("stm", n)
	prog, err := core.Load("bank-stm", src, core.Config{Optimize: opt.O1})
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return []*Table{t}
	}
	for _, quantum := range []int{4, 16, 64, 256} {
		machine := vm.New(prog.Module, vm.Options{Seed: 5, Quantum: quantum})
		val, rerr := machine.RunFunc("entry", vm.IntValue(n))
		if rerr != nil {
			t.Notes = append(t.Notes, rerr.Error())
			continue
		}
		rate := 0.0
		if machine.Stats.TxCommits+machine.Stats.TxAborts > 0 {
			rate = 100 * float64(machine.Stats.TxAborts) /
				float64(machine.Stats.TxCommits+machine.Stats.TxAborts)
		}
		inv := "HELD"
		if val.I != 100000 {
			inv = "VIOLATED"
		}
		t.AddRow(quantum, machine.Stats.TxCommits, machine.Stats.TxAborts,
			fmt.Sprintf("%.1f%%", rate), inv)
	}
	t.Notes = append(t.Notes,
		"the invariant holds at every quantum; only the abort cost moves — optimistic concurrency degrades gracefully")
	return []*Table{t}
}

func runA4(p Params) []*Table {
	t := &Table{
		ID: "A4", Title: "optimiser tiers on the standard kernels",
		Headers: []string{"workload", "O0 instrs", "O1 instrs", "O2 instrs", "O0 time", "O2 time", "speedup"},
	}
	levels := []opt.Level{opt.O0, opt.O1, opt.O2}
kernels:
	for _, w := range workloads() {
		arg := w.arg(p.Scale)
		machines := make([]*vm.VM, len(levels))
		runs := make([]func() error, len(levels))
		for i, lvl := range levels {
			prog, err := core.Load(w.name, w.src, core.Config{Optimize: lvl})
			if err != nil {
				t.Notes = append(t.Notes, err.Error())
				continue kernels
			}
			runs[i] = entryRun(prog.Module, vm.Options{}, arg, &machines[i])
		}
		ns, err := timeRuns(p.Reps, false, runs...)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			continue
		}
		t.AddRow(w.name, machines[0].Stats.Instrs, machines[1].Stats.Instrs, machines[2].Stats.Instrs,
			median(ns[0]), median(ns[2]),
			spreadOf(ratios(ns[0], ns[2])).String())
	}
	return []*Table{t}
}
