package bench

import (
	"fmt"
	"time"

	"bitc/internal/core"
	"bitc/internal/obs"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// runE1 prints fallacy 1 — the 1.5–2x cost of the uniform (boxed)
// representation "doesn't matter" — from one metricsE1 measurement.
func runE1(p Params) []*Table {
	doc, err := metricsE1(p, false)
	if err != nil {
		return []*Table{{ID: "E1", Title: "boxed vs unboxed execution", Notes: []string{err.Error()}}}
	}
	return []*Table{e1Table(doc)}
}

// e1Table renders a metricsE1 document: one row per kernel from its
// unboxed and boxed rows, then the geomean row.
func e1Table(doc *obs.MetricsDoc) *Table {
	t := &Table{
		ID: "E1", Title: "boxed vs unboxed execution",
		Claim:   "safe-language overhead lands in the 1.5-2x band the PL community waves away",
		Headers: []string{"workload", "n", "unboxed", "boxed", "ratio", "box allocs", "box reads", "dispatch", "elision"},
	}
	cell := func(d map[string]float64, key string) string {
		if med, ok := d[key]; ok {
			return spread{med, d[key+"Q1"], d[key+"Q3"]}.String()
		}
		return "-"
	}
	for i := 0; i < len(doc.Rows); i += 2 {
		un := doc.Rows[i]
		if un.Workload == "geomean" {
			t.AddRow(un.Workload, "-", "-", "-", "-", "-", "-",
				cell(un.Derived, "dispatchSpeedup"), cell(un.Derived, "boundsElisionSpeedup"))
			break
		}
		bx := doc.Rows[i+1]
		t.AddRow(un.Workload, un.N, time.Duration(un.WallNS), time.Duration(bx.WallNS),
			cell(bx.Derived, "boxedRatio"), bx.Counters.BoxAllocs, bx.Counters.BoxReads,
			cell(un.Derived, "dispatchSpeedup"), cell(un.Derived, "boundsElisionSpeedup"))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("compiled at %s; times are medians of %d interleaved repetitions; a ratio is the median of per-repetition ratios (interquartile range), n.s. when that range contains 1.0",
			doc.Rows[0].Opt, doc.Reps),
		"dispatch is switch over fused interpretation, elision checked over proof-elided execution; the boxed ratio is the factor the paper says systems programmers cannot concede")
	return t
}

// runE2 asks how much of that boxing a realistic escape-based unboxing pass
// recovers, and what residue remains (fallacy 2).
func runE2(p Params) []*Table {
	classify := &Table{
		ID: "E2a", Title: "escape analysis: where scalar values are pinned",
		Claim:   "boxing is only removable for values that never escape",
		Headers: []string{"workload", "scalar results", "unboxable", "escape:heap", "escape:call", "escape:ret", "residue %"},
	}
	speed := &Table{
		ID: "E2b", Title: "boxed execution with and without the unboxing pass",
		Headers: []string{"workload", "boxed naive", "boxed+unbox", "saved boxes", "residual boxes", "speedup"},
	}
	for _, w := range workloads() {
		prog, err := core.Load(w.name, w.src, core.Config{Optimize: opt.O2})
		if err != nil {
			classify.Notes = append(classify.Notes, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		bs := prog.Opt.Boxing
		res := 0.0
		if bs.ScalarResults > 0 {
			res = 100 * float64(bs.Boxed()) / float64(bs.ScalarResults)
		}
		classify.AddRow(w.name, bs.ScalarResults, bs.Unboxable,
			bs.EscapeHeap, bs.EscapeCall, bs.EscapeReturn, fmt.Sprintf("%.0f%%", res))

		arg := w.arg(p.Scale)
		var naive, unbox *vm.VM
		ns, err := timeRuns(p.Reps, false,
			entryRun(prog.Module, vm.Options{Mode: vm.Boxed}, arg, &naive),
			entryRun(prog.Module, vm.Options{Mode: vm.Boxed, RespectNoBox: true}, arg, &unbox))
		if err != nil {
			speed.Notes = append(speed.Notes, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		speed.AddRow(w.name, median(ns[0]), median(ns[1]),
			naive.Stats.BoxAllocs-unbox.Stats.BoxAllocs, unbox.Stats.BoxAllocs,
			spreadOf(ratios(ns[0], ns[1])).String())
	}
	speed.Notes = append(speed.Notes,
		"residual boxes stay non-zero: stores, calls, and returns pin the representation, as the paper argues")
	return []*Table{classify, speed}
}
