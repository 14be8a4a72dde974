package bench

import (
	"fmt"
	"time"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// runE8 executes the course slides' bank-transfer composition — the shape the
// paper's challenge 4 is about — unsynchronised, coarse-locked, and under
// STM, on the deterministic scheduler, and cross-checks each variant with
// the static lockset analysis.
func runE8(p Params) []*Table {
	dynamic := &Table{
		ID: "E8a", Title: "bank transfers under three disciplines (deterministic scheduler)",
		Claim:   "unsynchronised composition loses money; locks and STM preserve the invariant; STM composes without a lock order",
		Headers: []string{"discipline", "transfers", "final total", "invariant", "wall", "tx commits", "tx aborts", "ctx switches"},
	}
	static := &Table{
		ID: "E8b", Title: "static lockset verdicts for the same programs",
		Headers: []string{"discipline", "potential races"},
	}

	n := int64(1500 * p.Scale)
	for _, disc := range []string{"none", "coarse", "stm"} {
		src := bankSrc(disc, n)
		prog, err := core.Load("bank-"+disc, src, core.Config{Optimize: opt.O1})
		if err != nil {
			dynamic.Notes = append(dynamic.Notes, fmt.Sprintf("%s: %v", disc, err))
			continue
		}
		machine := vm.New(prog.Module, vm.Options{Seed: 1234, Quantum: 11})
		start := time.Now()
		val, rerr := machine.RunFunc("entry", vm.IntValue(n))
		wall := time.Since(start)
		if rerr != nil {
			dynamic.Notes = append(dynamic.Notes, fmt.Sprintf("%s: %v", disc, rerr))
			continue
		}
		invariant := "HELD"
		if val.I != 100000 {
			invariant = fmt.Sprintf("VIOLATED (%+d)", val.I-100000)
		}
		dynamic.AddRow(disc, 2*n, val.I, invariant, wall,
			machine.Stats.TxCommits, machine.Stats.TxAborts, machine.Stats.Switches)

		rep, err := prog.Analyze(analysis.Options{Enable: []string{"race"}})
		if err != nil {
			static.Notes = append(static.Notes, fmt.Sprintf("%s: %v", disc, err))
			continue
		}
		static.AddRow(disc, len(rep.Findings))
	}
	dynamic.Notes = append(dynamic.Notes,
		"the unsynchronised variant loses exactly the updates the scheduler tears; seeds reproduce it bit-for-bit",
		"STM pays aborts under contention but needs no global lock order — the composability the slides demand")
	static.Notes = append(static.Notes,
		"the lockset analysis flags only the unsynchronised variant: races are caught before running")
	return []*Table{dynamic, static}
}
