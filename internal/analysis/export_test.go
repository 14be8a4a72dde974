package analysis

import (
	"bitc/internal/ast"
	"bitc/internal/types"
)

// SharedAccesses runs the driver with a single probe analyzer that needs
// summaries and returns the fold's entry-reachable shared accesses: the
// accesses the race analyzer pairs, computed the way the driver computes
// them.
func SharedAccesses(prog *ast.Program, info *types.Info) []Access {
	var acs []Access
	probe := &Analyzer{Name: "probe", NeedsSummaries: true, Run: func(p *Pass) {
		acs = p.Summaries.SharedAccesses
	}}
	run(prog, info, Options{Parallelism: 1}, []*Analyzer{probe}, nil)
	return acs
}
