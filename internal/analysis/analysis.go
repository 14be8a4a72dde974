// Package analysis is bitc's unified static-analysis driver: a small
// pass-manager in the go/analysis style that runs every registered checker
// over a type-checked program and collects findings into one report with
// stable lint codes, severities, and spans.
//
// The paper's challenge 1 (application constraint checking) and challenge 4
// (managing shared state) both argue that checking must be *integrated* —
// one harness, one diagnostics pipeline, machine-readable verdicts — rather
// than a pile of disconnected tools. Lockset races and region escapes are
// analyzers here like every other checker: one checker per property, one
// report format for all of them.
package analysis

import (
	"fmt"
	"sort"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/factstore"
	"bitc/internal/pointsto"
	"bitc/internal/source"
	"bitc/internal/types"
)

// Finding is one diagnostic produced by an analyzer. Code is a stable
// machine-readable lint code (e.g. BITC-RACE001) that CI can match on.
type Finding struct {
	Code     string
	Severity source.Severity
	Span     source.Span
	Message  string
	Analyzer string
	Related  []Related
}

// Related points at a second location that participates in a finding (the
// other access of a race, the reverse lock acquisition of a deadlock, ...).
// File names the file the span belongs to when it differs from the primary
// finding's file ("" means same file); renderers must include it so related
// locations stay meaningful in multi-file reports.
type Related struct {
	Span    source.Span
	Message string
	File    string
}

// Pass carries the inputs of one analyzer invocation and collects its
// findings. Each invocation gets its own Pass, so analyzers never need
// locking even though the driver runs them concurrently.
type Pass struct {
	Prog *ast.Program
	Info *types.Info
	// Fn is the function under analysis for per-function analyzers, nil for
	// whole-program analyzers.
	Fn *ast.DefineFunc
	// Summaries is the interprocedural summary set, populated by the driver
	// before any analyzer with NeedsSummaries runs.
	Summaries *Summaries
	// PointsTo is the whole-program Andersen analysis, populated by the
	// driver before any analyzer with NeedsPointsTo runs.
	PointsTo *pointsto.Result

	cfgs     map[*ast.DefineFunc]*cfg.Graph
	analyzer *Analyzer
	findings []Finding
}

// CFG returns the control-flow graph of fn (or of p.Fn when fn is nil). The
// driver prebuilds graphs for every function when a selected analyzer sets
// NeedsCFG; the graphs are shared read-only across concurrent passes.
func (p *Pass) CFG(fn *ast.DefineFunc) *cfg.Graph {
	if fn == nil {
		fn = p.Fn
	}
	return p.cfgs[fn]
}

// Abs resolves a summary fact's definition-relative span against the
// program under analysis. Analyzers call it when they report a fact.
func (p *Pass) Abs(r factstore.RelSpan) source.Span {
	return p.Summaries.ix.Abs(r)
}

// Report appends a finding, stamping the analyzer name.
func (p *Pass) Report(f Finding) {
	f.Analyzer = p.analyzer.Name
	if f.Code == "" {
		f.Code = p.analyzer.Code
	}
	p.findings = append(p.findings, f)
}

// Reportf formats and appends a finding under the given code.
func (p *Pass) Reportf(code string, sev source.Severity, span source.Span, format string, args ...any) {
	p.Report(Finding{Code: code, Severity: sev, Span: span, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one static checker. PerFunction analyzers are invoked once per
// top-level function (and may run concurrently across functions);
// whole-program analyzers are invoked once with Fn == nil.
type Analyzer struct {
	Name string // short identifier used by -enable/-disable
	Doc  string // one-line description
	Code string // primary lint code (analyzers may emit further codes)
	// Codes lists every lint code this analyzer can emit, for help output.
	Codes       []string
	PerFunction bool
	// NeedsCFG asks the driver to prebuild per-function control-flow graphs
	// before this analyzer runs; NeedsSummaries asks for the interprocedural
	// function summaries (computed bottom-up over call-graph SCCs);
	// NeedsPointsTo asks for the whole-program Andersen points-to analysis
	// (which the summaries also consume for alias-aware shared accesses).
	// All are computed once per driver run and shared by every dependent
	// pass.
	NeedsCFG       bool
	NeedsSummaries bool
	NeedsPointsTo  bool
	Run            func(*Pass)
}

// registry holds every known analyzer in registration order.
var registry []*Analyzer

func register(a *Analyzer) *Analyzer {
	if len(a.Codes) == 0 {
		a.Codes = []string{a.Code}
	}
	registry = append(registry, a)
	return a
}

// Registry returns all registered analyzers sorted by name.
func Registry() []*Analyzer {
	out := append([]*Analyzer(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName looks up a registered analyzer.
func ByName(name string) *Analyzer {
	for _, a := range registry {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// SortFindings orders findings deterministically: by span start, span end,
// code, then message. The parallel driver relies on this to produce output
// byte-identical to a sequential run regardless of scheduling.
func SortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Span.Start != b.Span.Start {
			return a.Span.Start < b.Span.Start
		}
		if a.Span.End != b.Span.End {
			return a.Span.End < b.Span.End
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		return a.Message < b.Message
	})
}
