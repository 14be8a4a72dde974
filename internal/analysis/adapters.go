package analysis

import (
	"fmt"
	"sort"
	"strings"

	"bitc/internal/factstore"
	"bitc/internal/pointsto"
	"bitc/internal/source"
)

// The race analyzer reports the conflicting access pairs the interprocedural
// summary engine derives (see summary.go): Eraser-style lockset pairing over
// accesses reachable from entry points, with helper calls resolved through
// bottom-up summaries. The escape analyzer runs internal/pointsto's lifetime
// pass — a flow-sensitive check over each function's CFG, alias-aware
// through the Andersen points-to results. Races are whole-program (they need
// cross-function spawn reachability); lifetimes consume the shared points-to
// sets but check one function body at a time, so the escape analyzer fans
// out per function and the driver can cache and invalidate its
// findings per function.

// CodeRace is emitted for a lockset race between two shared accesses.
const CodeRace = "BITC-RACE001"

// CodeEscape is emitted when a region allocation may outlive its region.
const CodeEscape = "BITC-ESCAPE001"

// CodeUseAfterExit is emitted when a reference is dereferenced after its
// region's dynamic extent has definitely ended — the static twin of the
// VM's use-after-region-exit trap, so it is error severity.
const CodeUseAfterExit = "BITC-ESCAPE002"

// Access is one read or write of a shared location, as a summary records it.
type Access struct {
	Global  string // global variable holding the object
	Field   string
	Write   bool
	Span    factstore.RelSpan
	Func    string
	Lockset []string // sorted lock names (and "atomic") held at the access
	Spawned bool     // reachable from a spawn site (i.e. a non-main thread)
}

// Race is a pair of conflicting accesses with disjoint locksets.
type Race struct {
	Location string // global.field
	A, B     Access
}

// FindRaces pairs conflicting accesses: same location, at least one write,
// at least one from a spawned thread (or both from different spawned code),
// and disjoint locksets.
func FindRaces(accesses []Access) []Race {
	byLoc := map[string][]Access{}
	var locs []string
	for _, ac := range accesses {
		loc := ac.Global + "." + ac.Field
		if byLoc[loc] == nil {
			locs = append(locs, loc)
		}
		byLoc[loc] = append(byLoc[loc], ac)
	}
	sort.Strings(locs)
	var races []Race
	seen := map[string]bool{}
	for _, loc := range locs {
		acs := byLoc[loc]
		for i := 0; i < len(acs); i++ {
			for j := i; j < len(acs); j++ {
				x, y := acs[i], acs[j]
				if !x.Write && !y.Write {
					continue
				}
				// Concurrency requires at least one access on a spawned
				// thread, and if both are the same access it must be
				// self-parallel (spawned code can run in two instances).
				if !x.Spawned && !y.Spawned {
					continue
				}
				if disjoint(x.Lockset, y.Lockset) {
					key := loc + "|" + x.Func + "|" + y.Func
					if !seen[key] {
						seen[key] = true
						races = append(races, Race{Location: loc, A: x, B: y})
					}
				}
			}
		}
	}
	return races
}

func disjoint(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return false
			}
		}
	}
	return true
}

var raceAnalyzer = register(&Analyzer{
	Name:           "race",
	Doc:            "lockset analysis via bottom-up function summaries: shared fields accessed from concurrent threads with disjoint locksets",
	Code:           CodeRace,
	NeedsSummaries: true,
	Run: func(p *Pass) {
		for _, r := range p.Summaries.Races {
			p.Report(Finding{
				Code:     CodeRace,
				Severity: source.Warning,
				Span:     p.Abs(r.A.Span),
				Message: fmt.Sprintf("potential race on %s: %s in %s holds {%s}",
					r.Location, rw(r.A.Write), r.A.Func, strings.Join(r.A.Lockset, ",")),
				Related: []Related{{
					Span: p.Abs(r.B.Span),
					Message: fmt.Sprintf("conflicting %s in %s holds {%s}",
						rw(r.B.Write), r.B.Func, strings.Join(r.B.Lockset, ",")),
				}},
			})
		}
	},
})

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}

var escapeAnalyzer = register(&Analyzer{
	Name:          "escape",
	Doc:           "region lifetime analysis: values that may outlive their region (alias-aware), and uses after a region's extent definitely ended",
	Code:          CodeEscape,
	Codes:         []string{CodeEscape, CodeUseAfterExit},
	PerFunction:   true,
	NeedsCFG:      true,
	NeedsPointsTo: true,
	Run: func(p *Pass) {
		lt := pointsto.CheckFuncLifetimes(p.Info, p.PointsTo, p.Fn)
		for _, e := range lt.Escapes {
			f := Finding{
				Code:     CodeEscape,
				Severity: source.Warning,
				Span:     e.Span,
				Message: fmt.Sprintf("%s: value from region %s may escape: %s",
					e.Fn, e.Region, e.Reason),
			}
			if e.Alloc != nil && e.Alloc.Span.IsValid() && e.Alloc.Span != e.Span {
				f.Related = []Related{{
					Span:    e.Alloc.Span,
					Message: e.Alloc.Describe(),
				}}
			}
			p.Report(f)
		}
		for _, u := range lt.Uses {
			f := Finding{
				Code:     CodeUseAfterExit,
				Severity: source.Error,
				Span:     u.Span,
				Message: fmt.Sprintf("%s: use after region %s exited: this dereference traps at runtime",
					u.Fn, u.Region),
			}
			if u.Alloc != nil && u.Alloc.Span.IsValid() && u.Alloc.Span != u.Span {
				f.Related = []Related{{
					Span:    u.Alloc.Span,
					Message: u.Alloc.Describe(),
				}}
			}
			p.Report(f)
		}
	},
})
