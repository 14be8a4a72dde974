package analysis

import (
	"fmt"
	"sort"

	"bitc/internal/source"
)

// The deadlock analyzer reports lock *ordering* violations from the summary
// engine's whole-program lock graph (see summary.go): an edge a→b exists
// wherever lock b is acquired while a is held — including through any chain
// of helper calls, since call sites instantiate the callee's acquisition
// summary. It reports every pair of locks reachable from each other — the
// classic ABBA inversion — and every re-acquisition of a lock already held
// (self-deadlock for the non-reentrant locks the VM provides).

// Deadlock lint codes.
const (
	CodeLockOrder = "BITC-DLOCK001" // inconsistent lock acquisition order
	CodeLockSelf  = "BITC-DLOCK002" // lock acquired while already held
)

var deadlockAnalyzer = register(&Analyzer{
	Name:           "deadlock",
	Doc:            "lock-order graph with cycle detection (ABBA inversions, re-entrant acquisition), interprocedural via function summaries",
	Code:           CodeLockOrder,
	Codes:          []string{CodeLockOrder, CodeLockSelf},
	NeedsSummaries: true,
	Run:            runDeadlock,
})

func runDeadlock(p *Pass) {
	edges := p.Summaries.LockEdges
	self := p.Summaries.LockSelf

	// Re-acquisition findings first (they are also trivial cycles, and the
	// a→a edge never enters the inversion pass below).
	selfLocks := make([]string, 0, len(self))
	for lock := range self {
		selfLocks = append(selfLocks, lock)
	}
	sort.Strings(selfLocks)
	for _, lock := range selfLocks {
		e := self[lock]
		p.Reportf(CodeLockSelf, source.Error, p.Abs(e.Span),
			"lock %s acquired in %s while already held (non-reentrant: self-deadlock)", lock, e.Fn)
	}

	// Reachability closure over the edge graph, then report each unordered
	// pair {a,b} with paths both ways exactly once.
	locks := make([]string, 0, len(edges))
	seen := map[string]bool{}
	for a, outs := range edges {
		if !seen[a] {
			seen[a] = true
			locks = append(locks, a)
		}
		for b := range outs {
			if !seen[b] {
				seen[b] = true
				locks = append(locks, b)
			}
		}
	}
	sort.Strings(locks)
	reach := map[string]map[string]bool{}
	for _, a := range locks {
		reach[a] = map[string]bool{}
		for b := range edges[a] {
			reach[a][b] = true
		}
	}
	for _, k := range locks {
		for _, i := range locks {
			if !reach[i][k] {
				continue
			}
			for _, j := range locks {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	for i, a := range locks {
		for _, b := range locks[i+1:] {
			if reach[a][b] && reach[b][a] {
				fwd, rev := firstEdgeOnCycle(edges, a, b), firstEdgeOnCycle(edges, b, a)
				p.Report(Finding{
					Code:     CodeLockOrder,
					Severity: source.Warning,
					Span:     p.Abs(fwd.Span),
					Message: fmt.Sprintf("locks %s and %s are acquired in inconsistent order (possible deadlock); %s-then-%s in %s",
						a, b, a, b, fwd.Fn),
					Related: []Related{{
						Span:    p.Abs(rev.Span),
						Message: fmt.Sprintf("%s-then-%s in %s", b, a, rev.Fn),
					}},
				})
			}
		}
	}
}

// firstEdgeOnCycle returns the recorded site of the a→b edge, or, when the
// path is indirect, the first outgoing edge of a on some path to b.
func firstEdgeOnCycle(edges map[string]map[string]LockSite, a, b string) LockSite {
	if e, ok := edges[a][b]; ok {
		return e
	}
	// BFS for a path a→…→b, preferring deterministic (sorted) expansion.
	type node struct {
		lock  string
		first *LockSite
	}
	queue := []node{{lock: a}}
	visited := map[string]bool{a: true}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		outs := make([]string, 0, len(edges[n.lock]))
		for next := range edges[n.lock] {
			outs = append(outs, next)
		}
		sort.Strings(outs)
		for _, next := range outs {
			e := edges[n.lock][next]
			first := n.first
			if first == nil {
				first = &e
			}
			if next == b {
				return *first
			}
			if !visited[next] {
				visited[next] = true
				queue = append(queue, node{lock: next, first: first})
			}
		}
	}
	return LockSite{}
}
