package analysis

import (
	"sort"

	"bitc/internal/ast"
)

// CallGraph records which defined functions call which others. Calls are
// collected from everywhere in a function body, including lambda and spawn
// bodies (the closure may run later, but the callee relationship holds for
// summary purposes). Only calls to functions defined in the program appear;
// builtins are ignored.
type CallGraph struct {
	Funcs map[string]*ast.DefineFunc
	Names []string // sorted function names
	// Callees[f] lists the defined functions f calls, sorted, deduplicated.
	Callees map[string][]string
	// CalledByOther[f] reports that some function other than f calls f
	// (self-recursion does not count); the complement set is the entry
	// points the race analysis walks.
	CalledByOther map[string]bool
}

// NewCallGraphFromCallees builds a call graph without walking any AST:
// calleesOf returns, for each defined function's name, the call heads
// observed in its body (unsorted and unfiltered — the function's traits).
// Heads that are not defined functions are dropped.
func NewCallGraphFromCallees(prog *ast.Program, calleesOf func(name string) []string) *CallGraph {
	g := &CallGraph{
		Funcs:         make(map[string]*ast.DefineFunc, len(prog.Defs)),
		Callees:       make(map[string][]string, len(prog.Defs)),
		CalledByOther: make(map[string]bool, len(prog.Defs)),
	}
	g.Names = make([]string, 0, len(prog.Defs))
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			g.Funcs[fn.Name] = fn
			g.Names = append(g.Names, fn.Name)
		}
	}
	sort.Strings(g.Names)
	for _, name := range g.Names {
		// Callee lists are short; a linear dedup scan beats a per-function
		// map on the warm path.
		var list []string
		for _, callee := range calleesOf(name) {
			if g.Funcs[callee] == nil {
				continue
			}
			dup := false
			for _, x := range list {
				if x == callee {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			list = append(list, callee)
			if callee != name {
				g.CalledByOther[callee] = true
			}
		}
		if len(list) > 0 {
			sort.Strings(list)
			g.Callees[name] = list
		}
	}
	return g
}

// SCCs returns the strongly connected components of the call graph in
// bottom-up (reverse topological) order: every callee SCC precedes its
// callers, so summaries computed in this order only depend on finished ones
// — except within an SCC, where the summary engine iterates to a fixpoint.
// The result is deterministic: roots are visited in sorted name order.
func (g *CallGraph) SCCs() [][]string {
	// Tarjan's algorithm over integer node ids (one name→id map, flat
	// visit-state arrays); components pop in reverse topological order of
	// the condensation because a caller's component cannot complete before
	// its callees' components have been emitted.
	n := len(g.Names)
	idx := make(map[string]int32, n)
	for i, name := range g.Names {
		idx[name] = int32(i)
	}
	index := make([]int32, n) // 1-based visit order; 0 = unvisited
	low := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	var sccs [][]string
	next := int32(0)

	var strongconnect func(v int32)
	strongconnect = func(v int32) {
		next++
		index[v] = next
		low[v] = next
		stack = append(stack, v)
		onStack[v] = true
		for _, cname := range g.Callees[g.Names[v]] {
			w := idx[cname]
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, g.Names[w])
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	for v := int32(0); v < int32(n); v++ {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return sccs
}
