package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bitc/internal/source"
)

// The atomicity analyzer is the static twin of the VM's STM runtime (see
// internal/vm/stm.go) and of the host-side two-phase commit the sharded
// service runs over it (internal/serve). It consumes only the whole-program
// aggregates the summary engine derives — SharedAccesses, AtomicEffects,
// NestedAtomics, RetryLoops, LockEdges — never a per-function summary
// directly: the aggregates are exactly the facts the driver folds and caches
// whole.
//
//   - BITC-ATOM001: a shared location is managed by atomic regions somewhere
//     in the program, but a write reaches it outside any atomic. The bare
//     write bumps the object version under concurrent optimistic readers —
//     a lost update the STM cannot detect on the bare side.
//   - BITC-ATOM002 (error): an irreversible effect — extern/FFI call,
//     observable I/O, channel operation, spawn — is reachable inside an
//     atomic region. Externs and I/O re-execute every time the transaction
//     retries and cannot be rolled back on abort; channel ops and spawns
//     trap outright. Verified against the VM by a forced-retry agreement
//     test (vm.ForceAtomicRetries).
//   - BITC-ATOM003: lock acquisitions within one indexed family (shard0,
//     shard7, …) violate the ascending-index discipline the 2PC coordinator
//     relies on for deadlock freedom: prepare in ascending order and two
//     coordinators can never hold-and-wait on each other.
//   - BITC-ATOM004: nested atomic entries (the inner commit is flattened —
//     an abort rolls back the whole nest) and atomics retried by an
//     unbounded loop over shared state (application-level livelock on top
//     of the STM's own retry; the coordinator's bounded backoff is the
//     pattern to copy).

// Atomicity lint codes.
const (
	CodeAtomShared  = "BITC-ATOM001"
	CodeAtomEffect  = "BITC-ATOM002"
	CodeAtomPrepare = "BITC-ATOM003"
	CodeAtomNested  = "BITC-ATOM004"
)

var atomicityAnalyzer = register(&Analyzer{
	Name: "atomicity",
	Doc:  "transaction safety: shared writes bypassing atomic regions, irreversible effects under STM retry, 2PC ascending-prepare discipline, nested-atomic and unbounded-retry hazards",
	Code: CodeAtomShared,
	Codes: []string{
		CodeAtomShared, CodeAtomEffect, CodeAtomPrepare, CodeAtomNested,
	},
	NeedsSummaries: true,
	Run:            runAtomicity,
})

func runAtomicity(p *Pass) {
	reportBareWrites(p)
	reportAtomicEffects(p)
	reportPrepareOrder(p)
	reportNestingAndRetries(p)
}

// reportBareWrites flags ATOM001: writes to an atomically-managed shared
// location whose lockset does not contain the "atomic" pseudo-lock.
func reportBareWrites(p *Pass) {
	type loc struct {
		atomicSpan source.Span // first atomic access, for the related span
		atomicFn   string
	}
	managed := map[string]*loc{}
	var keys []string
	for _, ac := range p.Summaries.SharedAccesses {
		if !hasLock(ac.Lockset, "atomic") {
			continue
		}
		key := ac.Global + "." + ac.Field
		if managed[key] == nil {
			managed[key] = &loc{atomicSpan: p.Abs(ac.Span), atomicFn: ac.Func}
			keys = append(keys, key)
		}
	}
	if len(managed) == 0 {
		return
	}
	sort.Strings(keys)

	// One finding per (location, bare-write site): the same span may appear
	// with several locksets through different call chains.
	reported := map[string]bool{}
	for _, key := range keys {
		m := managed[key]
		var bare []struct {
			span source.Span
			fn   string
			ls   []string
		}
		for _, ac := range p.Summaries.SharedAccesses {
			if !ac.Write || ac.Global+"."+ac.Field != key || hasLock(ac.Lockset, "atomic") {
				continue
			}
			span := p.Abs(ac.Span)
			rk := key + "|" + strconv.Itoa(int(span.Start))
			if reported[rk] {
				continue
			}
			reported[rk] = true
			bare = append(bare, struct {
				span source.Span
				fn   string
				ls   []string
			}{span, ac.Func, ac.Lockset})
		}
		sort.Slice(bare, func(i, j int) bool { return bare[i].span.Start < bare[j].span.Start })
		for _, w := range bare {
			held := "no locks"
			if len(w.ls) > 0 {
				held = "{" + strings.Join(w.ls, ",") + "}"
			}
			p.Report(Finding{
				Code:     CodeAtomShared,
				Severity: source.Warning,
				Span:     w.span,
				Message: fmt.Sprintf("shared %s written outside any atomic region in %s (holds %s): concurrent atomics on this location can lose the update",
					key, w.fn, held),
				Related: []Related{{
					Span:    m.atomicSpan,
					Message: fmt.Sprintf("%s is managed atomically here, in %s", key, m.atomicFn),
				}},
			})
		}
	}
}

// reportAtomicEffects flags ATOM002 for every irreversible effect reachable
// inside an atomic region.
func reportAtomicEffects(p *Pass) {
	for _, e := range p.Summaries.AtomicEffects {
		var msg string
		switch e.Kind {
		case "extern":
			msg = fmt.Sprintf("extern %s reachable inside an atomic region in %s: the foreign side effect re-executes on every STM retry and cannot be rolled back",
				e.Name, e.Fn)
		case "io":
			msg = fmt.Sprintf("observable I/O (%s) reachable inside an atomic region in %s: output re-executes on every STM retry and cannot be rolled back",
				e.Name, e.Fn)
		case "spawn":
			msg = fmt.Sprintf("spawn reachable inside an atomic region in %s: thread creation cannot be rolled back (the VM traps here)", e.Fn)
		default: // send, recv, join
			msg = fmt.Sprintf("channel/thread operation %s reachable inside an atomic region in %s: it cannot be rolled back (the VM traps here)",
				e.Name, e.Fn)
		}
		p.Reportf(CodeAtomEffect, source.Error, p.Abs(e.Span), "%s", msg)
	}
}

// reportPrepareOrder flags ATOM003: within one indexed lock family, an
// acquisition edge from a higher index to a lower one breaks the ascending
// discipline. Unlike BITC-DLOCK001 this fires on a single descending pair —
// the coordinator protocol requires the global order even before a reverse
// path exists to close a cycle.
func reportPrepareOrder(p *Pass) {
	edges := p.Summaries.LockEdges
	for _, a := range sortedEdgeKeys(edges) {
		famA, idxA, ok := lockFamily(a)
		if !ok {
			continue
		}
		outs := edges[a]
		for _, b := range sortedKeys(outs) {
			famB, idxB, ok := lockFamily(b)
			if !ok || famA != famB || idxA <= idxB {
				continue
			}
			site := outs[b]
			p.Report(Finding{
				Code:     CodeAtomPrepare,
				Severity: source.Warning,
				Span:     p.Abs(site.Span),
				Message: fmt.Sprintf("%s acquired while %s is held in %s: descending %s-index acquisition breaks the ascending-prepare discipline two-phase commit relies on for deadlock freedom",
					b, a, site.Fn, famA),
			})
		}
	}
}

// reportNestingAndRetries flags ATOM004 hazards.
func reportNestingAndRetries(p *Pass) {
	for _, a := range p.Summaries.NestedAtomics {
		p.Reportf(CodeAtomNested, source.Warning, p.Abs(a.Span),
			"atomic region in %s entered while another atomic is already open: nesting flattens into one transaction, so an inner conflict rolls back and re-runs the whole nest", a.Fn)
	}
	for _, r := range p.Summaries.RetryLoops {
		p.Reportf(CodeAtomNested, source.Warning, p.Abs(r.Span),
			"atomic region in %s retried by an unbounded loop over shared %s: no retry budget bounds the combined STM + application retries (add a bounded backoff like the 2PC coordinator's)", r.Fn, r.Cond)
	}
}

func hasLock(ls []string, name string) bool {
	for _, l := range ls {
		if l == name {
			return true
		}
	}
	return false
}

// lockFamily splits an indexed lock name into its family prefix and decimal
// index: "shard12" → ("shard", 12, true). Names without a trailing index
// have no family ordering and never participate in ATOM003.
func lockFamily(name string) (string, int, bool) {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) || i == 0 {
		return "", 0, false
	}
	idx, err := strconv.Atoi(name[i:])
	if err != nil {
		return "", 0, false
	}
	return name[:i], idx, true
}
