package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/factstore"
	"bitc/internal/pointsto"
	"bitc/internal/source"
	"bitc/internal/types"
)

// The analysis driver. RunWithStore is the only driver body: Run calls it
// with a nil store. Given a store, it pulls per-function facts (syntactic
// traits, bottom-up summaries, per-function findings) from the
// content-hashed fact cache and recomputes only what an edit actually
// invalidated. Without one, every probe misses, no content key is hashed,
// no flow component is built, and every function and SCC is recomputed
// through the same code.
//
// The key scheme, bottom of this file's pyramid first:
//
//   funcKey(f)    sha256 of f's raw source slice. Any textual edit to f
//                 changes it; moving f inside the file does not.
//   typesSig      hash of every non-function definition's raw text (structs,
//                 unions, globals, externals) plus the file name — the type
//                 environment every function is checked against.
//   envSig(f)     typesSig plus, for every name f references, what that name
//                 is (defined function with a given type scheme, global,
//                 constructor, external, or unknown). Catches edits that
//                 change f's meaning without touching f's text, e.g.
//                 deleting a callee so the call head becomes unknown.
//   compKey(c)    identity of a points-to flow component: typesSig plus
//                 every member function's funcKey and every member global's
//                 raw hash. Pins the exact constraint slice the demand
//                 solver would generate for the component (see
//                 pointsto.BuildComponents for why slicing is exact).
//   sccSig(s)     identity of a call-graph SCC for the summary engine: each
//                 member's funcKey, envSig, and compKey, plus the
//                 summaryKeys of every out-of-SCC callee — so invalidation
//                 propagates bottom-up through the call graph, and a caller
//                 is dirty whenever anything its summary was built from is.
//   summaryKey(f) sccSig of f's SCC, salted with f's name.
//   bundleKey(f)  per function, for the per-function finding bundle: the
//                 selected cacheable analyzers, funcKey, and envSig, plus
//                 f's compKey when any of them consumes points-to facts.
//                 All selected per-function analyzers' findings for f are
//                 cached as one entry — probing is one lookup per function
//                 instead of one per (analyzer, function) pair, which is
//                 what keeps a warm no-op probe cheap at 100k functions.
//   aggKey        early cutoff for the whole-program aggregation fold: every
//                 function's name, summary value hash (effectsVHash), and
//                 entry-point bit, in definition order. An edit that
//                 recomputes some summaries to unchanged values reuses the
//                 folded lock order and race set wholesale.
//
// Derived keys are built by concatenating already-hashed 32-byte components
// with \x00-separated tags; only leaf content (source slices, free-name
// environments, component membership, SCC signatures) goes through SHA-256.
//
// Cached facts never store absolute source offsets, so whitespace above a
// function invalidates nothing. Summaries (*FuncEffects) and the
// whole-program fold (*Fold) are stored exactly as computed: the summary
// builder records every span relative to its enclosing top-level definition
// (factstore.RelSpan), and analyzers resolve spans only when they report.
// Per-function finding bundles and bounds proofs hold absolute spans in
// their live form, so they alone are converted on the way in and out.
//
// Whole-program analyzers (race, deadlock, ffi) re-run every time, but the
// expensive substrate they stand on — points-to sets and bottom-up
// summaries — is sliced and cached, so their rerun is a cheap fold.

// RunWithStore executes the selected analyzers over a checked program,
// using store as a fact cache across calls. Per-function analyzers fan out
// one task per function on a bounded worker pool; each task writes into its
// own pre-assigned result slot and the merged findings are sorted, so the
// report does not depend on scheduling or on what the store held. A nil
// store caches nothing. The store may be shared across programs; keys are
// content-addressed, so cross-program collisions are impossible and
// cross-edit sharing is automatic.
func RunWithStore(prog *ast.Program, info *types.Info, opts Options, store *factstore.Store) (*Report, error) {
	selected, err := opts.Selected()
	if err != nil {
		return nil, err
	}
	return run(prog, info, opts, selected, store), nil
}

// run is RunWithStore over an already resolved analyzer selection.
func run(prog *ast.Program, info *types.Info, opts Options, selected []*Analyzer, store *factstore.Store) *Report {
	store.BeginRun()

	var funcs []*ast.DefineFunc
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			funcs = append(funcs, fn)
		}
	}

	// CFGs are shared read-only by every flow-sensitive pass, the points-to
	// analysis is built over them, and the summaries resolve aliased shared
	// accesses through the points-to sets; all of it is built before the
	// pool starts.
	needCFG, needPts, needSums := false, false, false
	for _, a := range selected {
		needCFG = needCFG || a.NeedsCFG
		needPts = needPts || a.NeedsPointsTo
		needSums = needSums || a.NeedsSummaries
	}
	needCFG = needCFG || needPts || needSums
	needPts = needPts || needSums

	k := buildKeys(prog, info, store, funcs, needSums || needPts)

	// Lay out result slots (selection order; a per-function analyzer owns
	// len(funcs) consecutive slots), then split the per-function analyzers
	// into the bundled cacheable set and the always-run remainder. A
	// per-function analyzer that consumed whole-program summaries would be
	// unsound to cache per function; none exists, but fail open if one
	// appears.
	nslots := 0
	baseSlot := make([]int, len(selected))
	var bundleBase []int // first slot of each bundled analyzer
	var bundleNames []string
	bundlePts, alwaysFn := false, false
	for i, a := range selected {
		baseSlot[i] = nslots
		if !a.PerFunction {
			nslots++
			continue
		}
		nslots += len(funcs)
		if a.NeedsSummaries {
			alwaysFn = true
		} else {
			bundleBase = append(bundleBase, baseSlot[i])
			bundlePts = bundlePts || a.NeedsPointsTo
			bundleNames = append(bundleNames, a.Name)
		}
	}
	results := make([][]Finding, nslots)
	bundleSig := strings.Join(bundleNames, ",")

	// Probe the per-function finding bundles. A hit fills every bundled
	// analyzer's slot for that function; a miss leaves them to the pool. A
	// missed function whose bundle embeds points-to facts drags its whole
	// flow component into the demand slice (ptsDirty); any miss forces that
	// function's CFG (cfgDirty). Without a store there is nothing to probe,
	// so no key is built and every function misses.
	ptsDirty := make([]bool, len(funcs))
	cfgDirty := make([]bool, len(funcs))
	anyPtsDirty := false
	missed := make([]bool, len(funcs))
	missKey := make([]string, len(funcs))
	for fi := range funcs {
		if alwaysFn {
			ptsDirty[fi], cfgDirty[fi], anyPtsDirty = true, true, true
		}
		if len(bundleBase) == 0 {
			continue
		}
		var key string
		if store != nil {
			key = "fb\x00" + bundleSig + "\x00" + k.funcKey[fi] + k.envSig[fi]
			if bundlePts {
				key += k.compKey[k.fnComp[fi]]
			}
		}
		if v, ok := store.Get(key); ok {
			cb := v.(*cachedBundle)
			for ai, base := range bundleBase {
				results[base+fi] = decodeFindings(k.ix, cb.ByAnalyzer[ai])
			}
			continue
		}
		missed[fi], missKey[fi] = true, key
		if bundlePts {
			ptsDirty[fi], anyPtsDirty = true, true
		}
		cfgDirty[fi] = true
	}

	// Queue the remaining work in slot order, one analyzer's functions after
	// another's: on the driver benchmark, workers running one analyzer side
	// by side finished sooner than workers splitting one function's
	// analyzers.
	var pending []task
	for i, a := range selected {
		if !a.PerFunction {
			pending = append(pending, task{analyzer: a, slot: baseSlot[i]})
			continue
		}
		for fi, fn := range funcs {
			if a.NeedsSummaries || missed[fi] {
				pending = append(pending, task{analyzer: a, fn: fn, slot: baseSlot[i] + fi})
			}
		}
	}

	// Probe the summary caches bottom-up. A miss anywhere in an SCC dirties
	// the whole SCC (the fixpoint recomputes all members together) and pulls
	// its members into the points-to slice. A hit is the summary exactly as
	// it was computed: its spans are definition-relative, so it needs no
	// conversion however far its definition moved.
	var sums []*FuncEffects // by function index
	var dirtySCCs [][]string
	if needSums {
		sums = make([]*FuncEffects, len(funcs))
		for _, scc := range k.sccOrder {
			missed := false
			for _, m := range scc {
				mi := k.fnIndex[m]
				if v, ok := store.Get(k.sumKey[mi]); ok {
					sums[mi] = v.(*FuncEffects)
				} else {
					missed = true
				}
			}
			if missed {
				dirtySCCs = append(dirtySCCs, scc)
				for _, m := range scc {
					mi := k.fnIndex[m]
					ptsDirty[mi] = true
					anyPtsDirty = true
					cfgDirty[mi] = true
				}
			}
		}
	}

	// Demand points-to over the dirty components only. The slice must be a
	// union of whole components for the restricted fixpoint to be exact.
	// Without a store there are no components: they exist to key facts and
	// slice the solve, and with every function dirty the slice would be the
	// whole program, so the whole program is solved directly.
	var cfgs map[*ast.DefineFunc]*cfg.Graph
	var pts *pointsto.Result
	if needCFG {
		cfgs = make(map[*ast.DefineFunc]*cfg.Graph)
	}
	if needPts && anyPtsDirty && k.comps == nil {
		for _, fn := range funcs {
			cfgs[fn] = cfg.Build(fn)
		}
		pts = pointsto.Analyze(prog, info, cfgs)
	} else if needPts && anyPtsDirty {
		compSet := map[int]bool{}
		for fi := range funcs {
			if ptsDirty[fi] && k.fnComp[fi] >= 0 {
				compSet[k.fnComp[fi]] = true
			}
		}
		sliceFns := map[string]bool{}
		sliceGlobals := map[string]bool{}
		for id := range compSet {
			for _, m := range k.comps.FuncMembers(id) {
				sliceFns[m] = true
			}
			for _, g := range k.comps.GlobalMembers(id) {
				sliceGlobals[g] = true
			}
		}
		for _, fn := range funcs {
			if sliceFns[fn.Name] {
				cfgs[fn] = cfg.Build(fn)
			}
		}
		pts = pointsto.AnalyzeDemand(prog, info, cfgs, sliceFns, sliceGlobals)
	}
	if needCFG {
		for fi, fn := range funcs {
			if cfgDirty[fi] && cfgs[fn] == nil {
				cfgs[fn] = cfg.Build(fn)
			}
		}
	}

	// Recompute dirty SCC summaries bottom-up over the demand points-to
	// slice. The builder sees only the direct out-of-SCC callees of dirty
	// members (a callee's finished summary already folds everything below
	// it), and computeSCC replaces every member, so a partial hit in a dirty
	// SCC never shadows the fresh result. The whole-program fold's output is
	// a pure function of every summary's value, each function's entry-point
	// status, and the definition order (which pins both the sorted
	// lock-order fold and the entry walk), so it is cached under exactly
	// those inputs. Most edits recompute a summary to the same value, and
	// then the folded lock order and race set are reused whole.
	var summaries *Summaries
	if needSums {
		if len(dirtySCCs) > 0 {
			sb := newSummaryBuilder(info, k.cg, pts)
			for _, scc := range dirtySCCs {
				for _, m := range scc {
					for _, c := range k.cg.Callees[m] {
						if sb.effects[c] == nil {
							sb.effects[c] = sums[k.fnIndex[c]]
						}
					}
				}
				sb.computeSCC(scc)
				for _, m := range scc {
					mi := k.fnIndex[m]
					sums[mi] = sb.effects[m]
					if store != nil {
						sums[mi].vhash = effectsVHash(sums[mi])
						store.Put(k.sumKey[mi], sums[mi])
					}
				}
			}
		}
		var aggKey string
		if store != nil {
			aggParts := make([]string, 1, 3*len(funcs)+1)
			aggParts[0] = "agg"
			for fi, fn := range funcs {
				entry := "0"
				if !k.cg.CalledByOther[fn.Name] || fn.Name == "main" {
					entry = "1"
				}
				aggParts = append(aggParts, fn.Name, sums[fi].vhash, entry)
			}
			aggKey = factstore.Hash(aggParts...)
		}
		fold, ok := store.Get(aggKey)
		if !ok {
			fold = aggregate(prog, k.cg, func(name string) *FuncEffects { return sums[k.fnIndex[name]] })
			store.Put(aggKey, fold)
		}
		summaries = &Summaries{Graph: k.cg, SCCOrder: k.sccOrder, Fold: fold.(*Fold), ix: k.ix}
	}

	execTasks(prog, info, cfgs, pts, summaries, pending, results, opts.Parallelism)

	for fi := range funcs {
		if missKey[fi] == "" {
			continue
		}
		cb := &cachedBundle{ByAnalyzer: make([][]cachedFinding, len(bundleBase))}
		for ai, base := range bundleBase {
			cb.ByAnalyzer[ai] = encodeFindings(k.ix, results[base+fi])
		}
		store.Put(missKey[fi], cb)
	}
	return assembleReport(prog, opts, selected, results)
}

// ---------------------------------------------------------------------------
// Key computation
// ---------------------------------------------------------------------------

// progKeys carries the program structure and every content key of one
// driver run. Without a store every key is "" and only the structure the
// run needs is filled in: the index and, when flow facts are needed, the
// function traits, call graph and SCC order (no flow components: they
// serve only to key facts and slice the points-to solve). Per-function
// keys live in slices indexed by the function's position in the filtered
// definition order (fnIndex maps names back to positions): at monorepo
// scale the key pipeline touches every function several times per run, and
// slice indexing is what keeps that traffic off string-keyed maps.
type progKeys struct {
	ix       *factstore.Index
	typesSig string
	fnIndex  map[string]int32 // function name -> index into the slices below
	funcKey  []string         // content hash of the function's source slice
	// traits and initTraits are the cached syntactic skeletons of function
	// definitions and global initialisers; traitsVH hashes each function's
	// traits content (not its source), feeding the graph-layer signature.
	traits     []*pointsto.Traits
	traitsVH   []string
	initTraits map[string]*pointsto.Traits
	envSig     []string
	comps      *pointsto.Components
	compKey    []string // by component id
	fnComp     []int    // flow component id, by function index
	cg         *CallGraph
	sccOrder   [][]string
	sumKey     []string
}

func buildKeys(prog *ast.Program, info *types.Info, store *factstore.Store,
	funcs []*ast.DefineFunc, needFlow bool) *progKeys {

	n := len(funcs)
	k := &progKeys{
		ix:         factstore.NewIndex(prog),
		fnIndex:    make(map[string]int32, n),
		funcKey:    make([]string, n),
		traits:     make([]*pointsto.Traits, n),
		initTraits: map[string]*pointsto.Traits{},
	}
	keyed := store != nil
	if keyed {
		k.typesSig = k.ix.TypesSig()
	}
	for i, fn := range funcs {
		k.fnIndex[fn.Name] = int32(i)
		if keyed {
			k.funcKey[i] = k.ix.FuncKey(fn.Name)
		}
	}
	if !keyed && !needFlow {
		return k // nothing below is needed without keys or flow facts
	}

	// Traits: pure functions of one definition's text, keyed by its hash.
	// Each entry carries a hash of the traits *content* (VHash), so the
	// graph layer below can tell "edited" apart from "edited in a way that
	// changed the skeleton" — most edits do not.
	k.traitsVH = make([]string, n)
	initVH := map[string]string{}
	for i, fn := range funcs {
		if !keyed {
			k.traits[i] = pointsto.ScanTraits(fn)
			continue
		}
		tk := "tr\x00" + k.funcKey[i]
		if v, ok := store.Get(tk); ok {
			ct := v.(*cachedTraits)
			k.traits[i], k.traitsVH[i] = ct.T, ct.VHash
		} else {
			t := pointsto.ScanTraits(fn)
			k.traits[i] = t
			k.traitsVH[i] = traitsVHash(t)
			store.Put(tk, &cachedTraits{T: t, VHash: k.traitsVH[i]})
		}
	}
	// Initialiser traits feed only the flow components and the graph
	// signature, which exist only with a store.
	for _, d := range prog.Defs {
		if d, ok := d.(*ast.DefineVar); ok && d.Init != nil && keyed {
			di, _ := k.ix.Def("v:" + d.Name)
			tk := "vt\x00" + di.Hash
			if v, ok := store.Get(tk); ok {
				ct := v.(*cachedTraits)
				k.initTraits[d.Name], initVH[d.Name] = ct.T, ct.VHash
			} else {
				t := pointsto.ScanExprTraits(d.Init)
				k.initTraits[d.Name] = t
				initVH[d.Name] = traitsVHash(t)
				store.Put(tk, &cachedTraits{T: t, VHash: initVH[d.Name]})
			}
		}
	}

	if keyed {
		k.envSig = envSigs(k, info, funcs)
	}
	if !needFlow {
		return k
	}

	// The graph layer — call graph, SCC order, flow components — is a pure
	// function of the traits skeletons, the definition order, and the type
	// environment, all of which survive the typical edit unchanged. It is
	// cached whole under a program-level signature over exactly those
	// inputs (traits by content, not by source text, so editing a function
	// body usually hits). The cached form holds only names; the Funcs map
	// is rebuilt against the current AST on every hit, because summary
	// recomputation walks bodies through it.
	var graphSig string
	if keyed {
		parts := make([]string, 2, 2+3*len(prog.Defs))
		parts[0], parts[1] = "graph", k.typesSig
		for _, d := range prog.Defs {
			switch d := d.(type) {
			case *ast.DefineFunc:
				parts = append(parts, "F", d.Name, k.traitsVH[k.fnIndex[d.Name]])
			case *ast.DefineVar:
				vh, ok := initVH[d.Name]
				if !ok {
					vh = "-"
				}
				parts = append(parts, "V", d.Name, vh)
			}
		}
		graphSig = factstore.Hash(parts...)
	}
	if v, ok := store.Get(graphSig); ok {
		cgr := v.(*cachedGraph)
		k.cg = &CallGraph{
			Funcs:         make(map[string]*ast.DefineFunc, n),
			Names:         cgr.Names,
			Callees:       cgr.Callees,
			CalledByOther: cgr.CalledByOther,
		}
		for _, fn := range funcs {
			k.cg.Funcs[fn.Name] = fn
		}
		k.sccOrder = cgr.SCCOrder
		k.comps = cgr.Comps
	} else {
		if keyed {
			k.comps = pointsto.BuildComponents(prog, info, func(name string) *pointsto.Traits {
				if i, ok := k.fnIndex[name]; ok {
					return k.traits[i]
				}
				return nil
			}, k.initTraits)
		}
		k.cg = NewCallGraphFromCallees(prog, func(name string) []string {
			return k.traits[k.fnIndex[name]].Called
		})
		k.sccOrder = k.cg.SCCs()
		store.Put(graphSig, &cachedGraph{
			Names:         k.cg.Names,
			Callees:       k.cg.Callees,
			CalledByOther: k.cg.CalledByOther,
			SCCOrder:      k.sccOrder,
			Comps:         k.comps,
		})
	}
	k.sumKey = make([]string, n)
	if keyed {
		k.fnComp = make([]int, n)
		for i, fn := range funcs {
			k.fnComp[i] = k.comps.OfFunc(fn.Name)
		}
		flowKeys(k)
	}
	return k
}

// envSigs classifies every free name of every function, under typesSig.
func envSigs(k *progKeys, info *types.Info, funcs []*ast.DefineFunc) []string {
	external := map[string]bool{}
	for _, ext := range info.Externals {
		external[ext.Name] = true
	}
	classMemo := map[string]string{}
	classify := func(name string) string {
		if c, ok := classMemo[name]; ok {
			return c
		}
		var c string
		_, isFn := k.fnIndex[name]
		switch {
		case isFn:
			if sch := info.Funcs[name]; sch != nil {
				c = "fn:" + schemeSig(sch)
			} else {
				c = "fn:?"
			}
		case info.Globals[name] != nil:
			c = "g:" + info.Globals[name].String()
		case info.CtorOf[name] != nil:
			c = "c" // layout covered by typesSig
		case external[name]:
			c = "x" // signature covered by typesSig
		default:
			c = "?" // local, builtin, or undefined
		}
		classMemo[name] = c
		return c
	}
	sigs := make([]string, len(funcs))
	parts := make([]string, 0, 64)
	for i := range funcs {
		parts = append(parts[:0], "env", k.typesSig)
		for _, name := range k.traits[i].Free {
			parts = append(parts, name, classify(name))
		}
		sigs[i] = factstore.Hash(parts...)
	}
	return sigs
}

// flowKeys fills in the component and summary keys. They are rebuilt every
// run even on a graph hit: they embed source hashes (funcKey, envSig),
// which the graph signature deliberately does not.
func flowKeys(k *progKeys) {
	var parts []string
	k.compKey = make([]string, k.comps.Len())
	for id := 0; id < k.comps.Len(); id++ {
		parts = append(parts[:0], "comp", k.typesSig)
		for _, m := range k.comps.FuncMembers(id) {
			parts = append(parts, "f", m, k.funcKey[k.fnIndex[m]])
		}
		for _, g := range k.comps.GlobalMembers(id) {
			di, ok := k.ix.Def("v:" + g)
			if !ok {
				parts = append(parts, "g", g, "undeclared")
				continue
			}
			parts = append(parts, "g", g, di.Hash)
		}
		k.compKey[id] = factstore.Hash(parts...)
	}

	// Summary keys bottom-up: each SCC's signature folds its members' keys
	// with the finished summaryKeys of all out-of-SCC callees.
	var calleeKeys []string
	for _, scc := range k.sccOrder {
		// Most SCCs are singletons; skip the membership map for those.
		var inSCC map[string]bool
		if len(scc) > 1 {
			inSCC = make(map[string]bool, len(scc))
			for _, m := range scc {
				inSCC[m] = true
			}
		}
		parts = append(parts[:0], "scc", k.typesSig)
		calleeKeys = calleeKeys[:0]
		for _, m := range scc { // scc is sorted
			mi := k.fnIndex[m]
			parts = append(parts, m, k.funcKey[mi], k.envSig[mi], k.compKey[k.fnComp[mi]])
			for _, c := range k.cg.Callees[m] {
				if inSCC != nil && inSCC[c] || c == m {
					continue
				}
				calleeKeys = append(calleeKeys, k.sumKey[k.fnIndex[c]])
			}
		}
		sccSig := factstore.Hash(append(parts, sortDedup(calleeKeys)...)...)
		for _, m := range scc {
			k.sumKey[k.fnIndex[m]] = "sum\x00" + m + "\x00" + sccSig
		}
	}
}

// cachedTraits pairs one definition's traits with a hash of their content,
// so graph-level signatures can depend on what the skeleton *is* rather
// than on the source text it came from.
type cachedTraits struct {
	T     *pointsto.Traits
	VHash string
}

func traitsVHash(t *pointsto.Traits) string {
	parts := make([]string, 0, len(t.Free)+len(t.Called)+len(t.Bound)+6)
	parts = append(parts, "tv", strconv.Itoa(len(t.Free)))
	parts = append(parts, t.Free...)
	parts = append(parts, strconv.Itoa(len(t.Called)))
	parts = append(parts, t.Called...)
	parts = append(parts, strconv.Itoa(len(t.Bound)))
	parts = append(parts, t.Bound...)
	parts = append(parts, bit(t.HasLambda), bit(t.ExoticCall))
	return factstore.Hash(parts...)
}

// cachedGraph is the graph layer of one program shape: everything in it is
// names only (no AST pointers, no spans), so it stays valid across
// re-parses for as long as the graph signature matches.
type cachedGraph struct {
	Names         []string
	Callees       map[string][]string
	CalledByOther map[string]bool
	SCCOrder      [][]string
	Comps         *pointsto.Components
}

// schemeSig prints a type scheme canonically: constraints in quantifier
// order plus the canonical type string (Type.String renames variables
// per-call, so the result is independent of the unifier's global counter).
func schemeSig(s *types.Scheme) string {
	var b strings.Builder
	for _, v := range s.Vars {
		fmt.Fprintf(&b, "%d,", v.Constraint)
	}
	b.WriteByte('|')
	b.WriteString(s.Type.String())
	return b.String()
}

func sortDedup(ss []string) []string {
	if len(ss) < 2 {
		return ss
	}
	sort.Strings(ss)
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// effectsVHash hashes a summary's value under a tagged, length-delimited
// serialisation (factstore.Hash delimits every part, the tags separate the
// sections), with map sections in sorted key order so equal values always
// hash equally. Spans are definition-relative, so a summary recomputed to
// the same value after an edit elsewhere hashes the same, which is what lets
// the fold's early cutoff fire.
func effectsVHash(eff *FuncEffects) string {
	parts := make([]string, 1, 8+8*len(eff.Accesses))
	parts[0] = "effv"
	site := func(tag, key string, s LockSite) {
		parts = append(parts, tag, key, s.Lock, s.Fn, relStr(s.Span))
	}
	for _, l := range sortedKeys(eff.Acquires) {
		site("a", l, eff.Acquires[l])
	}
	for _, a := range sortedEdgeKeys(eff.Edges) {
		outs := eff.Edges[a]
		for _, b := range sortedKeys(outs) {
			site("e", a+"\x00"+b, outs[b])
		}
	}
	for _, l := range sortedKeys(eff.Self) {
		site("s", l, eff.Self[l])
	}
	for _, ac := range eff.Accesses {
		parts = append(parts, "c", ac.Global, ac.Field, bit(ac.Write),
			relStr(ac.Span), ac.Func, strconv.Itoa(len(ac.Lockset)))
		parts = append(parts, ac.Lockset...)
		parts = append(parts, bit(ac.Spawned))
	}
	for _, s := range eff.Atomics {
		parts = append(parts, "t", relStr(s.Span), s.Fn, bit(s.Nested))
	}
	for _, s := range eff.Irrev {
		parts = append(parts, "i", s.Kind, s.Name, relStr(s.Span), s.Fn, bit(s.Atomic))
	}
	for _, s := range eff.Retries {
		parts = append(parts, "r", relStr(s.Span), s.Fn, s.Cond)
	}
	return factstore.Hash(parts...)
}

func relStr(r factstore.RelSpan) string {
	return r.Owner + "\x00" + strconv.Itoa(r.Start) + "\x00" + strconv.Itoa(r.End)
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// cachedBundle holds every bundled per-function analyzer's findings for one
// function, aligned with the bundled analyzers in selection order (the
// bundle key embeds the analyzer list, so alignment cannot drift).
type cachedBundle struct {
	ByAnalyzer [][]cachedFinding
}

type cachedRelated struct {
	Span    factstore.RelSpan
	Message string
	File    string
}

// cachedFinding is a Finding with relative spans. Messages embed names and
// rendered values but never absolute offsets (renderers derive positions
// from the span at print time), so they cache verbatim.
type cachedFinding struct {
	Code     string
	Severity source.Severity
	Span     factstore.RelSpan
	Message  string
	Analyzer string
	Related  []cachedRelated
}

func encodeFindings(ix *factstore.Index, fs []Finding) []cachedFinding {
	out := make([]cachedFinding, len(fs))
	for i, f := range fs {
		cf := cachedFinding{
			Code: f.Code, Severity: f.Severity, Span: ix.Rel(f.Span),
			Message: f.Message, Analyzer: f.Analyzer,
		}
		for _, r := range f.Related {
			cf.Related = append(cf.Related, cachedRelated{
				Span: ix.Rel(r.Span), Message: r.Message, File: r.File,
			})
		}
		out[i] = cf
	}
	return out
}

func decodeFindings(ix *factstore.Index, cfs []cachedFinding) []Finding {
	if len(cfs) == 0 {
		return nil
	}
	out := make([]Finding, len(cfs))
	for i, cf := range cfs {
		f := Finding{
			Code: cf.Code, Severity: cf.Severity, Span: ix.Abs(cf.Span),
			Message: cf.Message, Analyzer: cf.Analyzer,
		}
		for _, r := range cf.Related {
			f.Related = append(f.Related, Related{
				Span: ix.Abs(r.Span), Message: r.Message, File: r.File,
			})
		}
		out[i] = f
	}
	return out
}
