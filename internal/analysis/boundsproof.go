package analysis

// The proof-set side of the bounds analyzer: BoundsProofs runs the same
// relational engine the BITC-BOUND analyzer uses, but instead of findings it
// returns the set of vector-access sites the prover discharged. internal/vm
// consumes this set in its pre-decode pass to select bounds-check-free
// handlers for proven OpVecRef/OpVecSet sites — the ISSUE's payoff: the
// static prover pays for itself at dispatch time.
//
// Sites are keyed by the access expression's source position as stamped into
// ir.Instr.Pos by the compiler (span start + 1 so that zero means "no
// position"), which is stable across compilation because both sides read the
// same resolved AST.

import (
	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/factstore"
	"bitc/internal/pointsto"
	"bitc/internal/types"
)

// BoundsProofSet is the result of a bounds-prover run over a whole program.
type BoundsProofSet struct {
	// Sites counts the static vector-ref/vector-set! sites examined.
	Sites int
	// Proved counts the sites discharged as always in range.
	Proved int

	elidable map[int]bool
}

// Elidable returns the set of proven access sites keyed by compiler position
// stamp (source span start + 1, matching ir.Instr.Pos). The returned map is
// shared; callers must not mutate it.
func (ps *BoundsProofSet) Elidable() map[int]bool { return ps.elidable }

// BoundsProofs runs the bounds prover over every function and returns the
// proof set. It is independent of the finding driver so the VM path can ask
// for proofs without assembling a report.
func BoundsProofs(prog *ast.Program, info *types.Info) *BoundsProofSet {
	return BoundsProofsWithStore(prog, info, nil)
}

// cachedProofs is one function's proof sites with relative spans, rebased on
// every hit like all cached facts.
type cachedProofs struct {
	Sites []cachedProofSite
}

type cachedProofSite struct {
	Span   factstore.RelSpan
	Proved bool
}

// BoundsProofsWithStore is BoundsProofs backed by the fact store:
// per-function proof sites are cached under the function's content key, its
// free-name environment signature, and its points-to flow component key —
// exactly the inputs the engine's verdicts depend on — so a warm call
// recomputes nothing and returns an identical proof set. A nil store misses
// every site and hashes no key.
func BoundsProofsWithStore(prog *ast.Program, info *types.Info, store *factstore.Store) *BoundsProofSet {
	var funcs []*ast.DefineFunc
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			funcs = append(funcs, fn)
		}
	}
	store.BeginRun()
	k := buildKeys(prog, info, store, funcs, store != nil)
	key := make([]string, len(funcs))
	proofs := make([]*cachedProofs, len(funcs))
	anyMiss := false
	for fi := range funcs {
		if store != nil {
			key[fi] = "bp\x00" + k.funcKey[fi] + k.envSig[fi] + k.compKey[k.fnComp[fi]]
		}
		if v, ok := store.Get(key[fi]); ok {
			proofs[fi] = v.(*cachedProofs)
		} else {
			anyMiss = true
		}
	}
	// Any miss rebuilds the full substrate: proofs are consumed at program
	// load (one shot), so the warm all-hit path is the one worth optimising.
	if anyMiss {
		cfgs := make(map[*ast.DefineFunc]*cfg.Graph, len(funcs))
		for _, fn := range funcs {
			cfgs[fn] = cfg.Build(fn)
		}
		pts := pointsto.Analyze(prog, info, cfgs)
		for fi, fn := range funcs {
			if proofs[fi] != nil {
				continue
			}
			cp := &cachedProofs{}
			for _, s := range newBoundsEngine(info, cfgs[fn], pts, fn.Name).analyze() {
				cp.Sites = append(cp.Sites, cachedProofSite{
					Span: k.ix.Rel(s.span), Proved: s.verdict == siteProved,
				})
			}
			proofs[fi] = cp
			store.Put(key[fi], cp)
		}
	}
	ps := &BoundsProofSet{elidable: map[int]bool{}}
	for _, cp := range proofs {
		for _, s := range cp.Sites {
			ps.Sites++
			if s.Proved {
				ps.Proved++
				ps.elidable[int(k.ix.Abs(s.Span).Start)+1] = true
			}
		}
	}
	return ps
}
