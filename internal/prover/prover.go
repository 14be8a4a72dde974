package prover

import (
	"fmt"
	"time"
)

// Result reports a proof attempt.
type Result struct {
	Proved   bool
	Duration time.Duration
	// Counterexample holds the theory literals of a satisfying assignment of
	// the negation when the proof fails — the facts a failing execution
	// would make true.
	Counterexample []string
	// Iterations counts DPLL(T) refinement rounds.
	Iterations int
}

// Prove decides validity of f (over integer variables and boolean
// variables): it is proved iff ¬f is unsatisfiable.
func Prove(f Formula) Result {
	start := time.Now()
	sat, model, iters := Satisfiable(Not(f))
	return Result{
		Proved:         !sat,
		Duration:       time.Since(start),
		Counterexample: model,
		Iterations:     iters,
	}
}

// Satisfiable decides satisfiability of f via lazy DPLL(T): the boolean
// skeleton goes to the SAT core; each propositionally satisfying assignment
// is checked against the linear-integer theory, adding blocking clauses
// until agreement or propositional exhaustion. A satisfying model lists the
// theory literals, then the boolean variables, each in the order f first
// mentions them.
func Satisfiable(f Formula) (bool, []string, int) {
	enc := newEncoder()
	root := enc.encode(f)
	enc.s.addClause(clause{root})

	var les, eqs, neqs []Term
	iterations := 0
	for {
		iterations++
		if iterations > 10000 {
			return true, []string{"(search limit reached)"}, iterations
		}
		assign := enc.s.solve()
		if assign == nil {
			return false, nil, iterations
		}
		// Gather asserted theory literals.
		les, eqs, neqs = les[:0], eqs[:0], neqs[:0]
		blocking := make(clause, 0, len(enc.atoms))
		for _, a := range enc.atoms {
			if assign[a.lit] {
				blocking = append(blocking, -a.lit)
				if a.Op == OpLe {
					les = append(les, a.T)
				} else {
					eqs = append(eqs, a.T)
				}
			} else {
				blocking = append(blocking, a.lit)
				if a.Op == OpLe {
					les = append(les, a.negT)
				} else {
					neqs = append(neqs, a.T)
				}
			}
		}
		if liaSat(les, eqs, neqs) {
			return true, enc.model(assign), iterations
		}
		if len(blocking) == 0 {
			return false, nil, iterations
		}
		enc.s.addClause(blocking)
	}
}

// ---------------------------------------------------------------------------
// Tseitin encoding
// ---------------------------------------------------------------------------

// encoder numbers a formula's atoms and boolean variables in the order it
// first meets them, so the refinement loop and the model it reports do not
// depend on map iteration order.
type encoder struct {
	s       *satSolver
	atoms   []encAtom
	atomIdx map[string]int // rendered atom → index in atoms
	bools   []encBool
	boolIdx map[string]int // name → index in bools
	trueLit int
}

// encAtom is one distinct theory atom with its SAT variable.
type encAtom struct {
	FAtom
	lit  int
	key  string // the atom rendered, as it appears in a model
	negT Term   // for OpLe, ¬(T ≤ 0) as -T + 1 ≤ 0
}

// encBool is one boolean variable with its SAT variable.
type encBool struct {
	name string
	lit  int
}

func newEncoder() *encoder {
	e := &encoder{
		s:       &satSolver{},
		atomIdx: map[string]int{},
		boolIdx: map[string]int{},
	}
	e.trueLit = e.fresh()
	e.s.addClause(clause{e.trueLit})
	return e
}

// model renders a satisfying assignment: each atom as asserted or negated,
// then each boolean variable.
func (e *encoder) model(assign []bool) []string {
	desc := make([]string, 0, len(e.atoms)+len(e.bools))
	for _, a := range e.atoms {
		desc = append(desc, literal(a.key, assign[a.lit]))
	}
	for _, b := range e.bools {
		desc = append(desc, literal(b.name, assign[b.lit]))
	}
	return desc
}

func literal(s string, holds bool) string {
	if holds {
		return s
	}
	return "(not " + s + ")"
}

func (e *encoder) fresh() int {
	e.s.numVars++
	return e.s.numVars
}

// encode returns a literal equisatisfiable with f.
func (e *encoder) encode(f Formula) int {
	switch f := f.(type) {
	case FTrue:
		return e.trueLit
	case FFalse:
		return -e.trueLit
	case FBoolVar:
		if i, ok := e.boolIdx[f.Name]; ok {
			return e.bools[i].lit
		}
		v := e.fresh()
		e.boolIdx[f.Name] = len(e.bools)
		e.bools = append(e.bools, encBool{f.Name, v})
		return v
	case FAtom:
		key := f.fString()
		if i, ok := e.atomIdx[key]; ok {
			return e.atoms[i].lit
		}
		v := e.fresh()
		a := encAtom{FAtom: f, lit: v, key: key}
		if f.Op == OpLe {
			a.negT = f.T.Scale(-1)
			a.negT.Const++
		}
		e.atomIdx[key] = len(e.atoms)
		e.atoms = append(e.atoms, a)
		return v
	case FNot:
		return -e.encode(f.F)
	case FAnd:
		out := e.fresh()
		lits := make([]int, len(f.Fs))
		for i, sub := range f.Fs {
			lits[i] = e.encode(sub)
			// out -> lit
			e.s.addClause(clause{-out, lits[i]})
		}
		// all lits -> out
		c := make(clause, 1, len(lits)+1)
		c[0] = out
		for _, l := range lits {
			c = append(c, -l)
		}
		e.s.addClause(c)
		return out
	case FOr:
		out := e.fresh()
		lits := make([]int, len(f.Fs))
		c := make(clause, 1, len(f.Fs)+1)
		c[0] = -out
		for i, sub := range f.Fs {
			lits[i] = e.encode(sub)
			c = append(c, lits[i])
			// lit -> out
			e.s.addClause(clause{out, -lits[i]})
		}
		e.s.addClause(c)
		return out
	default:
		panic(fmt.Sprintf("prover: unknown formula %T", f))
	}
}
