package prover

// Linear integer arithmetic decision procedure: Fourier–Motzkin variable
// elimination with GCD-based integer tightening. It decides satisfiability
// of a conjunction of atoms of the form  T ≤ 0,  T = 0, and  T ≠ 0
// (disequalities are handled by case-splitting into < and >).
//
// FM is complete for rationals; the GCD normalisation plus the ceiling
// division used when tightening make it refutationally sound — and in
// practice complete — for the bounds/index/overflow conditions systems
// contracts produce.

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// normalize divides the constraint by the GCD of its coefficients, using
// floor division on the constant (valid for ≤ over the integers). Returns
// false if the constraint is trivially unsatisfiable.
func normalizeLe(t Term) (Term, bool) {
	if t.IsConst() {
		return t, t.Const <= 0
	}
	g := coeffGCD(t)
	if g > 1 {
		nt := Term{vec: make([]monomial, len(t.vec))}
		for i, m := range t.vec {
			nt.vec[i] = monomial{m.name, m.c / g}
		}
		// Σ ci·xi + k ≤ 0 with all ci divisible by g means
		// Σ (ci/g)·xi ≤ -k/g, tightened to floor(-k/g).
		nt.Const = -floorDiv(-t.Const, g)
		return nt, true
	}
	return t, true
}

// coeffGCD returns the GCD of t's coefficients (0 for a constant term).
func coeffGCD(t Term) int64 {
	var g int64
	for _, m := range t.vec {
		g = gcd64(g, m.c)
	}
	return g
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// eqUnsatByGCD reports whether Σ ci·xi + k = 0 has no integer solution
// because gcd(ci) does not divide k.
func eqUnsatByGCD(t Term) bool {
	if t.IsConst() {
		return t.Const != 0
	}
	g := coeffGCD(t)
	return g != 0 && t.Const%g != 0
}

// liaSat decides a conjunction: les are T ≤ 0, eqs are T = 0,
// neqs are T ≠ 0. Work is bounded by maxConstraints to keep FM's worst case
// in check; hitting the bound returns "unknown = satisfiable" (sound for the
// prover's use, which only trusts UNSAT results).
func liaSat(les, eqs, neqs []Term) bool {
	// Substitute out equalities where a variable has coefficient ±1.
	les = append(make([]Term, 0, len(les)+2*len(eqs)+len(neqs)), les...)
	eqs = append([]Term{}, eqs...)
	neqs = append([]Term{}, neqs...)

	for i := 0; i < len(eqs); i++ {
		t := eqs[i]
		if eqUnsatByGCD(t) {
			return false
		}
		// Pivot on the first unit coefficient in name order.
		var pivot monomial
		for _, m := range t.vec {
			if m.c == 1 || m.c == -1 {
				pivot = m
				break
			}
		}
		if pivot.c == 0 {
			// Keep as two inequalities.
			les = append(les, t, t.Scale(-1))
			continue
		}
		// c·p + rest = 0 with c = ±1 gives p = -c·rest, so a term u with
		// coefficient k on p becomes u - k·c·t, in which p cancels.
		subst := func(u Term) Term {
			k := u.Coeff(pivot.name)
			if k == 0 {
				return u
			}
			return combine(1, u, -k*pivot.c, t)
		}
		for j := range les {
			les[j] = subst(les[j])
		}
		for j := range neqs {
			neqs[j] = subst(neqs[j])
		}
		for j := i + 1; j < len(eqs); j++ {
			eqs[j] = subst(eqs[j])
		}
	}

	// Case-split disequalities: T ≠ 0 becomes T ≤ -1 ∨ -T ≤ -1. Both
	// branches append their case to les in the same slot: fourierMotzkin
	// copies its input, so a finished branch leaves nothing behind.
	var split func(les []Term, neqs []Term) bool
	split = func(les []Term, neqs []Term) bool {
		if len(neqs) == 0 {
			return fourierMotzkin(les)
		}
		t := neqs[0]
		rest := neqs[1:]
		lo := t
		lo.Const++ // t + 1 ≤ 0  ⇔  t ≤ -1
		if split(append(les, lo), rest) {
			return true
		}
		hi := t.Scale(-1)
		hi.Const++ // -t ≤ -1  ⇔  t ≥ 1
		return split(append(les, hi), rest)
	}
	return split(les, neqs)
}

const maxConstraints = 4000

// fourierMotzkin decides Σ ≤-constraints over the integers (rational
// elimination + GCD tightening).
func fourierMotzkin(cons []Term) bool {
	work := append([]Term{}, cons...)
	counts := map[string]posNeg{}
	for {
		// Normalise; bail out on trivial falsity.
		clear(counts)
		out := work[:0]
		for _, t := range work {
			nt, ok := normalizeLe(t)
			if !ok {
				return false
			}
			if nt.IsConst() {
				continue // trivially true
			}
			for _, m := range nt.vec {
				pn := counts[m.name]
				if m.c > 0 {
					pn.pos++
				} else {
					pn.neg++
				}
				counts[m.name] = pn
			}
			out = append(out, nt)
		}
		work = out
		if len(work) == 0 {
			return true
		}
		if len(work) > maxConstraints {
			return true // give up: treat as satisfiable (sound for proving)
		}
		// Eliminate the variable with the fewest pos×neg products, the
		// first by name among equals.
		var v string
		bestCost := -1
		for name, pn := range counts {
			cost := pn.pos * pn.neg
			if bestCost < 0 || cost < bestCost || cost == bestCost && name < v {
				bestCost, v = cost, name
			}
		}
		var pos, neg []Term
		rest := make([]Term, 0, len(work))
		for _, t := range work {
			c := t.Coeff(v)
			switch {
			case c > 0:
				pos = append(pos, t)
			case c < 0:
				neg = append(neg, t)
			default:
				rest = append(rest, t)
			}
		}
		// Combine each pos with each neg: from a·v + P ≤ 0 and -b·v + N ≤ 0
		// (a,b > 0) derive b·P + a·N ≤ 0, the sum in which v cancels.
		for _, p := range pos {
			a := p.Coeff(v)
			for _, n := range neg {
				comb := combine(-n.Coeff(v), p, a, n)
				if comb.IsConst() {
					if comb.Const > 0 {
						return false
					}
					continue
				}
				rest = append(rest, comb)
			}
		}
		work = rest
	}
}

// posNeg counts the constraints in which a variable has a positive and a
// negative coefficient.
type posNeg struct{ pos, neg int }
