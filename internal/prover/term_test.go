package prover

import (
	"testing"
	"testing/quick"
)

// termVars are the variables of generated terms; "%t" sorts before the
// letters, as the verifier's fresh names do.
var termVars = [4]string{"%t", "a", "b", "len"}

// mkTerm builds Const + Σ c[i]·termVars[i] directly, without the algebra
// under test.
func mkTerm(c [4]int8, k int8) Term {
	t := Term{Const: int64(k)}
	for i, ci := range c {
		if ci != 0 {
			t.vec = append(t.vec, monomial{termVars[i], int64(ci)})
		}
	}
	return t
}

// eval evaluates t at the point assigning pt[i] to termVars[i].
func eval(t Term, pt [4]int8) int64 {
	v := t.Const
	for _, m := range t.vec {
		for i, name := range termVars {
			if m.name == name {
				v += m.c * int64(pt[i])
			}
		}
	}
	return v
}

// canonical reports whether t's vector is sorted by name with no repeated
// names and no zero coefficients.
func canonical(t Term) bool {
	for i, m := range t.vec {
		if m.c == 0 || i > 0 && t.vec[i-1].name >= m.name {
			return false
		}
	}
	return true
}

func TestTermAlgebraAgreesWithEvaluation(t *testing.T) {
	prop := func(c, d [4]int8, k, l, s int8, pt [4]int8) bool {
		a, b := mkTerm(c, k), mkTerm(d, l)
		for _, r := range []struct {
			t    Term
			want int64
		}{
			{a.Add(b), eval(a, pt) + eval(b, pt)},
			{a.Sub(b), eval(a, pt) - eval(b, pt)},
			{a.Scale(int64(s)), int64(s) * eval(a, pt)},
			{a.Sub(a), 0},
		} {
			if !canonical(r.t) || eval(r.t, pt) != r.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestGCDNormalisationAgreesWithEvaluation: dividing a constraint by the
// GCD of its coefficients keeps exactly its integer solutions, and an
// equation the GCD rules out has none.
func TestGCDNormalisationAgreesWithEvaluation(t *testing.T) {
	// Small coefficients, constants and points put many samples on the
	// boundary of the constraint, where a wrong rounding shows.
	prop := func(c [4]int8, g uint8, k int8, pt [4]int8) bool {
		for i := range c {
			c[i] = c[i] % 4 * int8(g%4+1)
			pt[i] %= 5
		}
		a := mkTerm(c, k%16)
		nt, ok := normalizeLe(a)
		if !ok {
			return a.IsConst() && a.Const > 0
		}
		if !canonical(nt) || (eval(a, pt) <= 0) != (eval(nt, pt) <= 0) {
			return false
		}
		return !eqUnsatByGCD(a) || eval(a, pt) != 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRendering pins the text of terms and formulas: VC descriptions and
// counterexamples are built from it.
func TestRendering(t *testing.T) {
	z, ite := VarTerm("z"), VarTerm("%ite3")
	p, q := FBoolVar{"p"}, FBoolVar{"q"}
	terms := []struct {
		t    Term
		want string
	}{
		{NewTerm(0), "0"},
		{NewTerm(-7), "-7"},
		{x(), "x"},
		{x().Scale(-1), "-1*x"},
		{x().Scale(3).Add(n(4)).Sub(y()), "3*x + -1*y + 4"},
		{y().Add(x()), "x + y"},
		{x().Sub(x()), "0"},
		{x().Add(y()).Sub(n(5)).Scale(-2), "-2*x + -2*y + 10"},
		{ite.Add(VarTerm("b")).Scale(2).Add(VarTerm("a").Scale(-1)), "2*%ite3 + -1*a + 2*b"},
		{x().Add(y()).Sub(y()), "x"},
		{z.Scale(0), "0"},
		{n(5).Add(x()).Sub(n(5)), "x"},
		{z.Sub(x()).Add(y().Scale(-1)).Add(n(-1)), "-1*x + -1*y + z + -1"},
	}
	for _, c := range terms {
		if got := c.t.String(); got != c.want {
			t.Errorf("term renders %q, want %q", got, c.want)
		}
	}
	formulas := []struct {
		f    Formula
		want string
	}{
		{Le(x(), n(5)), "(x + -5 <= 0)"},
		{Lt(x(), y()), "(x + -1*y + 1 <= 0)"},
		{Ge(x(), n(0)), "(-1*x <= 0)"},
		{Gt(x().Add(y()), n(1)), "(-1*x + -1*y + 2 <= 0)"},
		{Eq(x().Scale(3), n(6)), "(3*x + -6 = 0)"},
		{Ne(x(), y()), "(not (x + -1*y = 0))"},
		{And(Le(x(), n(5)), p, Not(q)), "(and (x + -5 <= 0) p (not q))"},
		{Or(Eq(x(), n(0)), Lt(ite, z)), "(or (x = 0) (%ite3 + -1*z + 1 <= 0))"},
		{Implies(And(Ge(x(), n(0)), p), Lt(x(), VarTerm("len"))),
			"(or (not (and (-1*x <= 0) p)) (-1*len + x + 1 <= 0))"},
		{Not(Not(p)), "p"},
		{FTrue{}, "true"},
		{FFalse{}, "false"},
		{Not(And(p, q)), "(not (and p q))"},
	}
	for _, c := range formulas {
		if got := String(c.f); got != c.want {
			t.Errorf("formula renders %q, want %q", got, c.want)
		}
	}
}
