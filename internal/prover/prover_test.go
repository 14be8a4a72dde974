package prover

import (
	"reflect"
	"testing"
	"testing/quick"
)

func x() Term        { return VarTerm("x") }
func y() Term        { return VarTerm("y") }
func n(v int64) Term { return NewTerm(v) }

func mustProve(t *testing.T, f Formula) {
	t.Helper()
	res := Prove(f)
	if !res.Proved {
		t.Fatalf("should prove %s; counterexample %v", String(f), res.Counterexample)
	}
}

func mustRefute(t *testing.T, f Formula) {
	t.Helper()
	res := Prove(f)
	if res.Proved {
		t.Fatalf("should NOT prove %s", String(f))
	}
}

func TestCounterexampleReported(t *testing.T) {
	res := Prove(Le(x(), n(5)))
	if res.Proved || len(res.Counterexample) == 0 {
		t.Fatalf("proved=%v cex=%v", res.Proved, res.Counterexample)
	}
}

func TestTautologies(t *testing.T) {
	mustProve(t, FTrue{})
	mustProve(t, Or(FBoolVar{"p"}, Not(FBoolVar{"p"})))
	mustProve(t, Implies(FBoolVar{"p"}, FBoolVar{"p"}))
	mustProve(t, Implies(And(FBoolVar{"p"}, FBoolVar{"q"}), FBoolVar{"q"}))
}

func TestNonTautologies(t *testing.T) {
	mustRefute(t, FBoolVar{"p"})
	mustRefute(t, FFalse{})
	mustRefute(t, And(FBoolVar{"p"}, Not(FBoolVar{"p"})).(Formula))
}

func TestLinearArithmeticValidities(t *testing.T) {
	// x ≤ 5 ∧ x ≥ 5 → x = 5
	mustProve(t, Implies(And(Le(x(), n(5)), Ge(x(), n(5))), Eq(x(), n(5))))
	// x < y → x ≤ y
	mustProve(t, Implies(Lt(x(), y()), Le(x(), y())))
	// x ≥ 0 → x + 1 ≥ 1
	mustProve(t, Implies(Ge(x(), n(0)), Ge(x().Add(n(1)), n(1))))
	// transitivity: x ≤ y ∧ y ≤ z → x ≤ z
	z := VarTerm("z")
	mustProve(t, Implies(And(Le(x(), y()), Le(y(), z)), Le(x(), z)))
	// x > 0 ∧ y > 0 → x + y > 1 (integers!)
	mustProve(t, Implies(And(Gt(x(), n(0)), Gt(y(), n(0))), Gt(x().Add(y()), n(1))))
}

func TestIntegerTightness(t *testing.T) {
	// Over the rationals 2x = 1 is satisfiable; over ℤ it is not.
	mustProve(t, Ne(x().Scale(2), n(1)))
	// 0 < x < 1 has no integer solution.
	mustProve(t, Not(And(Gt(x(), n(0)), Lt(x(), n(1)))))
	// 3x = 6 → x = 2 (GCD substitution does not lose solutions).
	mustProve(t, Implies(Eq(x().Scale(3), n(6)), Eq(x(), n(2))))
}

func TestInvalidArithmetic(t *testing.T) {
	mustRefute(t, Le(x(), n(5)))
	mustRefute(t, Implies(Le(x(), y()), Lt(x(), y())))
	mustRefute(t, Eq(x(), y()))
	// x ≤ 5 → x ≤ 4 is false (x=5).
	mustRefute(t, Implies(Le(x(), n(5)), Le(x(), n(4))))
}

func TestDisequalities(t *testing.T) {
	// x ≠ 0 ∧ x ≥ 0 → x ≥ 1
	mustProve(t, Implies(And(Ne(x(), n(0)), Ge(x(), n(0))), Ge(x(), n(1))))
	// x ≠ 0 alone doesn't bound x.
	mustRefute(t, Implies(Ne(x(), n(0)), Ge(x(), n(1))))
	// Pigeonhole on a 2-range: 0 ≤ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1 is UNSAT.
	mustProve(t, Not(And(Ge(x(), n(0)), Le(x(), n(1)), Ne(x(), n(0)), Ne(x(), n(1)))))
}

func TestBoundsCheckVCs(t *testing.T) {
	// The archetypal systems VC: 0 ≤ i ∧ i < len ∧ len ≤ cap → i < cap.
	i, ln, cap := VarTerm("i"), VarTerm("len"), VarTerm("cap")
	mustProve(t, Implies(
		And(Ge(i, n(0)), Lt(i, ln), Le(ln, cap)),
		Lt(i, cap)))
	// Off-by-one is caught: i ≤ len does NOT give i < len.
	mustRefute(t, Implies(And(Ge(i, n(0)), Le(i, ln)), Lt(i, ln)))
}

func TestOverflowStyleVC(t *testing.T) {
	// x ≤ 127 ∧ y ≤ 127 ∧ x,y ≥ 0 → x + y ≤ 254
	mustProve(t, Implies(
		And(Ge(x(), n(0)), Le(x(), n(127)), Ge(y(), n(0)), Le(y(), n(127))),
		Le(x().Add(y()), n(254))))
	mustRefute(t, Implies(
		And(Ge(x(), n(0)), Le(x(), n(127)), Ge(y(), n(0)), Le(y(), n(127))),
		Le(x().Add(y()), n(253))))
}

func TestMixedBoolArith(t *testing.T) {
	p := FBoolVar{"p"}
	// (p → x ≥ 1) ∧ (¬p → x ≥ 2) → x ≥ 1
	mustProve(t, Implies(
		And(Implies(p, Ge(x(), n(1))), Implies(Not(p), Ge(x(), n(2)))),
		Ge(x(), n(1))))
}

func TestSatisfiableReportsModel(t *testing.T) {
	sat, model, _ := Satisfiable(And(Ge(x(), n(3)), Le(x(), n(10))))
	if !sat || len(model) == 0 {
		t.Fatalf("sat=%v model=%v", sat, model)
	}
	sat, _, _ = Satisfiable(And(Ge(x(), n(3)), Le(x(), n(2))))
	if sat {
		t.Fatal("3 ≤ x ≤ 2 reported satisfiable")
	}
}

func TestTermAlgebra(t *testing.T) {
	a := x().Scale(3).Add(n(4)).Sub(y())
	if a.Coeff("x") != 3 || a.Coeff("y") != -1 || a.Const != 4 {
		t.Fatalf("term = %+v", a)
	}
	if s := a.String(); s == "" {
		t.Error("empty term string")
	}
	z := x().Sub(x())
	if !z.IsConst() || z.Const != 0 {
		t.Errorf("x-x = %v", z)
	}
	if x().Scale(0).String() != "0" {
		t.Errorf("0*x = %s", x().Scale(0))
	}
}

func TestFormulaSimplifiers(t *testing.T) {
	if _, ok := And().(FTrue); !ok {
		t.Error("empty And")
	}
	if _, ok := Or().(FFalse); !ok {
		t.Error("empty Or")
	}
	if _, ok := And(FTrue{}, FFalse{}).(FFalse); !ok {
		t.Error("And with false")
	}
	if _, ok := Or(FFalse{}, FTrue{}).(FTrue); !ok {
		t.Error("Or with true")
	}
	if _, ok := Not(Not(FBoolVar{"p"})).(FBoolVar); !ok {
		t.Error("double negation")
	}
}

// Property: for random small integer constants a,b the prover agrees with
// direct evaluation of (x = a ∧ y = b) → comparisons.
func TestProverAgreesWithEvaluation(t *testing.T) {
	check := func(a8, b8 int8) bool {
		a, b := int64(a8), int64(b8)
		prem := And(Eq(x(), n(a)), Eq(y(), n(b)))
		cases := []struct {
			f    Formula
			want bool
		}{
			{Le(x(), y()), a <= b},
			{Lt(x(), y()), a < b},
			{Eq(x(), y()), a == b},
			{Ne(x(), y()), a != b},
			{Ge(x().Add(y()), n(0)), a+b >= 0},
		}
		for _, c := range cases {
			res := Prove(Implies(prem, c.f))
			if res.Proved != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Prove(f) and Satisfiable(¬f) are consistent.
func TestProveSatDuality(t *testing.T) {
	formulas := []Formula{
		Le(x(), n(3)),
		Implies(Le(x(), n(3)), Le(x(), n(5))),
		And(FBoolVar{"p"}, Le(x(), n(0))),
		Or(Ge(x(), n(0)), Lt(x(), n(0))),
	}
	for _, f := range formulas {
		res := Prove(f)
		sat, _, _ := Satisfiable(Not(f))
		if res.Proved == sat {
			t.Errorf("%s: proved=%v but ¬f sat=%v", String(f), res.Proved, sat)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	// Build a chain x0 ≤ x1 ≤ ... ≤ x15 → x0 ≤ x15.
	var prem []Formula
	for i := 0; i < 15; i++ {
		prem = append(prem, Le(VarTerm(vname(i)), VarTerm(vname(i+1))))
	}
	mustProve(t, Implies(And(prem...), Le(VarTerm(vname(0)), VarTerm(vname(15)))))
}

func vname(i int) string { return "v" + string(rune('a'+i)) }

// TestCounterexampleDeterministic proves one failing formula repeatedly:
// the model lists the theory literals, then the boolean variables, each in
// the order the negated formula first mentions them, and the refinement
// loop takes the same rounds every time.
func TestCounterexampleDeterministic(t *testing.T) {
	p, q := FBoolVar{"p"}, FBoolVar{"q"}
	f := Implies(
		And(Or(Le(x(), n(0)), Ge(x(), n(5))), Ge(x(), n(3)), Ne(x(), y()), p, Or(q, Le(y(), n(10)))),
		Lt(x(), y()))
	want := []string{
		"(not (x <= 0))", "(-1*x + 5 <= 0)", "(-1*x + 3 <= 0)", "(not (x + -1*y = 0))",
		"(y + -10 <= 0)", "(not (x + -1*y + 1 <= 0))", "p", "q",
	}
	for i := 0; i < 50; i++ {
		res := Prove(f)
		if res.Proved || res.Iterations != 5 || !reflect.DeepEqual(res.Counterexample, want) {
			t.Fatalf("run %d: proved=%v iterations=%d counterexample %q; want 5 iterations, %q",
				i, res.Proved, res.Iterations, res.Counterexample, want)
		}
	}
}
