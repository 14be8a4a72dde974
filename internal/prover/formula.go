// Package prover implements the automated reasoning engine behind bitc's
// constraint checking (the paper's challenge 1: "integrate existing concepts
// with advances in prover technology"). It is a small, from-scratch DPLL(T)
// solver: a CNF SAT core cooperating with a Fourier–Motzkin decision
// procedure for linear integer arithmetic.
package prover

import (
	"strconv"
	"strings"
)

// Term is a linear integer term: Const + Σ c·v over its coefficient vector.
// The vector is sorted by variable name and holds no zero coefficients, so a
// term has exactly one representation. Terms are values: no operation
// writes to a vector after building it, so results may share one.
type Term struct {
	Const int64
	vec   []monomial
}

// monomial is one entry c·name of a term's coefficient vector.
type monomial struct {
	name string
	c    int64
}

// NewTerm builds a constant term.
func NewTerm(c int64) Term { return Term{Const: c} }

// VarTerm builds the term 1·name.
func VarTerm(name string) Term {
	return Term{vec: []monomial{{name, 1}}}
}

// Coeff returns the coefficient of name in t (0 when absent).
func (t Term) Coeff(name string) int64 {
	for _, m := range t.vec {
		if m.name == name {
			return m.c
		}
	}
	return 0
}

// Add returns t + u.
func (t Term) Add(u Term) Term { return combine(1, t, 1, u) }

// Sub returns t - u.
func (t Term) Sub(u Term) Term { return combine(1, t, -1, u) }

// Scale returns k·t.
func (t Term) Scale(k int64) Term {
	switch k {
	case 0:
		return NewTerm(0)
	case 1:
		return t
	}
	r := Term{Const: t.Const * k, vec: make([]monomial, len(t.vec))}
	for i, m := range t.vec {
		r.vec[i] = monomial{m.name, m.c * k}
	}
	return r
}

// combine returns a·t + b·u by one merge of the two sorted vectors,
// dropping the coefficients that cancel.
func combine(a int64, t Term, b int64, u Term) Term {
	r := Term{Const: a*t.Const + b*u.Const}
	if len(t.vec)+len(u.vec) == 0 {
		return r
	}
	r.vec = make([]monomial, 0, len(t.vec)+len(u.vec))
	i, j := 0, 0
	for i < len(t.vec) || j < len(u.vec) {
		var m monomial
		switch {
		case j == len(u.vec) || i < len(t.vec) && t.vec[i].name < u.vec[j].name:
			m = monomial{t.vec[i].name, a * t.vec[i].c}
			i++
		case i == len(t.vec) || u.vec[j].name < t.vec[i].name:
			m = monomial{u.vec[j].name, b * u.vec[j].c}
			j++
		default:
			m = monomial{t.vec[i].name, a*t.vec[i].c + b*u.vec[j].c}
			i++
			j++
		}
		if m.c != 0 {
			r.vec = append(r.vec, m)
		}
	}
	return r
}

// IsConst reports whether t has no variables.
func (t Term) IsConst() bool { return len(t.vec) == 0 }

// String renders the term: its monomials in name order, then the constant
// when it is non-zero or the term has no variables.
func (t Term) String() string {
	var b strings.Builder
	for i, m := range t.vec {
		if i > 0 {
			b.WriteString(" + ")
		}
		if m.c != 1 {
			b.WriteString(strconv.FormatInt(m.c, 10))
			b.WriteByte('*')
		}
		b.WriteString(m.name)
	}
	if t.Const != 0 || len(t.vec) == 0 {
		if len(t.vec) > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(strconv.FormatInt(t.Const, 10))
	}
	return b.String()
}

// Formula is a boolean combination of linear atoms and boolean variables.
type Formula interface {
	fString() string
}

// FTrue / FFalse are constants.
type FTrue struct{}

// FFalse is the false constant.
type FFalse struct{}

// FBoolVar is an uninterpreted boolean variable.
type FBoolVar struct{ Name string }

// AtomOp is the relation of a linear atom.
type AtomOp int

// Atom relations. Only ≤ and = are primitive; the constructors below
// normalise the rest.
const (
	OpLe AtomOp = iota // Term ≤ 0
	OpEq               // Term = 0
)

// FAtom is a linear-arithmetic atom: T ≤ 0 or T = 0.
type FAtom struct {
	Op AtomOp
	T  Term
}

// FNot negates.
type FNot struct{ F Formula }

// FAnd conjoins.
type FAnd struct{ Fs []Formula }

// FOr disjoins.
type FOr struct{ Fs []Formula }

func (FTrue) fString() string  { return "true" }
func (FFalse) fString() string { return "false" }
func (v FBoolVar) fString() string {
	return v.Name
}
func (a FAtom) fString() string {
	if a.Op == OpEq {
		return "(" + a.T.String() + " = 0)"
	}
	return "(" + a.T.String() + " <= 0)"
}
func (n FNot) fString() string { return "(not " + n.F.fString() + ")" }
func (a FAnd) fString() string {
	parts := make([]string, len(a.Fs))
	for i, f := range a.Fs {
		parts[i] = f.fString()
	}
	return "(and " + strings.Join(parts, " ") + ")"
}
func (o FOr) fString() string {
	parts := make([]string, len(o.Fs))
	for i, f := range o.Fs {
		parts[i] = f.fString()
	}
	return "(or " + strings.Join(parts, " ") + ")"
}

// String renders any formula.
func String(f Formula) string { return f.fString() }

// Convenience constructors -------------------------------------------------

// Le builds a ≤ b.
func Le(a, b Term) Formula { return FAtom{Op: OpLe, T: a.Sub(b)} }

// Lt builds a < b, i.e. a ≤ b-1 over the integers.
func Lt(a, b Term) Formula { return FAtom{Op: OpLe, T: a.Sub(b).Add(NewTerm(1))} }

// Ge builds a ≥ b.
func Ge(a, b Term) Formula { return Le(b, a) }

// Gt builds a > b.
func Gt(a, b Term) Formula { return Lt(b, a) }

// Eq builds a = b.
func Eq(a, b Term) Formula { return FAtom{Op: OpEq, T: a.Sub(b)} }

// Ne builds a ≠ b.
func Ne(a, b Term) Formula { return Not(Eq(a, b)) }

// Not negates (with basic simplification).
func Not(f Formula) Formula {
	switch f := f.(type) {
	case FTrue:
		return FFalse{}
	case FFalse:
		return FTrue{}
	case FNot:
		return f.F
	default:
		return FNot{F: f}
	}
}

// And conjoins.
func And(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case FTrue:
		case FFalse:
			return FFalse{}
		case FAnd:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FTrue{}
	case 1:
		return out[0]
	}
	return FAnd{Fs: out}
}

// Or disjoins.
func Or(fs ...Formula) Formula {
	var out []Formula
	for _, f := range fs {
		switch f := f.(type) {
		case FFalse:
		case FTrue:
			return FTrue{}
		case FOr:
			out = append(out, f.Fs...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FFalse{}
	case 1:
		return out[0]
	}
	return FOr{Fs: out}
}

// Implies builds a → b.
func Implies(a, b Formula) Formula { return Or(Not(a), b) }
