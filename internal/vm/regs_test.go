package vm

import (
	"math"
	"testing"

	"bitc/internal/ir"
)

// sameValue is == on Values with floats compared by bit pattern, so NaN
// equals itself and -0.0 differs from +0.0.
func sameValue(a, b Value) bool {
	if math.Float64bits(a.F) != math.Float64bits(b.F) {
		return false
	}
	a.F, b.F = 0, 0
	return a == b
}

// laneValues covers every kind, the boxed variants, and the edge scalars.
func laneValues() []Value {
	obj := &Object{Kind: OStruct, Region: -1}
	vals := []Value{
		unitVal(), boolVal(false), boolVal(true),
		intVal(0), intVal(-1), intVal(math.MinInt64), intVal(math.MaxInt64),
		charVal('x'), charVal(0x10FFFF),
		floatVal(1.5), floatVal(math.NaN()), floatVal(math.Copysign(0, -1)), floatVal(math.Inf(-1)),
		strVal(""), strVal("lanes"), refVal(obj),
	}
	for _, v := range []Value{boolVal(true), intVal(math.MinInt64), intVal(7), charVal('y')} {
		v.b = &box{i: v.I}
		vals = append(vals, v)
	}
	for _, f := range []float64{2.25, math.NaN(), math.Copysign(0, -1)} {
		v := floatVal(f)
		v.b = &box{f: f}
		vals = append(vals, v)
	}
	return vals
}

// TestLaneRoundTrip: set then get returns an identical Value for every
// kind, whatever the register held before — a stale pointer left in the
// ref lane by an earlier value must never leak into a later one.
func TestLaneRoundTrip(t *testing.T) {
	vals := laneValues()
	fr := &Frame{sc: make([]slot, 2), rf: make([]refSlot, 2)}
	for _, prev := range vals {
		for _, v := range vals {
			fr.set(0, prev)
			fr.set(0, v)
			if got := fr.get(0); !sameValue(got, v) {
				t.Fatalf("set %#v over %#v: get = %#v", v, prev, got)
			}
			fr.set(1, prev)
			copyReg(fr, 1, fr, 0)
			if got := fr.get(1); !sameValue(got, v) {
				t.Fatalf("copyReg of %#v over %#v: get = %#v", v, prev, got)
			}
		}
	}
}

// TestReleasedFrameHoldsNoRefs: a frame returned to the pool keeps no
// string, object or box alive, and comes back out with every register unit.
func TestReleasedFrameHoldsNoRefs(t *testing.T) {
	v := New(&ir.Module{}, Options{})
	df := &dfunc{fn: &ir.Func{NumRegs: len(laneValues())}}
	fr := v.newFrame(df, ir.NoReg)
	for i, val := range laneValues() {
		fr.set(ir.Reg(i), val)
	}
	v.releaseFrame(fr)
	for i, r := range fr.rf {
		if r != (refSlot{}) {
			t.Fatalf("pooled frame register %d still holds %#v", i, r)
		}
	}
	again := v.newFrame(df, ir.NoReg)
	if again != fr {
		t.Fatal("newFrame did not reuse the pooled frame")
	}
	for i := range again.sc {
		if got := again.get(ir.Reg(i)); got != unitVal() {
			t.Fatalf("reused frame register %d = %#v, want unit", i, got)
		}
	}
}
