package vm

// regs.go: the register file of a frame, split into two lanes so that
// scalar execution touches no pointers. A Value is 56 bytes with three
// pointer fields; storing one into a register pays the GC write barrier on
// every store, boxed or not. The scalar lane is pointer-free, so integer,
// boolean, compare, constant and fused handlers read and write plain words;
// the ref lane is written only when a value carries a pointer — a string,
// an object reference, or (Boxed mode) the box a scalar lives in.
//
// Invariant: a register's ref slot is meaningful only when its scalar slot
// says so (kind KString or KRef, or boxed). Other ref slots may hold stale
// pointers from an earlier value of the register; nothing reads them, and
// releaseFrame clears the lane before a frame returns to the pool.

import (
	"math"

	"bitc/internal/ir"
)

// slot is the pointer-free scalar lane of one register. bits holds the
// integer, boolean or character value, or a float's IEEE bits; it is 0 for
// unit, strings and references.
type slot struct {
	bits  uint64
	kind  Kind
	boxed bool // the ref slot holds the box this scalar lives in
}

// refSlot is the pointer lane of one register.
type refSlot struct {
	s string
	r *Object
	b *box
}

// hasRef reports whether the register's ref slot is live.
func (s slot) hasRef() bool { return s.kind >= KString || s.boxed }

// get converts register r to a Value.
func (fr *Frame) get(r ir.Reg) Value {
	s := fr.sc[r]
	val := Value{K: s.kind}
	switch s.kind {
	case KFloat:
		val.F = math.Float64frombits(s.bits)
	case KString:
		val.S = fr.rf[r].s
	case KRef:
		val.R = fr.rf[r].r
	default:
		val.I = int64(s.bits)
	}
	if s.boxed {
		val.b = fr.rf[r].b
	}
	return val
}

// scalarOf is val's scalar lane.
func scalarOf(val Value) slot {
	s := slot{kind: val.K, boxed: val.b != nil}
	switch val.K {
	case KFloat:
		s.bits = math.Float64bits(val.F)
	case KString, KRef:
	default:
		s.bits = uint64(val.I)
	}
	return s
}

// set stores val into register r, writing the ref lane only for the
// pointer a value carries.
func (fr *Frame) set(r ir.Reg, val Value) {
	s := scalarOf(val)
	switch val.K {
	case KString:
		fr.rf[r].s = val.S
	case KRef:
		fr.rf[r].r = val.R
	}
	if s.boxed {
		fr.rf[r].b = val.b
	}
	fr.sc[r] = s
}

// copyReg copies register si of src into register di of dst.
func copyReg(dst *Frame, di ir.Reg, src *Frame, si ir.Reg) {
	s := src.sc[si]
	dst.sc[di] = s
	if s.hasRef() {
		dst.rf[di] = src.rf[si]
	}
}

// setInt stores an unboxed scalar of kind k.
func (fr *Frame) setInt(r ir.Reg, k Kind, x int64) {
	fr.sc[r] = slot{bits: uint64(x), kind: k}
}

// truthy is Value.Truthy on a register: it reads the immediate, never the
// box, exactly like the Value method.
func (fr *Frame) truthy(r ir.Reg) bool { return fr.sc[r].bits != 0 }

// intView is the integer field a Value of register r would carry: the
// immediate for unit, bool, int and char (boxed or not), 0 otherwise.
func (fr *Frame) intView(r int) uint64 {
	if fr.sc[r].kind == KFloat {
		return 0
	}
	return fr.sc[r].bits
}

// intReg reads an integer operand, paying the unbox cost when it is boxed:
// loadInt on a register.
func (v *VM) intReg(fr *Frame, r ir.Reg) int64 {
	if fr.sc[r].boxed {
		v.Stats.BoxReads++
		if v.obs != nil {
			v.obs.BoxRead()
		}
		return fr.rf[r].b.i
	}
	return int64(fr.sc[r].bits)
}

// putInt stores a freshly computed integer-like scalar of kind k, paying
// the boxing cost when the decode pass determined the result is boxed.
func (v *VM) putInt(d *dinstr, fr *Frame, k Kind, x int64) {
	if d.boxIt {
		v.boxInto(fr, d.dst, k, uint64(x))
		return
	}
	fr.sc[d.dst] = slot{bits: uint64(x), kind: k}
}

// putBool stores a comparison result.
func (v *VM) putBool(d *dinstr, fr *Frame, b bool) {
	var x int64
	if b {
		x = 1
	}
	v.putInt(d, fr, KBool, x)
}

// boxInto allocates a fresh box for the scalar (k, bits) and stores it in
// register r.
func (v *VM) boxInto(fr *Frame, r ir.Reg, k Kind, bits uint64) {
	b := &box{}
	if k == KFloat {
		b.f = math.Float64frombits(bits)
	} else {
		b.i = int64(bits)
	}
	fr.rf[r].b = b
	fr.sc[r] = slot{bits: bits, kind: k, boxed: true}
	v.Stats.BoxAllocs++
	v.Stats.BoxBytes += 16
	if v.obs != nil {
		v.obsAlloc("box", 16)
	}
}
