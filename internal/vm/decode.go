package vm

// decode.go is the pre-decode pass of the interpreter's hot path: it lowers
// each ir.Func once, at load time, into a per-function array of dinstrs —
// small structs carrying a specialized handler func plus the operands that
// handler needs, pre-extracted. The inner loop then dispatches through one
// indirect call per instruction instead of re-discriminating the immutable
// fields of ir.Instr (Op, CKind, Float, NumBits, Signed, NoBox) on every
// execution. On top of the decoded stream, fuse.go builds superinstructions
// and icache.go attaches monomorphic inline caches to field and vector
// access. docs/vm.md documents the full decode→fuse→dispatch pipeline.

import (
	"bitc/internal/ir"
)

// DispatchMode selects the interpreter's dispatch strategy. The zero value
// is the fast path; the other modes exist as baselines for differential
// testing and speedup measurement (see BENCH_E1.json's dispatchSpeedup).
type DispatchMode int

// Dispatch strategies.
const (
	// DispatchFused pre-decodes into specialized handlers and fuses
	// superinstructions (the default).
	DispatchFused DispatchMode = iota
	// DispatchSwitch is the legacy per-instruction switch interpreter, kept
	// as the behavioural reference and performance baseline.
	DispatchSwitch
)

// String names the dispatch mode as it appears in run banners and listings.
func (m DispatchMode) String() string {
	if m == DispatchSwitch {
		return "switch"
	}
	return "fused"
}

// handler executes one decoded instruction (or superinstruction). Handlers
// are package-level funcs so the dispatch array is pointer-dense and the
// per-instruction work is one indirect call.
type handler func(v *VM, t *Thread, fr *Frame, d *dinstr) error

// dinstr is one decoded instruction slot. For a superinstruction, the slot
// holds component 1's operands inline, `base` holds component 1's original
// handler, and `fused` holds the remaining components; `width` is the number
// of original instructions the slot consumes (for quantum and instruction-
// budget accounting — see VM.step and VM.tickFused).
type dinstr struct {
	h       handler
	base    handler // first component of a fused chain
	op      ir.Op
	width   uint8
	boxIt   bool // box the result (Boxed mode, NoBox not honoured)
	canFuse bool // specialized, non-blocking, frame-neutral: fusible
	// straight marks a slot that cannot push or pop a frame, branch,
	// block, yield, or roll back a transaction: after it, the dispatch loop
	// runs the next slot of the same block without re-checking the thread
	// (see VM.runQuantum). A slot that absorbs a branch is never straight.
	straight bool

	dst, a, b ir.Reg
	args      []ir.Reg
	imm       int64
	bits      int
	signed    bool

	val    Value   // prebuilt constant (OpConst)
	k      slot    // val's scalar lane (OpConst)
	callee *dfunc  // direct call target (OpCall)
	ic     *icache // inline cache (field/vector access)

	// Fusion state.
	fused   []dinstr
	cond    ir.Reg // fused-in branch condition register
	to, els int    // fused-in branch targets

	label string    // decode-time classification, for listings
	src   *ir.Instr // original instruction (slow paths, diagnostics)
}

// dterm is a decoded block terminator.
type dterm struct {
	kind    ir.TermKind
	cond    ir.Reg
	to, els int
	val     ir.Reg
}

// dblock is a decoded basic block.
type dblock struct {
	code []dinstr
	term dterm
	// termFused marks the terminator as absorbed into the block's last
	// superinstruction (a fused compare+branch); the dterm is then dead but
	// kept for listings.
	termFused bool
}

// dfunc is a decoded function.
type dfunc struct {
	fn     *ir.Func
	blocks []dblock
}

// ensureDecoded lowers the module once, before the first run. Two passes:
// the dfunc shells exist before any body decodes, so OpCall sites resolve
// direct callee pointers even for forward references.
func (v *VM) ensureDecoded() {
	if v.dfuncs != nil {
		return
	}
	v.dfuncs = make([]*dfunc, len(v.mod.Funcs))
	for i, f := range v.mod.Funcs {
		v.dfuncs[i] = &dfunc{fn: f}
	}
	for i, f := range v.mod.Funcs {
		v.decodeFunc(v.dfuncs[i], f)
	}
}

func (v *VM) decodeFunc(df *dfunc, f *ir.Func) {
	df.blocks = make([]dblock, len(f.Blocks))
	for bi, b := range f.Blocks {
		code := make([]dinstr, len(b.Instrs))
		for ii := range b.Instrs {
			code[ii] = v.decodeInstr(&b.Instrs[ii])
		}
		term := dterm{kind: b.Term.Kind, cond: b.Term.Cond, to: b.Term.To, els: b.Term.Else, val: b.Term.Val}
		blk := dblock{code: code, term: term}
		if v.opts.Dispatch != DispatchSwitch {
			blk = fuseBlock(blk)
		}
		df.blocks[bi] = blk
	}
}

// constValue prebuilds an OpConst payload.
func constValue(in *ir.Instr) Value {
	switch in.CKind {
	case ir.ConstInt:
		return intVal(in.Imm)
	case ir.ConstFloat:
		return floatVal(in.FImm)
	case ir.ConstBool:
		return boolVal(in.Imm != 0)
	case ir.ConstChar:
		return charVal(in.Imm)
	case ir.ConstString:
		return strVal(in.Str)
	default:
		return unitVal()
	}
}

// decodeInstr specializes one instruction on its immutable fields:
// (Op, CKind, Float, NumBits, Signed) plus the representation mode. Ops
// without a specialized handler fall back to hSlow, which runs the legacy
// switch — behaviour is defined by exec.go either way.
func (v *VM) decodeInstr(in *ir.Instr) dinstr {
	d := dinstr{
		op: in.Op, width: 1,
		dst: in.Dst, a: in.A, b: in.B, args: in.Args,
		imm: in.Imm, bits: in.NumBits, signed: in.Signed,
		src: in,
	}
	d.boxIt = v.opts.Mode == Boxed && !(v.opts.RespectNoBox && in.NoBox)
	d.straight = straightOp(in.Op)
	if v.opts.Dispatch == DispatchSwitch {
		d.h, d.label = hSlow, "switch"
		return d
	}
	switch in.Op {
	case ir.OpConst:
		d.val = constValue(in)
		d.k = scalarOf(d.val)
		d.boxIt = d.boxIt && boxableKind(d.val.K) // unit and strings are never boxed
		switch {
		case d.boxIt:
			d.h, d.label = hConstBox, "const.box"
		case d.val.K == KString:
			d.h, d.label = hConstStr, "const"
		default:
			d.h, d.label = hConst, "const"
		}
		d.canFuse = true
	case ir.OpMov:
		d.h, d.label, d.canFuse = hMov, "mov", true
	case ir.OpGlobalGet:
		d.h, d.label, d.canFuse = hGlobal, "global", true
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod:
		if in.Float {
			d.h, d.label = hSlow, "arith.f"
			break
		}
		d.canFuse = true
		switch in.Op {
		case ir.OpAdd:
			d.h, d.label = hAddI, "add.i"
		case ir.OpSub:
			d.h, d.label = hSubI, "sub.i"
		case ir.OpMul:
			d.h, d.label = hMulI, "mul.i"
		case ir.OpDiv:
			d.h, d.label = hDivI, "div.i"
		default:
			d.h, d.label = hModI, "mod.i"
		}
	case ir.OpBitAnd, ir.OpBitOr, ir.OpBitXor, ir.OpShl, ir.OpShr:
		d.h, d.label, d.canFuse = hBitI, "bit.i", true
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		if in.Float {
			d.h, d.label = hSlow, "cmp.f"
			break
		}
		d.canFuse = true
		switch in.Op {
		case ir.OpEq:
			d.h, d.label = hEqI, "eq.i"
		case ir.OpNe:
			d.h, d.label = hNeI, "ne.i"
		case ir.OpLt:
			d.h, d.label = hLtI, "lt.i"
		case ir.OpLe:
			d.h, d.label = hLeI, "le.i"
		case ir.OpGt:
			d.h, d.label = hGtI, "gt.i"
		default:
			d.h, d.label = hGeI, "ge.i"
		}
	case ir.OpNot:
		d.h, d.label = hNot, "lnot"
	case ir.OpCall:
		d.callee = v.dfuncs[in.Imm]
		d.h, d.label = hCall, "call"
	case ir.OpCallClosure:
		d.h, d.label = hCallClosure, "callc"
	case ir.OpGetField:
		d.ic = &icache{}
		d.h, d.label, d.canFuse = hGetField, "getfield.ic", true
	case ir.OpSetField:
		d.ic = &icache{}
		d.h, d.label = hSetField, "setfield.ic"
	case ir.OpVecRef:
		d.ic = &icache{}
		d.h, d.label, d.canFuse = hVecRef, "vecref.ic", true
		// A site the bounds prover discharged drops the fast-path bounds
		// compare. The label marks the elision for disasm; it only appears
		// when a proof set was supplied, so baseline disassembly is stable.
		if in.Pos != 0 && v.opts.BoundsElide[in.Pos] {
			d.h, d.label = hVecRefElide, "vecref.ic!"
		}
	case ir.OpVecSet:
		d.ic = &icache{}
		d.h, d.label = hVecSet, "vecset.ic"
		if in.Pos != 0 && v.opts.BoundsElide[in.Pos] {
			d.h, d.label = hVecSetElide, "vecset.ic!"
		}
	case ir.OpVecLen:
		d.h, d.label = hVecLen, "veclen"
	default:
		d.h, d.label = hSlow, "slow"
	}
	return d
}

// boxableKind reports whether Boxed mode boxes a value of kind k.
func boxableKind(k Kind) bool {
	return k == KInt || k == KBool || k == KChar || k == KFloat
}

// straightOp reports whether op is frame-neutral for the dispatch loop:
// calls push frames, builtins may block or yield, atomic.end may roll the
// thread back, lock acquisition may block, and an extern runs host code.
func straightOp(op ir.Op) bool {
	switch op {
	case ir.OpCall, ir.OpCallClosure, ir.OpCallExtern, ir.OpBuiltin,
		ir.OpAtomicEnd, ir.OpLockAcquire:
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Specialized handlers
// ---------------------------------------------------------------------------

// hSlow delegates to the legacy switch interpreter: the always-correct path
// for ops without a specialized handler and the whole of DispatchSwitch.
func hSlow(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	return v.exec(t, fr, d.src)
}

// hConst stores a unit, bool, int, char or float constant: scalar lane only.
func hConst(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.sc[d.dst] = d.k
	return nil
}

func hConstStr(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.set(d.dst, d.val)
	return nil
}

func hConstBox(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	v.boxInto(fr, d.dst, d.k.kind, d.k.bits)
	return nil
}

func hMov(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	copyReg(fr, d.dst, fr, d.a)
	return nil
}

func hGlobal(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	fr.set(d.dst, v.globals[d.imm])
	return nil
}

func hAddI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	r := v.intReg(fr, d.a) + v.intReg(fr, d.b)
	v.putInt(d, fr, KInt, wrap(r, d.bits, d.signed))
	return nil
}

func hSubI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	r := v.intReg(fr, d.a) - v.intReg(fr, d.b)
	v.putInt(d, fr, KInt, wrap(r, d.bits, d.signed))
	return nil
}

func hMulI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	r := v.intReg(fr, d.a) * v.intReg(fr, d.b)
	v.putInt(d, fr, KInt, wrap(r, d.bits, d.signed))
	return nil
}

func hDivI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := v.intReg(fr, d.a), v.intReg(fr, d.b)
	if b == 0 {
		return trapf("division by zero")
	}
	var r int64
	if d.signed {
		r = a / b
	} else {
		r = int64(uint64(a) / uint64(b))
	}
	v.putInt(d, fr, KInt, wrap(r, d.bits, d.signed))
	return nil
}

func hModI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := v.intReg(fr, d.a), v.intReg(fr, d.b)
	if b == 0 {
		return trapf("modulo by zero")
	}
	var r int64
	if d.signed {
		r = a % b
	} else {
		r = int64(uint64(a) % uint64(b))
	}
	v.putInt(d, fr, KInt, wrap(r, d.bits, d.signed))
	return nil
}

// hBitI covers the bitwise/shift group; the op re-switch is cold enough
// (these are rare in the corpus) that five more handlers aren't worth it.
func hBitI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	a, b := v.intReg(fr, d.a), v.intReg(fr, d.b)
	var r int64
	switch d.op {
	case ir.OpBitAnd:
		r = a & b
	case ir.OpBitOr:
		r = a | b
	case ir.OpBitXor:
		r = a ^ b
	case ir.OpShl:
		r = a << (uint64(b) & 63)
	default: // OpShr
		if d.signed {
			r = a >> (uint64(b) & 63)
		} else {
			r = int64(uint64(a) >> (uint64(b) & 63))
		}
	}
	v.putInt(d, fr, KInt, wrap(r, d.bits, d.signed))
	return nil
}

// cmpFallback mirrors exec.go's compare dispatch: strings, floats, and
// references take the dynamic path. KUnit..KChar (the kinds below KFloat)
// compare as integers, exactly like the legacy default branch.
func cmpFallback(fr *Frame, d *dinstr) bool {
	return fr.sc[d.a].kind >= KFloat || fr.sc[d.b].kind >= KFloat
}

func hEqI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if cmpFallback(fr, d) {
		return v.compare(t, fr, d.src)
	}
	v.putBool(d, fr, v.intReg(fr, d.a) == v.intReg(fr, d.b))
	return nil
}

func hNeI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if cmpFallback(fr, d) {
		return v.compare(t, fr, d.src)
	}
	v.putBool(d, fr, v.intReg(fr, d.a) != v.intReg(fr, d.b))
	return nil
}

func hLtI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if cmpFallback(fr, d) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.intReg(fr, d.a), v.intReg(fr, d.b)
	if d.signed {
		v.putBool(d, fr, ai < bi)
	} else {
		v.putBool(d, fr, uint64(ai) < uint64(bi))
	}
	return nil
}

func hLeI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if cmpFallback(fr, d) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.intReg(fr, d.a), v.intReg(fr, d.b)
	if d.signed {
		v.putBool(d, fr, ai <= bi)
	} else {
		v.putBool(d, fr, uint64(ai) <= uint64(bi))
	}
	return nil
}

func hGtI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if cmpFallback(fr, d) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.intReg(fr, d.a), v.intReg(fr, d.b)
	if d.signed {
		v.putBool(d, fr, ai > bi)
	} else {
		v.putBool(d, fr, uint64(ai) > uint64(bi))
	}
	return nil
}

func hGeI(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if cmpFallback(fr, d) {
		return v.compare(t, fr, d.src)
	}
	ai, bi := v.intReg(fr, d.a), v.intReg(fr, d.b)
	if d.signed {
		v.putBool(d, fr, ai >= bi)
	} else {
		v.putBool(d, fr, uint64(ai) >= uint64(bi))
	}
	return nil
}

func hNot(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	v.putBool(d, fr, !fr.truthy(d.a))
	return nil
}

func hCall(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	return v.call(t, fr, d.callee, d.args, nil, d.dst)
}

func hCallClosure(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	return v.callClosure(t, fr, d.a, d.args, d.dst)
}

func hVecLen(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	o, err := v.refOperand(fr, d.a, OVector, "vector-length")
	if err != nil {
		return err
	}
	v.putInt(d, fr, KInt, int64(len(o.Elems)))
	return nil
}
