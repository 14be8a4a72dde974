package vm

// icache.go: monomorphic inline caches on field and vector access. Each
// OpGetField/OpSetField/OpVecRef/OpVecSet site owns one icache, filled the
// first time the slow path succeeds on a cacheable object and consulted on
// every later execution. A hit skips the operand kind check, the region
// liveness check, and (for vectors) re-deriving the bounds; a miss falls
// back to the legacy switch in exec.go, which re-fills the cache. Hits and
// misses are counted in Stats.ICHits/ICMisses (exported as icHits/icMisses
// in bitc-metrics/v1). docs/vm.md states the invalidation rules.

import (
	"bitc/internal/ir"
	"bitc/internal/types"
)

// icache is one dispatch site's monomorphic cache.
//
// Field sites key on the struct's *types.StructInfo identity — every object
// of that declared shape shares the cache, so a loop walking a vector of
// nodes stays monomorphic. The cached field index was bounds-checked at fill
// time and a shape's field count never changes, so a hit needs no bounds
// check; region liveness and transaction state are re-checked on every hit
// because they are per-object and per-thread, not per-shape.
//
// Vector sites key on the *Object identity of the last-seen vector. The
// cache is only filled for heap vectors (Region < 0) and an object's region
// never changes, so a hit can skip the liveness check entirely; the element
// count is fixed at allocation, so the remembered bound stays valid. The
// index is still range-checked against that bound (it is data, not shape).
type icache struct {
	shape *types.StructInfo // field sites: last-seen struct declaration
	obj   *Object           // vector sites: last-seen vector
	bound int64             // vector sites: len(obj.Elems) at fill time
}

func hGetField(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if fr.sc[d.a].kind == KRef {
		o := fr.rf[d.a].r
		if o.SDecl != nil && o.SDecl == d.ic.shape && o.Region < 0 && t.txn == nil {
			v.Stats.ICHits++
			v.Stats.FieldReads++
			fr.set(d.dst, o.Elems[d.imm])
			return nil
		}
	}
	v.Stats.ICMisses++
	err := v.exec(t, fr, d.src)
	if err == nil {
		d.ic.fillField(fr, d.a, t)
	}
	return err
}

func hSetField(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	if fr.sc[d.a].kind == KRef {
		o := fr.rf[d.a].r
		if o.SDecl != nil && o.SDecl == d.ic.shape && o.Region < 0 && t.txn == nil {
			v.Stats.ICHits++
			v.Stats.FieldWrites++
			o.Elems[d.imm] = fr.get(d.b)
			o.Version++ // STM conflict detection sees cached writes too
			return nil
		}
	}
	v.Stats.ICMisses++
	err := v.exec(t, fr, d.src)
	if err == nil {
		d.ic.fillField(fr, d.a, t)
	}
	return err
}

// fillField records the shape after a successful slow-path field access.
// Region-allocated objects are cacheable for field sites — the fast path
// re-checks liveness — but transactional accesses are not: the fill would
// memoize a read that bypasses the read/write buffers.
func (ic *icache) fillField(fr *Frame, r ir.Reg, t *Thread) {
	if t.txn != nil || fr.sc[r].kind != KRef {
		return
	}
	ic.shape = fr.rf[r].r.SDecl
}

func hVecRef(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	ic := d.ic
	if o := ic.hit(fr, d.a, t); o != nil {
		// Once the identity matches, this path is definitive: the index is
		// loaded exactly once (the box-read accounting must match the slow
		// path's), and out of bounds traps here with the slow path's message.
		i := v.intReg(fr, d.b)
		if uint64(i) >= uint64(ic.bound) {
			v.Stats.ICMisses++
			return trapf("vector index %d out of range 0..%d", i, ic.bound-1)
		}
		v.Stats.ICHits++
		v.Stats.VecOps++
		fr.set(d.dst, o.Elems[i])
		return nil
	}
	v.Stats.ICMisses++
	err := v.exec(t, fr, d.src)
	if err == nil {
		ic.fillVec(fr, d.a, t)
	}
	return err
}

func hVecSet(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	ic := d.ic
	if o := ic.hit(fr, d.a, t); o != nil {
		i := v.intReg(fr, d.b)
		if uint64(i) >= uint64(ic.bound) {
			v.Stats.ICMisses++
			return trapf("vector index %d out of range 0..%d", i, ic.bound-1)
		}
		v.Stats.ICHits++
		v.Stats.VecOps++
		o.Elems[i] = fr.get(d.args[0])
		o.Version++
		return nil
	}
	v.Stats.ICMisses++
	err := v.exec(t, fr, d.src)
	if err == nil {
		ic.fillVec(fr, d.a, t)
	}
	return err
}

// hVecRefElide is hVecRef minus the bounds compare: selected at decode time
// only for sites the static prover discharged (Options.BoundsElide), so the
// index is in range on every execution that reaches the fast path. The
// identity and transaction guards, counter increments, and index-load
// accounting are kept exactly as in hVecRef — elision must be invisible to
// everything but the cycle count.
func hVecRefElide(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	ic := d.ic
	if o := ic.hit(fr, d.a, t); o != nil {
		i := v.intReg(fr, d.b)
		v.Stats.ICHits++
		v.Stats.VecOps++
		fr.set(d.dst, o.Elems[i])
		return nil
	}
	v.Stats.ICMisses++
	err := v.exec(t, fr, d.src)
	if err == nil {
		ic.fillVec(fr, d.a, t)
	}
	return err
}

// hVecSetElide is hVecSet minus the bounds compare; see hVecRefElide.
func hVecSetElide(v *VM, t *Thread, fr *Frame, d *dinstr) error {
	ic := d.ic
	if o := ic.hit(fr, d.a, t); o != nil {
		i := v.intReg(fr, d.b)
		v.Stats.ICHits++
		v.Stats.VecOps++
		o.Elems[i] = fr.get(d.args[0])
		o.Version++
		return nil
	}
	v.Stats.ICMisses++
	err := v.exec(t, fr, d.src)
	if err == nil {
		ic.fillVec(fr, d.a, t)
	}
	return err
}

// fillVec records the vector identity after a successful slow-path access.
// Only heap vectors are cached: identity then implies liveness forever, so
// the hot path carries no region check at all.
func (ic *icache) fillVec(fr *Frame, r ir.Reg, t *Thread) {
	if t.txn != nil || fr.sc[r].kind != KRef || fr.rf[r].r.Region >= 0 {
		return
	}
	ic.obj = fr.rf[r].r
	ic.bound = int64(len(ic.obj.Elems))
}

// hit returns the vector in register r when it is the cached identity and
// no transaction is open, else nil.
func (ic *icache) hit(fr *Frame, r ir.Reg, t *Thread) *Object {
	if fr.sc[r].kind == KRef && fr.rf[r].r == ic.obj && t.txn == nil {
		return ic.obj
	}
	return nil
}
