package vm

import "bitc/internal/ir"

// txn is an optimistic software transaction (the atomic form). Reads record
// the version of each object at first touch; writes are buffered. At commit,
// if any read object's version moved, the transaction rolls back to its
// snapshot and re-executes — the composable alternative to locks argued for
// by Harris et al. and discussed by the paper's challenge 4.
type txn struct {
	reads  map[*Object]uint64
	writes map[*Object]map[int]Value

	// Rollback snapshot. regs holds the beginning frame's registers as
	// Values; it is never written after atomicBegin, so every retry of the
	// transaction restores from the same slice.
	frameDepth int
	block, ip  int
	regs       []Value
	depth      int // nesting depth (flattened)
	attempts   int
}

const maxTxnAttempts = 1000

func (v *VM) atomicBegin(t *Thread, fr *Frame) error {
	if t.txn != nil {
		t.txn.depth++
		return nil
	}
	snapRegs := make([]Value, len(fr.sc))
	for i := range snapRegs {
		snapRegs[i] = fr.get(ir.Reg(i))
	}
	t.txn = &txn{
		reads:      map[*Object]uint64{},
		writes:     map[*Object]map[int]Value{},
		frameDepth: len(t.frames),
		block:      fr.block,
		ip:         fr.ip - 1, // re-execute the OpAtomicBegin on retry
		regs:       snapRegs,
		depth:      1,
		attempts:   1,
	}
	return nil
}

// ForceAtomicRetries makes the next n top-level atomic commits abort and
// retry as if their read sets had been invalidated. It exists for the
// static/dynamic agreement tests: a program the atomicity analyzer flags for
// an irreversible effect inside an atomic region (BITC-ATOM002) must
// observably re-execute that effect under a forced retry, while its fixed
// twin — the effect hoisted out of the transaction — must not.
func (v *VM) ForceAtomicRetries(n int) { v.forceRetries = n }

func (v *VM) atomicEnd(t *Thread) error {
	tx := t.txn
	if tx == nil {
		return trapf("atomic.end outside a transaction")
	}
	tx.depth--
	if tx.depth > 0 {
		return nil
	}
	// Test hook: simulate a conflicting commit without a second thread.
	if v.forceRetries > 0 {
		v.forceRetries--
		return v.atomicRetry(t)
	}
	// A host-prepared object in the write set forces a retry: a prepared
	// two-phase transaction has already validated against current versions,
	// and its commit must not be invalidated from under the coordinator.
	// (Read-only overlap is fine — the reader serialises before the host
	// commit, and version validation below catches anything later.)
	for o := range tx.writes {
		if o.Prepared {
			return v.atomicRetry(t)
		}
	}
	// Validate the read set.
	for o, ver := range tx.reads {
		if o.Version != ver {
			return v.atomicRetry(t)
		}
	}
	// Commit the write set.
	for o, fields := range tx.writes {
		for i, val := range fields {
			o.Elems[i] = val
		}
		o.Version++
	}
	t.txn = nil
	v.Stats.TxCommits++
	if v.obs != nil {
		v.obs.Tx(t.obs, true)
	}
	return nil
}

// atomicRetry rolls the thread back to the transaction snapshot.
func (v *VM) atomicRetry(t *Thread) error {
	tx := t.txn
	v.Stats.TxAborts++
	if v.obs != nil {
		v.obs.Tx(t.obs, false)
	}
	if tx.attempts >= maxTxnAttempts {
		return trapf("transaction aborted %d times; giving up (livelock?)", tx.attempts)
	}
	// Unwind any frames pushed inside the transaction, returning them to
	// the pool, and restore registers.
	for i := len(t.frames) - 1; i >= tx.frameDepth; i-- {
		if v.obs != nil { // keep the profiler's shadow stack in sync
			v.obs.Leave(t.obs)
		}
		v.releaseFrame(t.frames[i])
		t.frames[i] = nil
	}
	t.frames = t.frames[:tx.frameDepth]
	fr := t.frames[len(t.frames)-1]
	for i, val := range tx.regs {
		fr.set(ir.Reg(i), val)
	}
	fr.block, fr.ip = tx.block, tx.ip+1 // resume just after OpAtomicBegin

	// Start the next attempt on the same snapshot with empty read and
	// write sets.
	clear(tx.reads)
	clear(tx.writes)
	tx.depth = 1
	tx.attempts++
	return nil
}

// read returns the transactional view of o.Elems[i].
func (tx *txn) read(o *Object, i int) Value {
	if w, ok := tx.writes[o]; ok {
		if val, ok := w[i]; ok {
			return val
		}
	}
	if _, seen := tx.reads[o]; !seen {
		tx.reads[o] = o.Version
	}
	return o.Elems[i]
}

// write buffers a transactional store.
func (tx *txn) write(o *Object, i int, val Value) {
	if _, seen := tx.reads[o]; !seen {
		tx.reads[o] = o.Version // writes validate too (no blind-write races)
	}
	w, ok := tx.writes[o]
	if !ok {
		w = map[int]Value{}
		tx.writes[o] = w
	}
	w[i] = val
}

// ---------------------------------------------------------------------------
// Host transactions (two-phase commit participants)
// ---------------------------------------------------------------------------

// HostTxn is a host-coordinated optimistic transaction over one VM's heap:
// the shard-local participant of a transaction spanning several VMs (the
// cross-shard transfers of internal/serve). Reads record object versions and
// writes are buffered, exactly like the in-VM atomic form; the difference is
// that commit is split into Prepare (validate the footprint and lock it) and
// Commit (apply, bump versions, unlock), so a coordinator can run two-phase
// commit across participants with Abort as the rollback path.
//
// Protocol guarantees, given the usage contract below:
//
//   - after Prepare returns true, Commit cannot fail: every touched object
//     is version-validated and flagged Prepared, in-VM transactions that
//     would write a prepared object abort and retry (see atomicEnd), and a
//     concurrent HostTxn touching it fails its own Prepare instead;
//   - Abort releases the locks without applying anything, so a coordinator
//     can back out of a partially prepared transaction.
//
// Usage contract: a HostTxn's methods must not run concurrently with the
// VM's own execution or with another HostTxn on the same VM — the VM is
// single-threaded and the host must provide that exclusion (internal/serve
// holds a per-shard mutex and never overlaps 2PC with batch execution).
type HostTxn struct {
	vm     *VM
	reads  map[*Object]uint64
	writes map[*Object]map[int]Value
	state  hostTxnState
}

// hostTxnState tracks the prepare/commit/abort lifecycle.
type hostTxnState int

const (
	hostActive hostTxnState = iota
	hostPrepared
	hostDone
)

// HostBegin opens a host transaction on this VM's heap.
func (v *VM) HostBegin() *HostTxn {
	return &HostTxn{
		vm:     v,
		reads:  map[*Object]uint64{},
		writes: map[*Object]map[int]Value{},
	}
}

// Read returns the transactional view of o.Elems[i], recording o's version
// at first touch.
func (tx *HostTxn) Read(o *Object, i int) Value {
	if w, ok := tx.writes[o]; ok {
		if val, ok := w[i]; ok {
			return val
		}
	}
	if _, seen := tx.reads[o]; !seen {
		tx.reads[o] = o.Version
	}
	return o.Elems[i]
}

// Write buffers a transactional store to o.Elems[i].
func (tx *HostTxn) Write(o *Object, i int, val Value) {
	if _, seen := tx.reads[o]; !seen {
		tx.reads[o] = o.Version
	}
	w, ok := tx.writes[o]
	if !ok {
		w = map[int]Value{}
		tx.writes[o] = w
	}
	w[i] = val
}

// Prepare validates the transaction's whole footprint (reads and writes)
// and locks it. It returns false — leaving nothing locked, and counting a
// VM-level abort — when any touched object is already prepared by another
// host transaction or has moved past the recorded version; the coordinator
// then aborts the other participants and retries later.
func (tx *HostTxn) Prepare() bool {
	if tx.state != hostActive {
		return false
	}
	for o, ver := range tx.reads {
		if o.Prepared || o.Version != ver {
			tx.state = hostDone
			tx.vm.Stats.TxAborts++
			return false
		}
	}
	for o := range tx.reads {
		o.Prepared = true
	}
	tx.state = hostPrepared
	return true
}

// Commit applies the buffered writes, bumps the written objects' versions,
// and releases the prepare locks. Calling it on a transaction that is not
// prepared — or whose validation was somehow invalidated, which the usage
// contract makes impossible — is a protocol violation and returns an error.
func (tx *HostTxn) Commit() error {
	if tx.state != hostPrepared {
		return trapf("host transaction commit without a successful prepare")
	}
	for o, ver := range tx.reads {
		if o.Version != ver {
			return trapf("host transaction invalidated between prepare and commit (protocol violation)")
		}
	}
	for o, fields := range tx.writes {
		for i, val := range fields {
			o.Elems[i] = val
		}
		o.Version++
	}
	for o := range tx.reads {
		o.Prepared = false
	}
	tx.state = hostDone
	tx.vm.Stats.TxCommits++
	return nil
}

// Abort releases the prepare locks (if held) without applying anything. It
// is safe to call in any state; aborting a prepared transaction counts a
// VM-level abort.
func (tx *HostTxn) Abort() {
	if tx.state == hostPrepared {
		for o := range tx.reads {
			o.Prepared = false
		}
		tx.vm.Stats.TxAborts++
	}
	tx.state = hostDone
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

func (v *VM) lockAcquire(t *Thread, fr *Frame, name string) error {
	if t.txn != nil {
		return trapf("lock acquisition inside atomic is not allowed")
	}
	ls := v.locks[name]
	if ls == nil {
		ls = &lockState{}
		v.locks[name] = ls
	}
	if ls.owner == nil {
		ls.owner = t
		if v.obs != nil {
			v.obs.Lock(t.obs, true, name)
		}
		return nil
	}
	if ls.owner == t {
		return trapf("deadlock: thread %d re-acquiring lock %s it already holds", t.ID, name)
	}
	// Block: when released, the unlocker hands the lock over and re-runs us
	// from the instruction after this one.
	t.state = TBlockedLock
	t.waitLock = name
	ls.waiters = append(ls.waiters, t)
	return nil
}

func (v *VM) lockRelease(t *Thread, name string) error {
	ls := v.locks[name]
	if ls == nil || ls.owner != t {
		return trapf("thread %d releasing lock %s it does not hold", t.ID, name)
	}
	if v.obs != nil {
		v.obs.Lock(t.obs, false, name)
	}
	if len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.owner = next
		next.state = TRunnable
		if v.obs != nil {
			v.obs.Lock(next.obs, true, name)
		}
	} else {
		ls.owner = nil
	}
	return nil
}
