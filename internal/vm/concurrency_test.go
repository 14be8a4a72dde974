package vm_test

import (
	"strings"
	"testing"

	"bitc/internal/compiler"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/vm"
)

// TestTwoLockDeadlockDetected builds the classic ABBA deadlock and checks
// the scheduler reports it instead of hanging — "failures are silent" is the
// lock problem the course slides list; here it is at least loud.
func TestTwoLockDeadlockDetected(t *testing.T) {
	prog, _ := parser.Parse("t", abbaDeadlockSrc)
	info, cd := types.Check(prog)
	if cd.HasErrors() {
		t.Fatal(cd)
	}
	mod, md := compiler.Compile(prog, info, compiler.Options{})
	if md.HasErrors() {
		t.Fatal(md)
	}
	// With yield between the two acquisitions, both threads hold one lock
	// and wait for the other: deterministic deadlock.
	machine := vm.New(mod, vm.Options{Seed: 1, Quantum: 64})
	_, err := machine.RunFunc("f")
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// TestLockHandoffFIFO checks released locks go to the longest waiter, so no
// thread starves.
func TestLockHandoffFIFO(t *testing.T) {
	val, _ := runOpts(t, lockHandoffSrc, "f", vm.Options{Seed: 11, Quantum: 3}, compilerOptions())
	if val.I != 3 {
		t.Fatalf("records = %d", val.I)
	}
}

func compilerOptions() compiler.Options { return compiler.Options{} }

// TestNestedAtomicFlattens checks inner atomic blocks join the outer
// transaction (flat nesting) and commit only once.
func TestNestedAtomicFlattens(t *testing.T) {
	val, machine := run(t, nestedAtomicSrc, "f")
	if val.I != 11 {
		t.Fatalf("got %d", val.I)
	}
	if machine.Stats.TxCommits != 1 {
		t.Fatalf("commits = %d, want 1 (flattened)", machine.Stats.TxCommits)
	}
}

// TestAtomicRetryUnwindsCalls: the transaction body calls a function; a
// conflicting writer forces a retry, which must unwind the callee frames
// cleanly and still converge.
func TestAtomicRetryUnwindsCalls(t *testing.T) {
	val, machine := runOpts(t, retryUnwindSrc, "f", vm.Options{Seed: 17, Quantum: 3}, compilerOptions())
	if val.I != 400 {
		t.Fatalf("got %d, want 400", val.I)
	}
	if machine.Stats.TxAborts == 0 {
		t.Log("note: no aborts at this seed; conflict path not exercised")
	}
}

// TestAtomicReadConsistency: a transaction reading two fields must never see
// a torn pair, even with writers running.
func TestAtomicReadConsistency(t *testing.T) {
	val, _ := runOpts(t, readConsistencySrc, "f", vm.Options{Seed: 23, Quantum: 2}, compilerOptions())
	if val.I != 0 {
		t.Fatalf("saw %d torn reads", val.I)
	}
}

// TestYieldReschedules: with quantum large enough that nothing would
// preempt, explicit yields still interleave two threads.
func TestYieldReschedules(t *testing.T) {
	val, _ := runOpts(t, yieldRacerSrc, "f", vm.Options{Seed: 5, Quantum: 100000}, compilerOptions())
	if val.I == 200 {
		t.Fatal("yield did not interleave: no updates were lost")
	}
}

// TestManyThreads: a fan-out/fan-in with 16 workers over one channel.
func TestManyThreads(t *testing.T) {
	val, _ := runOpts(t, manyThreadsSrc, "f", vm.Options{Seed: 31, Quantum: 7}, compilerOptions())
	if val.I != 272 { // 2 * (1+..+16)
		t.Fatalf("got %d, want 272", val.I)
	}
}

// TestChannelAsQueueOrdering: a single producer/consumer pair preserves FIFO
// order through a buffered channel.
func TestChannelAsQueueOrdering(t *testing.T) {
	val, _ := runOpts(t, chanQueueSrc, "f", vm.Options{Seed: 13, Quantum: 4}, compilerOptions())
	if val.I != 1 {
		t.Fatal("FIFO order violated")
	}
}

func TestSpawnInsideAtomicTraps(t *testing.T) {
	err := runErr(t, spawnInAtomicSrc, "f")
	if !strings.Contains(err.Error(), "spawn inside atomic") {
		t.Fatalf("err = %v", err)
	}
}

// The programs above, hoisted so TestVMCounterGolden can pin their full
// counters at the seeds and quanta these tests run them with.
const (
	abbaDeadlockSrc = `
	  (defstruct flags (fa int64) (fb int64))
	  (define g flags (make flags :fa 0 :fb 0))
	  (define (ab) unit
	    (with-lock a
	      (set-field! g fa 1)
	      (while (= (field g fb) 0) (yield)) ; wait until ba holds b
	      (with-lock b ())))
	  (define (ba) unit
	    (with-lock b
	      (set-field! g fb 1)
	      (while (= (field g fa) 0) (yield)) ; wait until ab holds a
	      (with-lock a ())))
	  (define (f) unit
	    (let ((t1 (spawn (ab))) (t2 (spawn (ba))))
	      (join t1) (join t2)))`
	lockHandoffSrc = `
	  (defstruct log (order (vector int64)) (next int64))
	  (define l log (make log :order (make-vector 8 0) :next 0))
	  (define (record (who int64)) unit
	    (with-lock m
	      (vector-set! (field l order) (field l next) who)
	      (set-field! l next (+ (field l next) 1))))
	  (define (f) int64
	    (let ((t1 (spawn (record 1))) (t2 (spawn (record 2))) (t3 (spawn (record 3))))
	      (join t1) (join t2) (join t3)
	      (field l next)))`
	nestedAtomicSrc = `
	  (defstruct cell (v int64))
	  (define c cell (make cell :v 0))
	  (define (inner) unit
	    (atomic (set-field! c v (+ (field c v) 1))))
	  (define (f) int64
	    (atomic
	      (set-field! c v 10)
	      (inner))
	    (field c v))`
	retryUnwindSrc = `
	  (defstruct cell (v int64))
	  (define c cell (make cell :v 0))
	  (define (read-it) int64 (field c v))
	  (define (bump (n int64)) unit
	    (dotimes (i n)
	      (atomic
	        (let ((cur (read-it)))
	          (set-field! c v (+ cur 1))))))
	  (define (f) int64
	    (let ((t1 (spawn (bump 200))) (t2 (spawn (bump 200))))
	      (join t1) (join t2)
	      (field c v)))`
	readConsistencySrc = `
	  (defstruct pair (a int64) (b int64))
	  (define p pair (make pair :a 0 :b 0))
	  (define (writer (n int64)) unit
	    (dotimes (i n)
	      (atomic
	        (set-field! p a (+ (field p a) 1))
	        (set-field! p b (+ (field p b) 1)))))
	  (define (f) int64
	    (let ((w (spawn (writer 150))))
	      (let ((mutable torn 0))
	        (dotimes (i 150)
	          (atomic
	            (if (!= (field p a) (field p b))
	                (set! torn (+ torn 1))
	                ())))
	        (join w)
	        torn)))`
	yieldRacerSrc = `
	  (defstruct cell (v int64))
	  (define c cell (make cell :v 0))
	  (define (racer (n int64)) unit
	    (dotimes (i n)
	      (let ((cur (field c v)))
	        (yield)
	        (set-field! c v (+ cur 1)))))
	  (define (f) int64
	    (let ((t1 (spawn (racer 100))) (t2 (spawn (racer 100))))
	      (join t1) (join t2)
	      (field c v)))`
	manyThreadsSrc = `
	  (define (worker (in (chan int64)) (out (chan int64))) unit
	    (send out (* (recv in) 2)))
	  (define (f) int64
	    (let ((in (make-chan 16)) (out (make-chan 16)))
	      (let ((mutable spawned 0))
	        (dotimes (i 16) (spawn (worker in out)))
	        (dotimes (i 16) (send in (+ i 1)))
	        (let ((mutable acc 0))
	          (dotimes (i 16) (set! acc (+ acc (recv out))))
	          acc))))`
	chanQueueSrc = `
	  (define (producer (c (chan int64))) unit
	    (dotimes (i 50) (send c i)))
	  (define (f) bool
	    (let ((c (make-chan 5)))
	      (spawn (producer c))
	      (let ((mutable ok #t))
	        (dotimes (i 50)
	          (if (!= (recv c) i) (set! ok #f) ()))
	        ok)))`
	spawnInAtomicSrc = `
	  (define (w) int64 1)
	  (define (f) unit (atomic (spawn (w)) ()))`
)
