package vm_test

// alloc_test.go pins the interpreter's own allocation behaviour: a call
// allocates nothing once the frame pool is warm, Boxed mode allocates its
// boxes and nothing more per operation, and scheduling a quantum allocates
// nothing. Each test compares Go mallocs per run at two problem sizes; the
// difference may only be the constant cost of a deeper frame pool, never a
// per-call or per-quantum cost.

import (
	"testing"

	"bitc/internal/bench"
	"bitc/internal/core"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// mallocsPerRun loads src and reports the Go mallocs of one fresh-VM run
// of entry(arg), averaged over a few runs, with the run's Stats.
func mallocsPerRun(t *testing.T, src string, cfg core.Config, arg int64) (float64, vm.Stats) {
	t.Helper()
	prog, err := core.Load("alloc.bitc", src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var stats vm.Stats
	var rerr error
	n := testing.AllocsPerRun(5, func() {
		machine := prog.NewVM()
		_, rerr = machine.RunFunc("entry", vm.IntValue(arg))
		stats = machine.Stats
	})
	if rerr != nil {
		t.Fatal(rerr)
	}
	return n, stats
}

// frameMallocs bounds the mallocs a deeper recursion may add: each new
// level of depth fills the frame pool with one frame (the record and its
// two register lanes), plus the occasional growth of the frame stack.
func frameMallocs(depth int) float64 { return float64(3*depth + 8) }

// TestCallsAllocateNothing runs unboxed fib at n=10 and n=18: 177 against
// 8361 calls, yet the mallocs differ only by the deeper frame pool.
func TestCallsAllocateNothing(t *testing.T) {
	src, _ := bench.KernelSource("fib")
	cfg := core.Config{Optimize: opt.O2}
	small, s10 := mallocsPerRun(t, src, cfg, 10)
	large, s18 := mallocsPerRun(t, src, cfg, 18)
	t.Logf("fib unboxed: %.0f mallocs at n=10 (%d calls), %.0f at n=18 (%d calls)", small, s10.Calls, large, s18.Calls)
	if large-small > frameMallocs(18-10) {
		t.Errorf("mallocs grew from %.0f to %.0f with the call count", small, large)
	}
	if large > 200 {
		t.Errorf("unboxed fib(18) took %.0f mallocs per run, want <= 200", large)
	}
}

// TestBoxedAllocatesOnlyBoxes: in Boxed mode every scalar result is a real
// heap box (the cost E1 measures), and nothing else is allocated per
// operation.
func TestBoxedAllocatesOnlyBoxes(t *testing.T) {
	src, _ := bench.KernelSource("fib")
	cfg := core.Config{Optimize: opt.O2, Mode: vm.Boxed}
	small, s10 := mallocsPerRun(t, src, cfg, 10)
	large, s18 := mallocsPerRun(t, src, cfg, 18)
	rest10, rest18 := small-float64(s10.BoxAllocs), large-float64(s18.BoxAllocs)
	t.Logf("fib boxed: %.0f mallocs - %d boxes at n=10, %.0f - %d at n=18", small, s10.BoxAllocs, large, s18.BoxAllocs)
	if rest18-rest10 > frameMallocs(18-10) {
		t.Errorf("non-box mallocs grew from %.0f to %.0f with the call count", rest10, rest18)
	}
}

// TestSchedulingAllocatesNothing runs four threads at Quantum 1, so every
// instruction is a scheduling decision, at two loop lengths: the mallocs
// must not grow with the number of quanta.
func TestSchedulingAllocatesNothing(t *testing.T) {
	src := `
(define (work (n int64)) int64
  (let ((mutable acc 0))
    (dotimes (i n) (set! acc (+ acc i)))
    acc))
(define (entry (n int64)) int64
  (let ((t1 (spawn (work n))) (t2 (spawn (work n)))
        (t3 (spawn (work n))) (t4 (spawn (work n))))
    (join t1) (join t2) (join t3) (join t4)
    n))`
	cfg := core.Config{Optimize: opt.O2, Quantum: 1, Seed: 7}
	small, s1 := mallocsPerRun(t, src, cfg, 10)
	large, s2 := mallocsPerRun(t, src, cfg, 1000)
	t.Logf("4 threads, quantum 1: %.0f mallocs over %d switches, %.0f over %d", small, s1.Switches, large, s2.Switches)
	if s2.Switches < 10*s1.Switches {
		t.Fatalf("switches %d -> %d: the larger run does not schedule more", s1.Switches, s2.Switches)
	}
	if large > small+2 {
		t.Errorf("mallocs grew from %.0f to %.0f with the number of quanta", small, large)
	}
}
