package vm_test

// counters_test.go pins the VM's complete observable output — result,
// stdout, trap and every vm.Stats field — for the E1 kernels and the
// thread/STM programs in a golden file. TestDispatchDifferential* compares
// dispatch modes within one build, so a change that moved every mode the
// same way would pass it; this golden catches that. Regenerate with
// `go test ./internal/vm -run TestVMCounterGolden -update-counters` only
// for a deliberate change to the VM's semantics or accounting, and review
// the diff.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitc/internal/bench"
	"bitc/internal/compiler"
	"bitc/internal/core"
	"bitc/internal/opt"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/vm"
)

var updateCounters = flag.Bool("update-counters", false, "rewrite testdata/counters.golden")

// kernelSizes are the E1 problem sizes the counter golden runs.
var kernelSizes = map[string]int64{"fib": 16, "vector-sum": 2000, "struct-walk": 800, "insertion-sort": 80}

// counterLine renders one run's observable outcome.
func counterLine(name string, val vm.Value, out string, err error, s vm.Stats) string {
	errText := "<nil>"
	if err != nil {
		errText = err.Error()
	}
	return fmt.Sprintf("%s: kind=%d val=%s err=%q out=%q\n  %+v\n", name, val.K, val.String(), errText, out, s)
}

// concurrencyRun compiles src the way concurrency_test.go does (no
// optimiser) and runs entry under opts.
func concurrencyRun(t *testing.T, src, entry string, opts vm.Options) (vm.Value, string, vm.Stats, error) {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	mod, mdiags := compiler.Compile(prog, info, compiler.Options{})
	if mdiags.HasErrors() {
		t.Fatalf("compile: %v", mdiags)
	}
	var out bytes.Buffer
	opts.Stdout = &out
	machine := vm.New(mod, opts)
	val, err := machine.RunFunc(entry)
	return val, out.String(), machine.Stats, err
}

// TestVMCounterGolden runs every case and compares the rendering with
// testdata/counters.golden byte for byte.
func TestVMCounterGolden(t *testing.T) {
	var b strings.Builder
	reps := []struct {
		name  string
		mode  vm.RepMode
		noBox bool
	}{{"unboxed", vm.Unboxed, false}, {"boxed", vm.Boxed, false}, {"boxed+nobox", vm.Boxed, true}}
	dispatches := []vm.DispatchMode{vm.DispatchFused, vm.DispatchSwitch}
	for _, name := range bench.KernelNames() {
		src, ok := bench.KernelSource(name)
		if !ok {
			t.Fatalf("no kernel %q", name)
		}
		for _, rep := range reps {
			for _, d := range dispatches {
				var out bytes.Buffer
				prog, err := core.Load(name, src, core.Config{
					Optimize: opt.O2, Mode: rep.mode, RespectNoBox: rep.noBox,
					Dispatch: d, Stdout: &out,
				})
				if err != nil {
					t.Fatalf("load %s: %v", name, err)
				}
				val, machine, rerr := prog.RunFunc("entry", vm.IntValue(kernelSizes[name]))
				b.WriteString(counterLine(fmt.Sprintf("kernel %s %s %v", name, rep.name, d), val, out.String(), rerr, machine.Stats))
			}
		}
	}
	programs := []struct {
		name string
		src  string
		opts vm.Options
	}{
		{"abba-deadlock", abbaDeadlockSrc, vm.Options{Seed: 1, Quantum: 64}},
		{"lock-handoff", lockHandoffSrc, vm.Options{Seed: 11, Quantum: 3}},
		{"nested-atomic", nestedAtomicSrc, vm.Options{}},
		{"retry-unwind", retryUnwindSrc, vm.Options{Seed: 17, Quantum: 3}},
		{"read-consistency", readConsistencySrc, vm.Options{Seed: 23, Quantum: 2}},
		{"yield-racer", yieldRacerSrc, vm.Options{Seed: 5, Quantum: 100000}},
		{"many-threads", manyThreadsSrc, vm.Options{Seed: 31, Quantum: 7}},
		{"chan-queue", chanQueueSrc, vm.Options{Seed: 13, Quantum: 4}},
		{"spawn-in-atomic", spawnInAtomicSrc, vm.Options{}},
	}
	for _, p := range programs {
		for _, d := range dispatches {
			opts := p.opts
			opts.Dispatch = d
			val, out, stats, err := concurrencyRun(t, p.src, "f", opts)
			b.WriteString(counterLine(fmt.Sprintf("program %s %v", p.name, d), val, out, err, stats))
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "counters.golden")
	if *updateCounters {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-counters): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
