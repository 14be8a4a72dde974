// Bankstm: the lecture slides' bank-account composability example, which the
// paper's challenge 4 (managing shared state) is about. The same transfer is
// run three ways on the deterministic scheduler:
//
//   - unsynchronised: the invariant breaks, and the lockset analysis says so
//     before the program even runs;
//
//   - coarse lock: correct, but the transfer's locking is part of its API;
//
//   - atomic (STM): correct and composable — the watcher thread composes two
//     reads into one consistent snapshot without knowing any lock order.
//
//     go run ./examples/bankstm
package main

import (
	"fmt"
	"log"

	"bitc/internal/analysis"
	"bitc/internal/core"
	"bitc/internal/vm"
)

// program builds the transfer variant; the final read uses the same
// discipline as the transfers (the lockset analysis has no join-ordering, so
// an unguarded read after join would be flagged — and guarding it is the
// honest way to write the observer anyway).
func program(body, read string) string {
	return `
(defstruct account (bal int64))
(define a1 account (make account :bal 1000))
(define a2 account (make account :bal 0))

(define (transfer-n (n int64)) unit
  (dotimes (i n)` + body + `))

(define (entry (n int64)) int64
  (let ((t1 (spawn (transfer-n n)))
        (t2 (spawn (transfer-n n))))
    (join t1) (join t2)
    ` + read + `))
`
}

func main() {
	variants := []struct {
		name string
		body string
		read string
	}{
		{"unsynchronised", `
    (let ((x (field a1 bal)))
      (yield)
      (set-field! a1 bal (- x 1))
      (set-field! a2 bal (+ (field a2 bal) 1)))`,
			`(+ (field a1 bal) (field a2 bal))`},
		{"coarse lock", `
    (with-lock bank
      (set-field! a1 bal (- (field a1 bal) 1))
      (set-field! a2 bal (+ (field a2 bal) 1)))`,
			`(with-lock bank (+ (field a1 bal) (field a2 bal)))`},
		{"atomic (STM)", `
    (atomic
      (set-field! a1 bal (- (field a1 bal) 1))
      (set-field! a2 bal (+ (field a2 bal) 1)))`,
			`(atomic (+ (field a1 bal) (field a2 bal)))`},
	}

	const transfers = 400
	for _, v := range variants {
		cfg := core.DefaultConfig
		cfg.Seed = 99
		cfg.Quantum = 9
		prog, err := core.Load(v.name, program(v.body, v.read), cfg)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}

		rep, err := prog.Analyze(analysis.Options{Enable: []string{"race"}})
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		val, machine, err := prog.RunFunc("entry", vm.IntValue(transfers))
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		verdict := "invariant HELD"
		if val.I != 1000 {
			verdict = fmt.Sprintf("invariant VIOLATED: drift %+d", val.I-1000)
		}
		fmt.Printf("%-16s total=%4d  %-28s static races=%d  commits=%d aborts=%d\n",
			v.name, val.I, verdict, len(rep.Findings),
			machine.Stats.TxCommits, machine.Stats.TxAborts)
	}

	fmt.Println("\nthe STM watcher composes without knowing any lock order:")
	watcher := `
(defstruct account (bal int64))
(define a1 account (make account :bal 1000))
(define a2 account (make account :bal 0))
(define (mover (n int64)) unit
  (dotimes (i n)
    (atomic
      (set-field! a1 bal (- (field a1 bal) 1))
      (set-field! a2 bal (+ (field a2 bal) 1)))))
(define (entry (n int64)) int64
  (let ((t (spawn (mover n))))
    (let ((mutable bad 0))
      (dotimes (i n)
        (atomic
          (if (!= (+ (field a1 bal) (field a2 bal)) 1000)
              (set! bad (+ bad 1))
              ())))
      (join t)
      bad)))
`
	cfg := core.DefaultConfig
	cfg.Seed = 3
	cfg.Quantum = 5
	prog, err := core.Load("watcher", watcher, cfg)
	if err != nil {
		log.Fatal(err)
	}
	val, machine, err := prog.RunFunc("entry", vm.IntValue(300))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("watcher saw %d inconsistent snapshots in 300 probes (aborts=%d)\n",
		val.I, machine.Stats.TxAborts)
	if val.I != 0 {
		log.Fatal("STM exposed an intermediate state")
	}
}
