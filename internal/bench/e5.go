package bench

import (
	"fmt"
	"time"

	"bitc/internal/core"
	"bitc/internal/opt"
	"bitc/internal/verify"
)

// The E5 corpus: contract-annotated systems-flavoured functions. The mix is
// deliberate — mostly provable (the paper's claim), a couple of genuine bugs
// the prover must catch, and one non-linear condition outside the fragment.
var verifyCorpus = []struct {
	name string
	src  string
}{
	{"saturating-inc", `
	  (define (sat-inc (x int64) (lim int64)) int64
	    :requires (<= x lim)
	    :ensures (<= %result lim)
	    (if (< x lim) (+ x 1) x))`},
	{"ring-index", `
	  (define (ring-next (i int64) (cap int64)) int64
	    :requires (and (>= i 0) (< i cap))
	    :requires (> cap 0)
	    :ensures (and (>= %result 0) (< %result cap))
	    (if (= (+ i 1) cap) 0 (+ i 1)))`},
	{"bounded-sum", `
	  (define (bsum (a int64) (b int64)) int64
	    :requires (and (>= a 0) (<= a 1000))
	    :requires (and (>= b 0) (<= b 1000))
	    :ensures (<= %result 2000)
	    (+ a b))`},
	{"vector-fill", `
	  (define (fill (n int64)) int64
	    :requires (> n 0)
	    (let ((v (make-vector n 0)))
	      (dotimes (i n) (vector-set! v i i))
	      (vector-ref v (- n 1))))`},
	{"abs-value", `
	  (define (absv (x int64)) int64
	    :ensures (>= %result 0)
	    :requires (> x -1000000)
	    (if (< x 0) (- 0 x) x))`},
	{"clamp", `
	  (define (clamp (x int64) (lo int64) (hi int64)) int64
	    :requires (<= lo hi)
	    :ensures (and (>= %result lo) (<= %result hi))
	    (min (max x lo) hi))`},
	{"safe-div", `
	  (define (sdiv (a int64) (b int64)) int64
	    :requires (!= b 0)
	    (/ a b))`},
	{"call-contract", `
	  (define (pos (x int64)) int64
	    :requires (>= x 0)
	    :ensures (>= %result 1)
	    (+ x 1))
	  (define (twice-pos (y int64)) int64
	    :requires (>= y 2)
	    :ensures (>= %result 2)
	    (+ (pos y) (pos y)))`},
	{"BUG-off-by-one", `
	  (define (bad-index (n int64)) int64
	    :requires (> n 0)
	    (let ((v (make-vector n 0)))
	      (vector-ref v n)))`},
	{"BUG-wrong-ensures", `
	  (define (bad-dec (x int64)) int64
	    :ensures (>= %result x)
	    (- x 1))`},
	{"loop-invariant", `
	  (define (sum-to (n int64)) int64
	    :requires (>= n 0)
	    :ensures (>= %result 0)
	    (let ((mutable i 0) (mutable acc 0))
	      (while (< i n)
	        :invariant (>= acc 0)
	        :invariant (>= i 0)
	        (set! acc (+ acc i))
	        (set! i (+ i 1)))
	      acc))`},
	{"nonlinear", `
	  (define (square (x int64)) int64
	    (assert (>= (* x x) 0))
	    (* x x))`},
}

// runE5 generates and discharges the corpus VCs, timing the prover.
func runE5(p Params) []*Table {
	t := &Table{
		ID: "E5", Title: "automated discharge of systems contracts",
		Claim:   "the common constraint classes (bounds, ranges, contracts) prove automatically in milliseconds",
		Headers: []string{"program", "VCs", "proved", "failed", "outside fragment", "prover time", "per VC"},
	}
	totalVCs, totalProved, totalFailed := 0, 0, 0
	var totalTime time.Duration
	for _, c := range verifyCorpus {
		prog, err := core.Load(c.name, c.src, core.Config{Optimize: opt.O0})
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %v", c.name, err))
			continue
		}
		var rep *verify.Report
		ns, _ := timeRuns(p.Reps, false, func() error { // Verify reports failures in rep, not as an error
			rep = prog.Verify(verify.DefaultOptions)
			return nil
		})
		d := median(ns[0])
		per := time.Duration(0)
		if len(rep.VCs) > 0 {
			per = d / time.Duration(len(rep.VCs))
		}
		t.AddRow(c.name, len(rep.VCs), rep.Proved, rep.Failed, rep.Skipped, d, per)
		totalVCs += len(rep.VCs)
		totalProved += rep.Proved
		totalFailed += rep.Failed
		totalTime += d
	}
	t.AddRow("TOTAL", totalVCs, totalProved, totalFailed, "-", totalTime, "-")
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d/%d VCs discharged automatically; the two BUG-* programs fail exactly their injected conditions",
			totalProved, totalVCs))
	return []*Table{t}
}
