package verify_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bitc/internal/ast"
	"bitc/internal/parser"
	"bitc/internal/source"
	"bitc/internal/types"
	"bitc/internal/verify"
)

// callContracts calls each callee before defining it, so the contract table
// must hold every function before any is verified. One call site breaks its
// callee's precondition, and one ensures depends on a boolean parameter.
const callContracts = `
(define (caller (a int64) (flag bool)) int64
  :requires (>= a 0)
  :ensures (>= %result 2)
  (if flag (clamp-up (+ a 1)) (clamp-up a)))

(define (bad-caller (a int64)) int64
  (clamp-up (- a 1)))

(define (clamp-up (x int64)) int64
  :requires (>= x 0)
  :ensures (>= %result 2)
  (+ (max x 2) 0))

(define (pick (p bool) (q bool) (i int64) (j int64)) int64
  :requires (!= i j)
  :ensures (and (>= %result i) (>= %result j))
  (if (and p q) i j))
`

func check(t testing.TB, src string) (*ast.Program, *types.Info) {
	t.Helper()
	prog, diags := parser.Parse("t.bitc", src)
	if diags.HasErrors() {
		t.Fatalf("parse: %v", diags)
	}
	info, cdiags := types.Check(prog)
	if cdiags.HasErrors() {
		t.Fatalf("check: %v", cdiags)
	}
	return prog, info
}

// verdict is the part of a VC that must not depend on how it was reached.
type verdict struct {
	Func, Desc string
	Kind       verify.Kind
	Span       source.Span
	Proved     bool
}

func verdicts(vcs []verify.VC) []verdict {
	out := make([]verdict, len(vcs))
	for i, vc := range vcs {
		out[i] = verdict{vc.Func, vc.Desc, vc.Kind, vc.Span, vc.Result.Proved}
	}
	return out
}

// TestProgramMatchesFunction checks that one Program pass, which shares a
// contract table across functions, reports what verifying each function on
// its own reports.
func TestProgramMatchesFunction(t *testing.T) {
	for name, src := range map[string]string{
		"call-contracts": callContracts,
		"templated":      templatedProgram(150),
	} {
		t.Run(name, func(t *testing.T) {
			prog, info := check(t, src)
			whole := verify.Program(prog, info, verify.DefaultOptions)
			var each []verify.VC
			var proved, failed, skipped int
			for _, d := range prog.Defs {
				if fn, ok := d.(*ast.DefineFunc); ok {
					rep := verify.Function(fn, info, verify.DefaultOptions)
					each = append(each, rep.VCs...)
					proved, failed, skipped = proved+rep.Proved, failed+rep.Failed, skipped+rep.Skipped
				}
			}
			if got, want := verdicts(whole.VCs), verdicts(each); !reflect.DeepEqual(got, want) {
				t.Fatalf("Program VCs differ from per-function VCs:\n got %+v\nwant %+v", got, want)
			}
			if whole.Proved != proved || whole.Failed != failed || whole.Skipped != skipped {
				t.Fatalf("Program %s; per-function %d proved, %d failed, %d outside fragment",
					whole.Summary(), proved, failed, skipped)
			}
			if whole.Failed == 0 || whole.Proved == 0 {
				t.Fatalf("want both verdicts represented: %s", whole.Summary())
			}
		})
	}
}

// TestProgramDeterministic checks that two passes agree on every VC,
// counterexample and refinement count included.
func TestProgramDeterministic(t *testing.T) {
	prog, info := check(t, callContracts+templatedProgram(150))
	strip := func(rep *verify.Report) []verify.VC {
		vcs := append([]verify.VC{}, rep.VCs...)
		for i := range vcs {
			vcs[i].Result.Duration = 0
		}
		return vcs
	}
	first := strip(verify.Program(prog, info, verify.DefaultOptions))
	for run := 0; run < 5; run++ {
		again := strip(verify.Program(prog, info, verify.DefaultOptions))
		if !reflect.DeepEqual(first, again) {
			for i := range first {
				if !reflect.DeepEqual(first[i], again[i]) {
					t.Fatalf("run %d, VC %d differs:\n%+v\n%+v", run, i, first[i].Result, again[i].Result)
				}
			}
			t.Fatalf("run %d: VC lists differ", run)
		}
	}
	// pick's ensures fails; the boolean variables close its model, in the
	// order the formula first mentions them.
	for _, vc := range first {
		if vc.Func == "pick" {
			cex := vc.Result.Counterexample
			if vc.Result.Proved || len(cex) < 2 || strings.Join(cex[len(cex)-2:], " ") != "p q" {
				t.Fatalf("pick: proved=%v, counterexample %q", vc.Result.Proved, cex)
			}
		}
	}
}

// templates are E5-style contract templates: %[1]d numbers the copy and
// %[2]d is a constant that leaves the verdict unchanged. call-contract
// defines two functions; the last template fails its bounds check.
var templates = []string{`
(define (sat-inc-%[1]d (x int64) (lim int64)) int64
  :requires (and (<= x lim) (<= lim %[2]d))
  :ensures (<= %%result %[2]d)
  (if (< x lim) (+ x 1) x))`, `
(define (ring-next-%[1]d (i int64) (cap int64)) int64
  :requires (and (>= i 0) (< i cap))
  :requires (> cap 0)
  :ensures (and (>= %%result 0) (< %%result cap))
  (if (= (+ i 1) cap) 0 (+ i 1)))`, `
(define (fill-%[1]d (n int64)) int64
  :requires (> n 0)
  (let ((v (make-vector n 0)))
    (dotimes (i n) (vector-set! v i (* i 3)))
    (vector-ref v (- n 1))))`, `
(define (pos-%[1]d (x int64)) int64
  :requires (>= x 0)
  :ensures (>= %%result 1)
  (+ x 1))
(define (twice-pos-%[1]d (y int64)) int64
  :requires (>= y 2)
  :ensures (>= %%result 2)
  (+ (pos-%[1]d y) (pos-%[1]d y)))`, `
(define (sum-to-%[1]d (n int64)) int64
  :requires (>= n 0)
  :ensures (>= %%result %[2]d)
  (let ((mutable i 0) (mutable acc %[2]d))
    (while (< i n)
      :invariant (>= acc %[2]d)
      :invariant (>= i 0)
      (set! acc (+ acc i))
      (set! i (+ i 1)))
    acc))`, `
(define (bad-index-%[1]d (n int64)) int64
  :requires (> n 0)
  (let ((v (make-vector n 0)))
    (vector-ref v (+ n %[2]d))))`}

// templatedProgram instantiates the templates in turn until the program
// defines at least funcs functions.
func templatedProgram(funcs int) string {
	var b strings.Builder
	for n, i := 0, 0; n < funcs; i++ {
		src := templates[i%len(templates)]
		fmt.Fprintf(&b, src+"\n", i/len(templates), i%97)
		n += strings.Count(src, "(define ")
	}
	return b.String()
}

var sinkReport *verify.Report

// BenchmarkVerifyProgram times one Program pass over templated programs of
// two sizes; ns/func stays flat when a pass is linear in program size.
func BenchmarkVerifyProgram(b *testing.B) {
	for _, funcs := range []int{150, 600} {
		b.Run(fmt.Sprintf("funcs=%d", funcs), func(b *testing.B) {
			src := templatedProgram(funcs)
			funcs := strings.Count(src, "(define ")
			prog, info := check(b, src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkReport = verify.Program(prog, info, verify.DefaultOptions)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*funcs), "ns/func")
		})
	}
}
