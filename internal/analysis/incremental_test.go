package analysis_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/factstore"
	"bitc/internal/parser"
	"bitc/internal/types"
)

// check parses and type-checks src, failing the test on any diagnostic.
func check(t *testing.T, src string) (*ast.Program, *types.Info) {
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

// renderAll snapshots a report in every output format the CLI exposes.
func renderAll(t *testing.T, rep *analysis.Report) string {
	t.Helper()
	var buf bytes.Buffer
	rep.Render(&buf)
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteSARIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func runStore(t *testing.T, src string, opts analysis.Options, store *factstore.Store) (*analysis.Report, string) {
	t.Helper()
	prog, info := check(t, src)
	rep, err := analysis.RunWithStore(prog, info, opts, store)
	if err != nil {
		t.Fatal(err)
	}
	return rep, renderAll(t, rep)
}

// incrSrc trips every analyzer family (races, deadstores, truncation,
// definite-init, escapes, suppressions) across several interacting
// functions, so cold/warm equivalence exercises all cached fact kinds.
const incrSrc = `
(defstruct cell (v int64))
(define counter cell (make cell :v 0))
(define shadow cell (make cell :v 0))
(define (bump (d int64)) unit
  (set-field! counter v (+ (field counter v) d)))
(define (bump2) unit
  (with-lock l1 (bump 2)))
(define (waste) int64
  (let ((unused 1) (mutable x 0))
    (println x)
    (set! x 2)
    (set! x 3)
    7))
(define (narrow (n int64)) uint8
  (cast uint8 n))
(define (leaky) int64
  (with-region r
    (let ((t (alloc-in r (make cell :v 9))))
      (field t v))))
(define (main) unit
  (let ((t1 (spawn (bump 1))) (t2 (spawn (bump2))))
    (join t1) (join t2)
    (println (waste))
    (println (narrow 300))
    (println (leaky))))
`

// TestIncrementalMatchesCold: one program, three runs — a run with no
// store, a cold cached run, and a warm fully-cached rerun — must render
// byte-identically in every output format.
func TestIncrementalMatchesCold(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	prog, info := check(t, incrSrc)
	plain, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, plain)

	store := factstore.New()
	_, cold := runStore(t, incrSrc, opts, store)
	if cold != want {
		t.Errorf("cold cached run differs from plain run:\nplain:\n%s\ncold:\n%s", want, cold)
	}
	if st := store.Stats(); st.Puts == 0 {
		t.Error("cold run put nothing in the store")
	}
	_, warm := runStore(t, incrSrc, opts, store)
	if warm != want {
		t.Errorf("warm cached run differs from plain run:\nplain:\n%s\nwarm:\n%s", want, warm)
	}
	st := store.Stats()
	if st.Runs != 2 {
		t.Errorf("runs = %d, want 2", st.Runs)
	}
	// The warm run must not have recomputed any per-function finding: every
	// put after the cold run would be a cache failure.
	if coldPuts := st.Puts; coldPuts == 0 {
		t.Error("no puts recorded")
	}
	store.BeginRun() // third generation: all entries were touched in run 2
}

// TestIncrementalWarmIsAllHits: a rerun on unchanged input must hit for
// every fact the cold run stored — zero puts, zero misses.
func TestIncrementalWarmIsAllHits(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	runStore(t, incrSrc, opts, store)
	cold := store.Stats()
	runStore(t, incrSrc, opts, store)
	warm := store.Stats()
	if warm.Puts != cold.Puts {
		t.Errorf("warm run put %d new entries; want 0", warm.Puts-cold.Puts)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("warm run missed %d times; want 0", warm.Misses-cold.Misses)
	}
}

// TestIncrementalAfterEdit: editing one function and re-running against the
// same store must equal a fresh cold run of the edited text, and must leave
// unrelated functions' facts untouched (their findings are served from
// cache, not recomputed).
func TestIncrementalAfterEdit(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	edited := strings.Replace(incrSrc, "(cast uint8 n)", "(cast uint8 (+ n 1))", 1)
	if edited == incrSrc {
		t.Fatal("edit did not apply")
	}

	store := factstore.New()
	runStore(t, incrSrc, opts, store)
	_, warm := runStore(t, edited, opts, store)

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm run after edit differs from fresh cold run:\nfresh:\n%s\nwarm:\n%s", want, warm)
	}
}

// clustersSrc is three flow-disconnected clusters (the corpus shape): each
// has a private struct-typed global, a lock, and a two-function call chain.
// No cluster can exchange points-to facts with another, so an edit inside
// one must leave the others' cached facts untouched.
const clustersSrc = `
(defstruct St (a int64))
(define g1 St (make St :a 0))
(define g2 St (make St :a 0))
(define g3 St (make St :a 0))
(define (c1a) int64
  (with-lock l1 (set-field! g1 a 1))
  (c1b))
(define (c1b) int64 (field g1 a))
(define (c2a) int64
  (with-lock l2 (set-field! g2 a 2))
  (c2b))
(define (c2b) int64 (field g2 a))
(define (c3a) int64
  (with-lock l3 (set-field! g3 a 3))
  (c3b))
(define (c3b) int64 (field g3 a))
`

// TestIncrementalInvalidationScope: after editing one function, only its
// cluster's facts (its traits and findings, its flow component's
// points-to-dependent findings, its SCC chain's summaries) may be
// recomputed; the other clusters must be served from cache. Measured by
// the store's put counter.
func TestIncrementalInvalidationScope(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	runStore(t, clustersSrc, opts, store)
	cold := store.Stats()

	edited := strings.Replace(clustersSrc, "(define (c2b) int64 (field g2 a))",
		"(define (c2b) int64 (+ (field g2 a) 0))", 1)
	_, warm := runStore(t, edited, opts, store)
	after := store.Stats()

	newPuts := after.Puts - cold.Puts
	if newPuts == 0 {
		t.Fatal("edit invalidated nothing — keys are not content-sensitive")
	}
	// Cluster 2 is one of three equal clusters; recomputing it alone must
	// put well under a third of the cold fact count.
	if newPuts*3 >= cold.Puts {
		t.Errorf("edit of one cluster function recomputed %d of %d facts — invalidation is too coarse", newPuts, cold.Puts)
	}

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm run after cluster edit differs from fresh cold run")
	}
}

// TestIncrementalTypesEditInvalidatesAll: editing a global definition
// changes the type-environment signature, which must invalidate every
// function's cached findings while still producing a report identical to a
// fresh cold run.
func TestIncrementalTypesEditInvalidatesAll(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	runStore(t, incrSrc, opts, store)
	cold := store.Stats()

	edited := strings.Replace(incrSrc, "(define shadow cell (make cell :v 0))",
		"(define shadow cell (make cell :v 7))", 1)
	_, warm := runStore(t, edited, opts, store)
	after := store.Stats()
	if after.Puts-cold.Puts == 0 {
		t.Fatal("global-definition edit invalidated nothing")
	}

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm run after global edit differs from fresh cold run")
	}
}

// TestIncrementalSuppressionSurvivesNeighborEdit: a suppressed finding must
// stay suppressed (and keep appearing in the suppressed list) when an
// unrelated neighboring function is edited and the run is served warm.
func TestIncrementalSuppressionSurvivesNeighborEdit(t *testing.T) {
	src := `
(define (noisy) int64
  (let ((mutable x 0))
    (set! x 1) ; bitc:ignore BITC-DEAD001
    (set! x 2)
    x))
(define (neighbor (n int64)) int64 (+ n 1))
(define (main) unit
  (println (noisy))
  (println (neighbor 1)))
`
	opts := analysis.Options{Parallelism: 1}
	store := factstore.New()
	rep, _ := runStore(t, src, opts, store)
	if len(rep.Suppressed) == 0 {
		t.Fatal("expected a suppressed finding in the cold run")
	}
	nsup := len(rep.Suppressed)

	edited := strings.Replace(src, "(+ n 1)", "(+ n 2)", 1)
	rep2, warm := runStore(t, edited, opts, store)
	if len(rep2.Suppressed) != nsup {
		t.Fatalf("suppressed count changed after neighbor edit: %d -> %d", nsup, len(rep2.Suppressed))
	}
	for _, f := range rep2.Findings {
		if f.Code == "BITC-DEAD001" && strings.Contains(f.Message, "x") {
			// The ignored store must not resurface as an active finding.
			prog, _ := check(t, edited)
			line, _ := prog.File.Position(f.Span.Start)
			if line == 4 {
				t.Fatalf("suppressed finding resurfaced after neighbor edit: %v", f)
			}
		}
	}

	prog, info := check(t, edited)
	fresh, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := renderAll(t, fresh); warm != want {
		t.Errorf("warm suppression run differs from fresh cold run:\nfresh:\n%s\nwarm:\n%s", want, warm)
	}
}

// TestIncrementalDeterminism: the same store-backed analysis run twice from
// scratch (two stores) and twice warm must render byte-identically; this is
// the analyze-twice-diff-bytes gate for the cached hash paths.
func TestIncrementalDeterminism(t *testing.T) {
	opts := analysis.Options{} // default parallelism: races would show here
	var outs []string
	for i := 0; i < 2; i++ {
		store := factstore.New()
		_, a := runStore(t, incrSrc, opts, store)
		_, b := runStore(t, incrSrc, opts, store)
		outs = append(outs, a, b)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Fatalf("run %d differs from run 0:\n%s\n----\n%s", i, outs[0], outs[i])
		}
	}
}

// TestIncrementalNilStore: a run with no store, a run on a fresh store,
// and a warm run on a store primed by an earlier run must render
// byte-identically in every output format, with -strict accounting of the
// suppressed findings, on the fixtures, every example program and every
// golden analyze input. The warm run must recompute nothing.
func TestIncrementalNilStore(t *testing.T) {
	type input struct{ name, src string }
	inputs := []input{{"incrSrc", incrSrc}, {"shiftSrc", shiftSrc}}
	for _, pat := range []string{"../../examples/progs/*.bitc", "../core/testdata/analyze/*.bitc"} {
		paths, err := filepath.Glob(pat)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no inputs for %s: %v", pat, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{p, string(src)})
		}
	}
	opts := analysis.Options{Parallelism: 1, Strict: true}
	for _, in := range inputs {
		_, none := runStore(t, in.src, opts, nil)
		_, fresh := runStore(t, in.src, opts, factstore.New())
		primed := factstore.New()
		runStore(t, in.src, opts, primed)
		before := primed.Stats()
		_, warm := runStore(t, in.src, opts, primed)
		if fresh != none {
			t.Errorf("%s: fresh-store run differs from nil-store run:\nnil:\n%s\nfresh:\n%s", in.name, none, fresh)
		}
		if warm != none {
			t.Errorf("%s: warm-store run differs from nil-store run:\nnil:\n%s\nwarm:\n%s", in.name, none, warm)
		}
		if puts := primed.Stats().Puts - before.Puts; puts != 0 {
			t.Errorf("%s: warm run recomputed %d facts", in.name, puts)
		}
	}
}

// shiftSrc has race, ABBA lock-order, and atomicity findings in functions
// below pad, the function TestIncrementalPositionShift lengthens.
const shiftSrc = `(defstruct cell (v int64))
(define counter cell (make cell :v 0))
(define tally cell (make cell :v 0))
(define (first) int64 7)
(define (pad (n int64)) int64
  (+ n 1))
(define (bump) unit
  (set-field! counter v (+ (field counter v) 1)))
(define (ab) unit
  (with-lock a (with-lock b (set-field! tally v 1))))
(define (ba) unit
  (with-lock b (with-lock a (set-field! tally v 2))))
(define (txn) unit
  (atomic (set-field! tally v (+ (field tally v) 1))))
(define (noisy) unit
  (atomic (println (field tally v))))
(define (main) unit
  (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
    (join t1) (join t2)
    (println (+ (first) (pad 1)))))
`

// TestIncrementalPositionShift: edits that move the definitions holding
// summary facts must leave a warm run equal to a cold one. Summaries and
// the fold are stored as computed, with definition-relative spans, so a
// pure shift is served entirely from the store and still reports at the
// new positions; no cached summary is ever rebased by hand.
func TestIncrementalPositionShift(t *testing.T) {
	opts := analysis.Options{Parallelism: 1}
	cold := func(src string) (*analysis.Report, string) {
		prog, info := check(t, src)
		rep, err := analysis.Run(prog, info, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep, renderAll(t, rep)
	}
	rep, _ := cold(shiftSrc)
	for _, code := range []string{
		analysis.CodeRace, analysis.CodeLockOrder,
		analysis.CodeAtomShared, analysis.CodeAtomEffect,
	} {
		if !hasCode(rep, code) {
			t.Fatalf("fixture does not fire %s (got %v)", code, codesOf(rep))
		}
	}

	store := factstore.New()
	runStore(t, shiftSrc, opts, store)
	commented := "; a comment above every definition\n" + shiftSrc
	lengthened := strings.Replace(commented, "(+ n 1)", "(+ (* n 2)\n     1)", 1)
	if lengthened == commented {
		t.Fatal("edit did not apply")
	}
	for _, edit := range []struct {
		name, src string
		pure      bool // a pure shift: every fact must come from the store
	}{
		{"prepend comment", commented, true},
		{"lengthen pad", lengthened, false},
	} {
		before := store.Stats()
		_, warm := runStore(t, edit.src, opts, store)
		if _, want := cold(edit.src); warm != want {
			t.Errorf("%s: warm run differs from cold run:\ncold:\n%s\nwarm:\n%s", edit.name, want, warm)
		}
		if puts := store.Stats().Puts - before.Puts; edit.pure && puts != 0 {
			t.Errorf("%s: a pure shift recomputed %d facts", edit.name, puts)
		}
	}
}
