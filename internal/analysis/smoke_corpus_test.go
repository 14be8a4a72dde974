package analysis_test

import (
	"testing"

	"bitc/internal/analysis"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
)

func TestCorpusColdWarmSmoke(t *testing.T) {
	src := corpus.Text(500, 25)
	opts := analysis.Options{}
	prog, info := check(t, src)
	plain, err := analysis.Run(prog, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(t, plain)
	store := factstore.New()
	_, cold := runStore(t, src, opts, store)
	if cold != want {
		t.Error("cold differs")
	}
	edited := corpus.EditOne(src, 137)
	_, warm := runStore(t, edited, opts, store)
	eprog, einfo := check(t, edited)
	fresh, err := analysis.Run(eprog, einfo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm != renderAll(t, fresh) {
		t.Error("warm after corpus edit differs from fresh cold")
	}
	st := store.Stats()
	t.Logf("stats: %+v", st)
}

// TestParallelDrivers runs the driver on an 8-worker pool over a corpus —
// with no store, on a fresh store, and warm after an edit — against a
// sequential run with no store. Analyzers running in parallel share each
// function's CFG and the whole-program facts, so scripts/check.sh runs
// this test under -race as well.
func TestParallelDrivers(t *testing.T) {
	src := corpus.Text(400, 25)
	seq := func(src string) string {
		prog, info := check(t, src)
		rep, err := analysis.Run(prog, info, analysis.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, rep)
	}
	want := seq(src)
	par := analysis.Options{Parallelism: 8}
	if _, none := runStore(t, src, par, nil); none != want {
		t.Error("parallel nil-store run differs from sequential run")
	}
	store := factstore.New()
	if _, cold := runStore(t, src, par, store); cold != want {
		t.Error("parallel cold run differs from sequential run")
	}
	edited := corpus.EditOne(src, 137)
	if _, warm := runStore(t, edited, par, store); warm != seq(edited) {
		t.Error("parallel warm run after an edit differs from sequential run")
	}
}
