package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"bitc/internal/analysis"
	"bitc/internal/ast"
	"bitc/internal/cfg"
	"bitc/internal/core"
	"bitc/internal/corpus"
	"bitc/internal/factstore"
	"bitc/internal/parser"
	"bitc/internal/pointsto"
	"bitc/internal/types"
)

const (
	watchFile      = "corpus.bitc"
	watchCluster   = 25 // functions per corpus cluster
	watchKeepRuns  = 8  // bitc analyze -watch's default -keep-runs
	watchWorkSet   = 32 // functions the edits are drawn from
	watchAnalyzers = "race,escape,atomicity,bounds,deadlock,deadstore,definit,ffi,truncate"
)

// watch is the bitc analyze -watch loop on a synthetic corpus: a cold
// analysis, then a seeded sequence of one-function edits, each re-loaded
// and re-analyzed on the shared fact store and followed by Prune. One
// operation is one edit, timed from the edited text to the report.
//
// The edits toggle functions of a seeded working set, as a developer
// revisits the few functions being worked on. Edits that each touch a new
// function make the retained heap grow by about one source text per edit,
// so collections grow rarer and each edit cheaper as a run goes on, and a
// run's figures would depend on how many edits fit in it.
type watch struct {
	cfg    config
	funcs  int
	seq    []int // seeded sequence of edited functions
	src    string
	edited map[int]bool
	prog   *core.Program
	store  *factstore.Store
	last   *analysis.Report
	// Cold analyses' wall and CPU seconds.
	coldWall, coldCPU []float64

	// Traced-run counters.
	stStart factstore.Stats
	stEnd   factstore.Stats
	edits   int
}

func newWatch(c config) *watch {
	funcs := (c.Size.CorpusFuncs / watchCluster) * watchCluster
	rng := rand.New(rand.NewSource(int64(c.Seed)))
	set := rng.Perm(funcs)[:min(watchWorkSet, funcs)]
	seq := make([]int, 4096) // more edits than a run makes; runs past it repeat it
	for i := range seq {
		seq[i] = set[rng.Intn(len(set))]
	}
	return &watch{cfg: c, funcs: funcs, seq: seq}
}

func (w *watch) opKind() string { return "watch.edit" }

func (w *watch) describe() [][2]string {
	return [][2]string{
		{"corpus", fmt.Sprintf("internal/corpus, %d functions in clusters of %d", w.funcs, watchCluster)},
		{"edits", fmt.Sprintf("seeded toggles of one function from a working set of %d", watchWorkSet)},
		{"analyzers", "all (" + watchAnalyzers + "), parallelism GOMAXPROCS"},
		{"store_prune_keep_runs", strconv.Itoa(watchKeepRuns)},
		{"cold_reps", strconv.Itoa(w.cfg.Size.ColdReps)},
	}
}

// setup builds the corpus and loads it (parse and type-check).
func (w *watch) setup(p *phase) error {
	op := p.tr.op("watch.setup")
	defer p.tr.end(op)
	s := p.tr.begin("corpus")
	w.src = corpus.Text(w.cfg.Size.CorpusFuncs, watchCluster)
	p.tr.end(s)
	w.edited = map[int]bool{}
	prog, err := w.load(p)
	w.prog = prog
	return err
}

// load is core.LoadAnalysis; the traced run calls its two phases in their
// own spans.
func (w *watch) load(p *phase) (*core.Program, error) {
	if p.tr == nil {
		return core.LoadAnalysis(watchFile, w.src)
	}
	s := p.tr.begin("parser")
	prog, diags := parser.Parse(watchFile, w.src)
	p.tr.end(s)
	if err := diags.ErrOrNil(); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	s = p.tr.begin("types")
	info, cdiags := types.Check(prog)
	p.tr.end(s)
	if err := cdiags.ErrOrNil(); err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return &core.Program{Name: watchFile, AST: prog, Info: info}, nil
}

// analyze is Program.AnalyzeWithStore, with a span in the traced run.
func (w *watch) analyze(p *phase, prog *core.Program, store *factstore.Store) (*analysis.Report, error) {
	s := p.tr.begin("analysis")
	defer p.tr.end(s)
	if p.tr == nil {
		return prog.AnalyzeWithStore(analysis.Options{}, store)
	}
	return analysis.RunWithStore(prog.AST, prog.Info, analysis.Options{}, store)
}

// start runs the cold analyses, each on a fresh store; the last store
// carries into the edits.
func (w *watch) start(p *phase) error {
	w.coldWall, w.coldCPU = nil, nil
	for r := 0; r < w.cfg.Size.ColdReps; r++ {
		w.store = factstore.New()
		start := now()
		op := p.tr.op("watch.cold")
		rep, err := w.analyze(p, w.prog, w.store)
		p.tr.end(op)
		wall, cpu := start.since()
		w.coldWall = append(w.coldWall, wall.Seconds())
		w.coldCPU = append(w.coldCPU, cpu.Seconds())
		p.check(err)
		w.last = rep
	}
	w.stStart, w.edits = w.store.Stats(), 0
	return nil
}

// edit changes one function's embedded constant: corpus.EditOne the first
// time a function is chosen, back again the next.
func (w *watch) edit(i int) {
	idx := w.seq[i%len(w.seq)]
	if w.edited[idx] {
		w.src = strings.Replace(w.src, strconv.Itoa(2000000+idx), strconv.Itoa(1000000+idx), 1)
	} else {
		w.src = corpus.EditOne(w.src, idx)
	}
	w.edited[idx] = !w.edited[idx]
}

func (w *watch) run(p *phase, i int) error {
	w.edit(i)
	start := now()
	op := p.tr.op("watch.edit")
	prog, err := w.load(p)
	var rep *analysis.Report
	if err == nil {
		rep, err = w.analyze(p, prog, w.store)
		s := p.tr.begin("factstore")
		w.store.Prune(watchKeepRuns)
		p.tr.end(s)
	}
	p.tr.end(op)
	p.record("edit", start, 1)
	p.check(err)
	w.prog, w.last = prog, rep
	w.edits++
	return nil
}

// finish checks the last warm report against a cold report of the same
// text from a fresh store: their renderings must be byte-equal.
func (w *watch) finish(p *phase) error {
	w.stEnd = w.store.Stats()
	if w.last == nil {
		return nil
	}
	cold, err := core.LoadAnalysis(watchFile, w.src)
	if err != nil {
		p.check(err)
		return nil
	}
	coldRep, err := cold.AnalyzeWithStore(analysis.Options{}, factstore.New())
	if err == nil {
		var warmB, coldB []byte
		if warmB, err = render(w.last); err == nil {
			if coldB, err = render(coldRep); err == nil && !bytes.Equal(warmB, coldB) {
				err = fmt.Errorf("warm report after %d edits differs from a cold one: %w", w.edits, errMismatch)
			}
		}
	}
	p.check(err)
	return nil
}

func render(rep *analysis.Report) ([]byte, error) {
	var b bytes.Buffer
	rep.Render(&b)
	err := rep.WriteJSON(&b)
	return b.Bytes(), err
}

// extra times, in one operation, what the analysis driver runs internally:
// cfg.Build over every function, pointsto.Analyze, and each analyzer alone
// (an inclusive single-analyzer run).
func (w *watch) extra(p *phase) error {
	op := p.tr.op("watch.extra")
	defer p.tr.end(op)
	prog, info := w.prog.AST, w.prog.Info
	s := p.tr.begin("cfg")
	cfgs := map[*ast.DefineFunc]*cfg.Graph{}
	for _, d := range prog.Defs {
		if fn, ok := d.(*ast.DefineFunc); ok {
			cfgs[fn] = cfg.Build(fn)
		}
	}
	p.tr.end(s)
	s = p.tr.begin("pointsto")
	pointsto.Analyze(prog, info, cfgs)
	p.tr.end(s)
	for _, name := range strings.Split(watchAnalyzers, ",") {
		s = p.tr.begin("analysis." + name)
		_, err := analysis.Run(prog, info, analysis.Options{Enable: []string{name}})
		p.tr.end(s)
		if err != nil {
			return fmt.Errorf("analyzer %s: %w", name, err)
		}
	}
	return nil
}

func (w *watch) named(p *phase) []named {
	return []named{
		{"analyze_cold_s", "s", median(w.coldWall)},
		{"analyze_cold_cpu_s", "s", median(w.coldCPU)},
		{"reanalyze_p50_ms", "ms", median(p.wall["edit"])},
		{"reanalyze_p90_ms", "ms", quantile(p.wall["edit"], 0.9)},
	}
}

// layers reports the front end and the warm analysis per edit, the cold
// analysis per cold run, the factstore traffic per edit, and the extra
// calls once each.
func (w *watch) layers(p *phase, rows []layerRow) map[string]float64 {
	edits := float64(max(w.edits, 1))
	hits := float64(w.stEnd.Hits - w.stStart.Hits)
	misses := float64(w.stEnd.Misses - w.stStart.Misses)
	parserMs := perOp(rows, "watch.edit", "parser")
	l := map[string]float64{
		"parser.ms":           parserMs,
		"parser.mb_per_s":     ratio(float64(len(w.src))/1e6, parserMs/1e3),
		"types.ms":            perOp(rows, "watch.edit", "types"),
		"cfg.ms":              perOp(rows, "watch.extra", "cfg"),
		"pointsto.ms":         perOp(rows, "watch.extra", "pointsto"),
		"analysis.cold_ms":    perOp(rows, "watch.cold", "analysis"),
		"analysis.warm_ms":    perOp(rows, "watch.edit", "analysis"),
		"factstore.hits":      hits / edits,
		"factstore.misses":    misses / edits,
		"factstore.hit_ratio": ratio(hits, hits+misses),
		"factstore.entries":   float64(w.stEnd.Entries),
	}
	for _, name := range strings.Split(watchAnalyzers, ",") {
		l["analysis."+name+".ms"] = perOp(rows, "watch.extra", "analysis."+name)
	}
	return l
}
