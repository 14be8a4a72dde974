package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"bitc/internal/core"
	"bitc/internal/parser"
	"bitc/internal/types"
	"bitc/internal/verify"
)

// verifyTemplates are E5-style contract templates. Each is instantiated
// once per copy with the copy number appended to every function name (the
// %[1]d verb) and seeded constants (%[2]d, %[3]d) that leave its verdict
// unchanged: c2 ≥ 0 and c3 ≥ 2.
var verifyTemplates = []struct {
	name  string
	funcs []string // function name prefixes the template defines
	src   string
}{
	{"saturating-inc", []string{"sat-inc"}, `
(define (sat-inc-%[1]d (x int64) (lim int64)) int64
  :requires (and (<= x lim) (<= lim %[2]d))
  :ensures (<= %%result %[2]d)
  (if (< x lim) (+ x 1) x))`},
	{"ring-index", []string{"ring-next"}, `
(define (ring-next-%[1]d (i int64) (cap int64)) int64
  :requires (and (>= i 0) (< i cap))
  :requires (> cap 0)
  :ensures (and (>= %%result 0) (< %%result cap))
  (if (= (+ i 1) cap) 0 (+ i 1)))`},
	{"vector-fill", []string{"fill"}, `
(define (fill-%[1]d (n int64)) int64
  :requires (> n 0)
  (let ((v (make-vector n 0)))
    (dotimes (i n) (vector-set! v i (* i %[3]d)))
    (vector-ref v (- n 1))))`},
	{"call-contract", []string{"pos", "twice-pos"}, `
(define (pos-%[1]d (x int64)) int64
  :requires (>= x 0)
  :ensures (>= %%result 1)
  (+ x 1))
(define (twice-pos-%[1]d (y int64)) int64
  :requires (>= y %[3]d)
  :ensures (>= %%result 2)
  (+ (pos-%[1]d y) (pos-%[1]d y)))`},
	{"loop-invariant", []string{"sum-to"}, `
(define (sum-to-%[1]d (n int64)) int64
  :requires (>= n 0)
  :ensures (>= %%result %[2]d)
  (let ((mutable i 0) (mutable acc %[2]d))
    (while (< i n)
      :invariant (>= acc %[2]d)
      :invariant (>= i 0)
      (set! acc (+ acc i))
      (set! i (+ i 1)))
    acc))`},
	{"bug-off-by-one", []string{"bad-index"}, `
(define (bad-index-%[1]d (n int64)) int64
  :requires (> n 0)
  (let ((v (make-vector n 0)))
    (vector-ref v (+ n %[2]d))))`},
}

// templateVerdicts is each template's known answer, per function it
// defines, derived by hand from the contracts: one VC per ensures clause,
// per call-site requires, per loop invariant on entry and on preservation,
// and per vector access; only the injected out-of-bounds access fails.
func templateVerdicts() map[string]verdict {
	return map[string]verdict{
		"sat-inc":   {VCs: 1},
		"ring-next": {VCs: 1},
		"fill":      {VCs: 2},
		"pos":       {VCs: 1},
		"twice-pos": {VCs: 3},
		"sum-to":    {VCs: 5},
		"bad-index": {VCs: 1, Failed: []string{string(verify.KindBounds)}},
	}
}

// verifyW verifies one generated program of template instances. One
// operation is one verify.Program pass over every function.
type verifyW struct {
	cfg   config
	src   string
	funcs map[string]string // function name → template function prefix
	prog  *core.Program
	last  *verify.Report
}

func newVerify(c config) *verifyW {
	rng := rand.New(rand.NewSource(int64(c.Seed)))
	type inst struct{ t, copy int }
	var insts []inst
	for copy := 0; copy < c.Size.VerifyCopies; copy++ {
		for t := range verifyTemplates {
			insts = append(insts, inst{t, copy})
		}
	}
	rng.Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	v := &verifyW{cfg: c, funcs: map[string]string{}}
	var b strings.Builder
	for _, in := range insts {
		t := verifyTemplates[in.t]
		fmt.Fprintf(&b, t.src+"\n", in.copy, rng.Intn(1000), 2+rng.Intn(8))
		for _, f := range t.funcs {
			v.funcs[f+"-"+strconv.Itoa(in.copy)] = f
		}
	}
	v.src = b.String()
	return v
}

func (v *verifyW) opKind() string { return "verify.pass" }

func (v *verifyW) describe() [][2]string {
	var names []string
	for _, t := range verifyTemplates {
		names = append(names, t.name)
	}
	return [][2]string{
		{"templates", strings.Join(names, ", ")},
		{"copies", strconv.Itoa(v.cfg.Size.VerifyCopies)},
		{"functions", strconv.Itoa(len(v.funcs))},
		{"options", "verify.DefaultOptions (div-by-zero and bounds checks on)"},
	}
}

// setup parses and type-checks the program: core.LoadAnalysis untraced,
// its two phases in their own spans when traced.
func (v *verifyW) setup(p *phase) error {
	if p.tr == nil {
		prog, err := core.LoadAnalysis("verify.bitc", v.src)
		v.prog = prog
		return err
	}
	op := p.tr.op("verify.setup")
	defer p.tr.end(op)
	s := p.tr.begin("parser")
	prog, diags := parser.Parse("verify.bitc", v.src)
	p.tr.end(s)
	if err := diags.ErrOrNil(); err != nil {
		return err
	}
	s = p.tr.begin("types")
	info, cdiags := types.Check(prog)
	p.tr.end(s)
	if err := cdiags.ErrOrNil(); err != nil {
		return err
	}
	v.prog = &core.Program{Name: "verify.bitc", AST: prog, Info: info}
	return nil
}

func (v *verifyW) start(p *phase) error { return nil }

func (v *verifyW) run(p *phase, i int) error {
	start := now()
	op := p.tr.op("verify.pass")
	s := p.tr.begin("verify")
	rep := verify.Program(v.prog.AST, v.prog.Info, verify.DefaultOptions)
	p.tr.end(s)
	p.tr.end(op)
	p.record("pass", start, float64(len(rep.VCs)))
	v.checkVerdicts(p, rep)
	v.last = rep
	return nil
}

// checkVerdicts counts one attempted operation per function: its VCs must
// match its template's known answer.
func (v *verifyW) checkVerdicts(p *phase, rep *verify.Report) {
	type got struct {
		vcs    int
		failed []string
	}
	byFunc := map[string]*got{}
	for _, vc := range rep.VCs {
		g := byFunc[vc.Func]
		if g == nil {
			g = &got{}
			byFunc[vc.Func] = g
		}
		g.vcs++
		if !vc.Result.Proved {
			g.failed = append(g.failed, string(vc.Kind))
		}
	}
	want := v.cfg.Refs.verdicts()
	for fn, tmpl := range v.funcs {
		g := byFunc[fn]
		if g == nil {
			g = &got{}
		}
		w := want[tmpl]
		sort.Strings(g.failed)
		var err error
		if g.vcs != w.VCs || strings.Join(g.failed, ",") != strings.Join(w.Failed, ",") {
			err = fmt.Errorf("%s: %d VCs, failed %v; want %d VCs, failed %v: %w", fn, g.vcs, g.failed, w.VCs, w.Failed, errMismatch)
		}
		p.check(err)
	}
	if rep.Skipped != 0 {
		p.check(fmt.Errorf("%d conditions fell outside the prover's fragment: %w", rep.Skipped, errMismatch))
	}
}

func (v *verifyW) finish(p *phase) error { return nil }

func (v *verifyW) extra(p *phase) error { return nil }

func (v *verifyW) named(p *phase) []named {
	return []named{
		{"verify_s", "s", median(p.wall["pass"]) / 1e3},
		{"verify_cpu_s", "s", median(p.cpu["pass"]) / 1e3},
	}
}

// layers reports the front end per set-up and the verifier per pass.
func (v *verifyW) layers(p *phase, rows []layerRow) map[string]float64 {
	verifyMs := perOp(rows, "verify.pass", "verify")
	parserMs := perOp(rows, "verify.setup", "parser")
	vcs := float64(len(v.last.VCs))
	return map[string]float64{
		"parser.ms":        parserMs,
		"parser.mb_per_s":  ratio(float64(len(v.src))/1e6, parserMs/1e3),
		"types.ms":         perOp(rows, "verify.setup", "types"),
		"verify.ms":        verifyMs,
		"verify.vcs":       vcs,
		"verify.proved":    float64(v.last.Proved),
		"verify.failed":    float64(v.last.Failed),
		"verify.skipped":   float64(v.last.Skipped),
		"verify.us_per_vc": ratio(verifyMs*1e3, vcs),
	}
}
