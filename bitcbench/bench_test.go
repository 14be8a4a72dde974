package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, workload string) config {
	return config{
		Workload: workload, Seed: 3, Trace: true, Size: tinySizes,
		OutDir: t.TempDir(), Deterministic: true, Refs: defaultRefs,
	}
}

// ownMetrics are each workload's end-to-end metrics by the names the
// documentation uses.
var ownMetrics = map[string][]string{
	"kernels": {"run_ms_geomean", "boxed_run_ms_geomean"},
	"watch":   {"analyze_cold_s", "reanalyze_p50_ms", "reanalyze_p90_ms"},
	"verify":  {"verify_s"},
	"serve":   {"txn_per_s"},
}

type line struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func parseLine(t *testing.T, res *result, traced bool) line {
	t.Helper()
	s, err := summary([]*result{res}, traced)
	if err != nil {
		t.Fatal(err)
	}
	var l line
	if err := json.Unmarshal([]byte(s), &l); err != nil {
		t.Fatalf("final line %q: %v", s, err)
	}
	return l
}

// TestSmoke runs every workload at tiny size, traced, and checks that every
// metric is printed with its unit and that nothing failed.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			res, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			e2e := parseLine(t, res, false)
			if !e2e.Correct || e2e.Failed != 0 {
				t.Errorf("final line: correct=%v failed=%d", e2e.Correct, e2e.Failed)
			}
			if len(e2e.Metrics) != len(e2eSpecs) {
				t.Errorf("%d end-to-end metrics, want %d", len(e2e.Metrics), len(e2eSpecs))
			}
			for _, s := range e2eSpecs {
				m, ok := e2e.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || !(m.Value > 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want unit %s and a positive value", s.Name, m, ok, s.Unit)
				}
			}
			layers := parseLine(t, res, true)
			if len(layers.Metrics) != len(layerSpecs) {
				t.Errorf("%d per-layer metrics, want %d", len(layers.Metrics), len(layerSpecs))
			}
			for _, s := range layerSpecs {
				if m, ok := layers.Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", s.Name, m, ok, s.Unit)
				}
			}

			var out bytes.Buffer
			report(&out, cfg, res)
			text := out.String()
			for _, n := range append(ownMetrics[name], "setup_s", "setup_wall_s", "heap_peak_mb", "fail_frac") {
				if !strings.Contains(text, "  "+n+" ") {
					t.Errorf("report lacks %s:\n%s", n, text)
				}
			}
			if !strings.Contains(text, "  fail_frac                          0.0000 ratio") {
				t.Errorf("fail_frac is not 0:\n%s", text)
			}
			for _, want := range []string{"GOMAXPROCS=", "nproc=", "cpu=", "commit=", "go=", "tracing overhead", "accounting per"} {
				if !strings.Contains(text, want) {
					t.Errorf("report lacks %q", want)
				}
			}

			path := filepath.Join(cfg.OutDir, "spans.json")
			if err := res.tracer.writeChrome(path); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("span file: %d events, err %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// TestCountersRepeat runs each workload twice with one seed: the exact
// counters of the traced run must repeat byte for byte.
func TestCountersRepeat(t *testing.T) {
	counters := map[string][]string{
		"kernels": {"vm.instrs", "vm.allocs", "vm.box_allocs", "compiler.ir_instrs", "opt.ir_instrs"},
		"watch":   {"factstore.hits", "factstore.misses", "factstore.entries"},
		"verify":  {"verify.vcs", "verify.proved", "verify.failed"},
		"serve":   {"serve.committed", "serve.cross_committed", "vm.instrs"},
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var runs [2]string
			for i := range runs {
				res, err := execute(tinyConfig(t, name))
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, c := range counters[name] {
					v := res.Layers[c]
					if v == 0 {
						t.Errorf("%s is 0", c)
					}
					b.WriteString(c + "=" + strconv.FormatFloat(v, 'g', -1, 64) + "\n")
				}
				runs[i] = b.String()
			}
			if runs[0] != runs[1] {
				t.Errorf("counters differ between runs with one seed:\n%s---\n%s", runs[0], runs[1])
			}
		})
	}
}

// TestWrongReferenceFails swaps in a deliberately wrong reference: the
// mismatches must show in the failure count.
func TestWrongReferenceFails(t *testing.T) {
	wrong := map[string]func(*refs){
		"kernels": func(r *refs) {
			r.kernel = func(name string, n, lcg int64) int64 { return kernelRef(name, n, lcg) + 1 }
		},
		"verify": func(r *refs) {
			r.verdicts = func() map[string]verdict {
				v := templateVerdicts()
				v["bad-index"] = verdict{VCs: 1} // claims the injected bug proves
				return v
			}
		},
		"serve": func(r *refs) {
			r.balance = func(users, initial int64) int64 { return users*initial + 1 }
		},
	}
	for name, spoil := range wrong {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			cfg.Trace = false
			spoil(&cfg.Refs)
			res, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 {
				t.Errorf("a wrong reference left fail_frac at 0 (%d operations)", res.Attempted)
			}
			if l := parseLine(t, res, false); l.Correct {
				t.Errorf("final line reports correct with a wrong reference")
			}
		})
	}
}

func TestKernelRef(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int64
		want int64
	}{
		{"fib", 10, 55}, {"fib", 20, 6765},
		{"vector-sum", 4, 18}, {"struct-walk", 1, 0},
	} {
		if got := kernelRef(c.name, c.n, 0); got != c.want {
			t.Errorf("kernelRef(%s, %d) = %d, want %d", c.name, c.n, got, c.want)
		}
	}
	// LCG from 12345: 1406932606, 654583775, 1449466924.
	if got := kernelRef("insertion-sort", 3, 12345); got != 1449466924 {
		t.Errorf("insertion-sort max = %d, want 1449466924", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if got := geomean([]float64{2, 8}); got < 3.999 || got > 4.001 {
		t.Errorf("geomean = %v, want 4", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	op := tr.op("k")
	a := tr.begin("a")
	b := tr.begin("b")
	tr.end(b)
	tr.end(a)
	tr.end(op)
	// Pin the clocks so the arithmetic is exact.
	for i, se := range map[int][2]time.Duration{op: {0, 100}, a: {10, 70}, b: {20, 50}} {
		tr.spans[i].Start, tr.spans[i].End = se[0], se[1]
		tr.spans[i].CPUStart, tr.spans[i].CPUEnd = 2*se[0], 2*se[1]
	}
	wall, cpu := tr.selfTimes()
	if wall[op] != 40 || wall[a] != 30 || wall[b] != 30 {
		t.Errorf("wall self times %v, want [40 30 30]", wall)
	}
	if cpu[op] != 80 || cpu[a] != 60 || cpu[b] != 60 {
		t.Errorf("cpu self times %v, want [80 60 60]", cpu)
	}
	if tr.spans[b].Parent != a || tr.spans[a].Parent != op || tr.spans[b].Op != tr.spans[op].Op {
		t.Errorf("span links wrong: %+v", tr.spans)
	}
}
