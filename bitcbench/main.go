// Command bitcbench is the bitc toolchain's benchmark. It runs one of four
// workloads (kernels, watch, verify, serve) generated from a seed, checks
// every output against a reference that does not come from bitc, and
// prints the end-to-end metrics; with -trace 1 it also makes a traced run
// that times each layer's public calls and prints per-layer metrics. The
// last line of standard output is one JSON object. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// config is one invocation's settings.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Size     sizes
	OutDir   string // where the traced run writes its span file
	// Deterministic runs serve with a single 2PC coordinator, so its
	// counters repeat exactly for a seed.
	Deterministic bool
	// Refs are the reference results outputs are checked against.
	Refs refs
}

// sizes scales the workloads. fullSizes is the benchmark; the tests use
// tinySizes.
type sizes struct {
	SetupReps      int     // fewest untraced set-ups; setup_s is their median
	SetupSeconds   float64 // and repeat set-up for at least this long
	TraceSetupReps int
	MinOps         int // fewest untraced operations, so every quantile is defined
	TraceOps       int // operations in the traced run

	Fib, VecSum, StructWalk, Sort int64 // kernel problem sizes

	CorpusFuncs int // watch corpus size
	ColdReps    int // cold analyses; analyze_cold is their median

	VerifyCopies int // copies of the contract templates

	ServeUsers  int64
	ServeRate   int // transactions offered per round
	ServeRounds int // rounds of traffic per serve run
	ServeBatch  int
}

var fullSizes = sizes{
	SetupReps: 5, SetupSeconds: 1, TraceSetupReps: 3, MinOps: 10, TraceOps: 24,
	Fib: 18, VecSum: 12000, StructWalk: 6000, Sort: 300,
	CorpusFuncs: 1000, ColdReps: 3,
	VerifyCopies: 150,
	ServeUsers:   100_000, ServeRate: 384, ServeRounds: 10, ServeBatch: 256,
}

var tinySizes = sizes{
	SetupReps: 2, TraceSetupReps: 1, MinOps: 8, TraceOps: 8,
	Fib: 10, VecSum: 200, StructWalk: 100, Sort: 30,
	CorpusFuncs: 60, ColdReps: 1,
	VerifyCopies: 3,
	ServeUsers:   2000, ServeRate: 48, ServeRounds: 3, ServeBatch: 32,
}

var workloadNames = []string{"kernels", "watch", "verify", "serve"}

// DefaultSeed is the seed to tune against; README.md names the held-out
// seed a claimed gain must also hold on.
const DefaultSeed = 1

func newWorkload(cfg config) (workload, error) {
	switch cfg.Workload {
	case "kernels":
		return newKernels(cfg), nil
	case "watch":
		return newWatch(cfg), nil
	case "verify":
		return newVerify(cfg), nil
	case "serve":
		return newServe(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", cfg.Workload, strings.Join(workloadNames, ", "))
}

func main() {
	workload := flag.String("workload", "all", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Uint64("seed", DefaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "untraced measurement time per workload")
	trace := flag.Int("trace", 0, "1 adds the traced run and prints per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "bitcbench-spans"), "directory for span files")
	flag.Parse()

	cfg := config{
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Size: fullSizes, OutDir: *out, Refs: defaultRefs,
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	var results []*result
	for _, name := range names {
		cfg.Workload = name
		res, err := execute(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bitcbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if res.tracer != nil {
			res.SpanFile = filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.Seed))
			if err := res.tracer.writeChrome(res.SpanFile); err != nil {
				fmt.Fprintf(os.Stderr, "bitcbench: %v\n", err)
				os.Exit(1)
			}
		}
		report(os.Stdout, cfg, res)
		results = append(results, res)
	}
	line, err := summary(results, cfg.Trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bitcbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// metricJSON is one metric of the final line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary renders the final JSON line: the end-to-end metrics, or the
// per-layer ones for a traced run. With several workloads every name is
// prefixed by its workload.
func summary(results []*result, traced bool) (string, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricJSON{}}
	for _, res := range results {
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		specs, values := e2eSpecs, res.E2E
		if traced {
			specs, values = layerSpecs, res.Layers
		}
		for _, s := range specs {
			name := s.Name
			if len(results) > 1 {
				name = res.Workload + "." + name
			}
			out.Metrics[name] = metricJSON{Value: values[s.Name], Unit: s.Unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	return string(b), err
}

// report prints one workload's human-readable block: run metadata, the
// workload's own figures, the end-to-end metrics and, for a traced run, the
// per-layer table, the tracing overhead and the time accounting.
func report(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "== bitcbench workload=%s seed=%d seconds=%g trace=%v\n", res.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(w, "host: go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), gitCommit())
	for _, kv := range res.Config {
		fmt.Fprintf(w, "config: %s=%s\n", kv[0], kv[1])
	}
	fmt.Fprintf(w, "%s:\n", res.Workload)
	for _, n := range res.Named {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", n.Name, n.Value, n.Unit)
	}
	fmt.Fprintf(w, "  %-26s %14.4f %s  (%d of %d outputs failed)\n", "fail_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	fmt.Fprintf(w, "end-to-end:\n")
	for _, s := range e2eSpecs {
		fmt.Fprintf(w, "  %-26s %14.4f %s\n", s.Name, res.E2E[s.Name], s.Unit)
	}
	if res.Layers == nil {
		return
	}
	fmt.Fprintf(w, "per-layer self time (traced run; spans in %s):\n", res.SpanFile)
	printLayerTable(w, res.Table)
	fmt.Fprintf(w, "per-layer metrics:\n")
	for _, s := range layerSpecs {
		fmt.Fprintf(w, "  %-30s %16.4f %s\n", s.Name, res.Layers[s.Name], s.Unit)
	}
	fmt.Fprintf(w, "tracing overhead (traced minus untraced):\n")
	for _, s := range e2eSpecs {
		fmt.Fprintf(w, "  %-26s %+14.4f %s\n", s.Name, res.Overhead[s.Name], s.Unit)
	}
	a := res.Account
	for _, c := range []struct {
		clock                             string
		untraced, traced, layers, benchMs float64
	}{
		{"cpu", a.UntracedCPU, a.TracedCPU, a.LayersCPU, a.BenchCPU},
		{"wall", a.UntracedWall, a.TracedWall, a.LayersWall, a.BenchWall},
	} {
		fmt.Fprintf(w, "accounting per %s (%s): untraced %.4f ms; traced %.4f ms = layers %.4f + bench %.4f;"+
			" untraced minus layers %+.4f ms, tracing overhead %+.4f ms\n",
			a.Kind, c.clock, c.untraced, c.traced, c.layers, c.benchMs, c.untraced-c.layers, c.traced-c.untraced)
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the commit of a git checkout in the working directory,
// without running git; a source tree that is not a repository has none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
