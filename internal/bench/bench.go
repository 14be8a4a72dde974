// Package bench is the experiment harness: it regenerates, as printed
// tables, the eight quantitative claims of Shapiro's PLOS 2006 position
// paper (four fallacies, four challenges). Each experiment is identified as
// E1–E8; DESIGN.md maps them to the paper's claims and EXPERIMENTS.md
// records expected-vs-measured shapes.
package bench

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"
)

// Table is a printable result table.
type Table struct {
	ID      string
	Title   string
	Claim   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Params scales experiment workloads. Quick keeps everything test-suite
// sized; the CLI uses Full for stabler numbers.
type Params struct {
	Scale int // 1 = quick, larger = longer runs
	Reps  int // interleaved repetitions behind every timing (see timeRuns)
}

// Quick is the test-suite parameterisation.
var Quick = Params{Scale: 1, Reps: 3}

// Full is the command-line parameterisation.
var Full = Params{Scale: 10, Reps: 7}

// Experiment is one reproducible table.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Run   func(p Params) []*Table
}

// All returns the experiments in order E1..E8.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Boxed vs unboxed representation (fallacy 1)",
			Claim: `"Factors of 1.5x to 2x in performance don't matter" — they are exactly the cost of the uniform representation`,
			Run:   runE1},
		{ID: "E2", Title: "Can the optimiser remove boxing? (fallacy 2)",
			Claim: `"Boxed representation can be optimised away" — only for values that never escape`,
			Run:   runE2},
		{ID: "E3", Title: "Layout control vs optimiser recovery (fallacy 3)",
			Claim: `"The optimiser can fix it" — no legal pass may rewrite declared representation`,
			Run:   runE3},
		{ID: "E4", Title: "Cost of the legacy (C) boundary (fallacy 4)",
			Claim: `"The legacy problem is insurmountable" — the boundary has bounded, amortisable cost`,
			Run:   runE4},
		{ID: "E5", Title: "Automated constraint checking (challenge 1)",
			Claim: `systems-code contracts discharge automatically with a small prover`,
			Run:   runE5},
		{ID: "E6", Title: "Storage management disciplines (challenge 2)",
			Claim: `malloc/free latency varies by orders of magnitude; regions are flat; GCs trade pauses`,
			Run:   runE6},
		{ID: "E7", Title: "Data representation footprint (challenge 3)",
			Claim: `packed < natural << uniform-boxed footprint; wire formats need bit-level control`,
			Run:   runE7},
		{ID: "E8", Title: "Managing shared state (challenge 4)",
			Claim: `unsynchronised code races; locks don't compose; STM composes`,
			Run:   runE8},
		{ID: "E9", Title: "Sharded STM transaction service under open-loop load",
			Claim: `the mechanisms compose into a multi-tenant service: throughput scales with shards, aborts stay bounded, cross-shard 2PC conserves balance`,
			Run:   runE9},
	}
}

// ByID returns the experiment (or ablation) with the given ID, or nil.
func ByID(id string) *Experiment {
	for _, e := range AllWithAblations() {
		if strings.EqualFold(e.ID, id) {
			return &e
		}
	}
	return nil
}

// percentile returns the p-th percentile (0..100) of a sample.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		return *new(T)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	idx := int(float64(len(s)-1) * p / 100)
	return s[idx]
}

// timeRuns is the harness's one stopwatch for VM runs and analysis calls.
// Repetition i runs fns in order for even i, reversed for odd i, so no
// closure always runs first; ns[j][i] is closure j's wall time in it. Each
// timed call starts after a collection, so none pays for the garbage of the
// one before it. Deterministic runs call each closure once and record 0.
func timeRuns(reps int, deterministic bool, fns ...func() error) ([][]uint64, error) {
	if deterministic {
		reps = 1
	}
	ns := make([][]uint64, len(fns))
	for i := 0; i < reps; i++ {
		for k := range fns {
			j := k
			if i%2 == 1 {
				j = len(fns) - 1 - k
			}
			if !deterministic {
				runtime.GC()
			}
			start := time.Now()
			if err := fns[j](); err != nil {
				return nil, err
			}
			d := uint64(time.Since(start))
			if deterministic {
				d = 0
			}
			ns[j] = append(ns[j], d)
		}
	}
	return ns, nil
}

// median is a closure's median wall time from timeRuns.
func median(ns []uint64) time.Duration { return time.Duration(percentile(ns, 50)) }

// spread is the median of per-repetition ratios and their quartiles.
type spread struct{ med, q1, q3 float64 }

// ratios returns num[i]/den[i] for each repetition of one timeRuns call.
func ratios(num, den []uint64) []float64 {
	rs := make([]float64, len(num))
	for i := range num {
		rs[i] = float64(num[i]) / float64(den[i])
	}
	return rs
}

func spreadOf(rs []float64) spread {
	return spread{percentile(rs, 50), percentile(rs, 25), percentile(rs, 75)}
}

// String renders a ratio as "2.41x (2.38-2.45)", marked "n.s." when its
// interquartile interval contains 1.0.
func (s spread) String() string {
	txt := fmt.Sprintf("%.2fx (%.2f-%.2f)", s.med, s.q1, s.q3)
	if s.q1 <= 1 && 1 <= s.q3 {
		txt += " n.s."
	}
	return txt
}
