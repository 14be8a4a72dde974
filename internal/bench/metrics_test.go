package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"bitc/internal/obs"
)

// TestMetricsE1SchemaAndDeterminism checks the exporter emits the stable
// schema and that deterministic collection is byte-reproducible.
func TestMetricsE1SchemaAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	write := func(name string) []byte {
		doc, err := CollectMetrics("E1", Quick, true)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := doc.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := write("a.json"), write("b.json")
	if !bytes.Equal(a, b) {
		t.Fatal("deterministic metrics collection produced different bytes")
	}

	doc, err := obs.ReadMetricsFile(filepath.Join(dir, "a.json"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != obs.MetricsSchema || doc.Experiment != "E1" {
		t.Fatalf("schema=%q experiment=%q", doc.Schema, doc.Experiment)
	}
	if doc.Generated != "" {
		t.Error("deterministic doc carries a Generated timestamp")
	}
	// Two modes per workload, every row populated.
	if want := 2 * len(workloads()); len(doc.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(doc.Rows), want)
	}
	for _, row := range doc.Rows {
		if row.WallNS != 0 {
			t.Errorf("%s/%s: deterministic row has wallNs=%d", row.Workload, row.Mode, row.WallNS)
		}
		if row.Counters.Instrs == 0 {
			t.Errorf("%s/%s: zero instruction count", row.Workload, row.Mode)
		}
		if row.Mode == "boxed" && row.Counters.BoxAllocs == 0 {
			t.Errorf("%s: boxed run allocated no boxes", row.Workload)
		}
	}
}

// TestMetricsE8AbortRate checks the STM row measures real contention and
// the synchronised modes conserve the bank total while the racy one drifts.
func TestMetricsE8AbortRate(t *testing.T) {
	doc, err := CollectMetrics("E8", Quick, true)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]obs.Metrics{}
	for _, row := range doc.Rows {
		byMode[row.Mode] = row
	}
	stm := byMode["stm"]
	if stm.Counters.TxCommits == 0 {
		t.Fatal("stm mode committed no transactions")
	}
	if _, ok := stm.Derived["txAbortRate"]; !ok {
		t.Error("stm row missing txAbortRate")
	}
	for _, mode := range []string{"coarse", "stm"} {
		if got := byMode[mode].Derived["finalTotal"]; got != 100000 {
			t.Errorf("%s: finalTotal = %v, want 100000", mode, got)
		}
	}
}

// TestMetricsEAAnalysisWallTime checks the static-analysis exporter: every
// workload appears under both driver modes, both modes agree on the finding
// count (the byte-identical-report guarantee, seen through metrics), the
// racy bank workload is actually flagged, and deterministic collection
// zeroes the analysis wall time.
func TestMetricsEAAnalysisWallTime(t *testing.T) {
	doc, err := CollectMetrics("EA", Quick, true)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "EA" || len(doc.Rows) == 0 {
		t.Fatalf("doc = %+v", doc)
	}
	findings := map[string]map[string]float64{}
	for _, row := range doc.Rows {
		if row.AnalysisNS != 0 {
			t.Errorf("%s/%s: deterministic run has analysisNs = %d", row.Workload, row.Mode, row.AnalysisNS)
		}
		if findings[row.Workload] == nil {
			findings[row.Workload] = map[string]float64{}
		}
		findings[row.Workload][row.Mode] = row.Derived["findings"]
	}
	for w, modes := range findings {
		if len(modes) != 2 {
			t.Errorf("%s: want sequential+parallel rows, got %v", w, modes)
		}
		if modes["sequential"] != modes["parallel"] {
			t.Errorf("%s: finding counts diverge across driver modes: %v", w, modes)
		}
	}
	if findings["bankstm"]["sequential"] == 0 {
		t.Error("unsynchronised bank workload produced no findings")
	}
}

// TestMetricsUnknownExperiment checks the exporter rejects ids without a
// metrics mapping instead of writing an empty document.
func TestMetricsUnknownExperiment(t *testing.T) {
	if _, err := CollectMetrics("E99", Quick, true); err == nil {
		t.Fatal("expected an error for an unknown experiment")
	}
}

// TestE1TableRendersMetricsDoc checks the E1 table is a render of the
// metricsE1 document: each kernel row reads its cells from the unboxed and
// boxed rows, ratios print with their quartiles, and the printed table
// carries the same counters a metrics collection records.
func TestE1TableRendersMetricsDoc(t *testing.T) {
	doc, err := metricsE1(Quick, true)
	if err != nil {
		t.Fatal(err)
	}
	setRatio(doc.Rows[1].Derived, "boxedRatio", spread{2, 1.9, 2.1})
	doc.Rows = append(doc.Rows, obs.Metrics{Workload: "geomean", Derived: map[string]float64{}})
	setRatio(doc.Rows[len(doc.Rows)-1].Derived, "dispatchSpeedup", spread{1.5, 0.9, 1.6})
	tab := e1Table(doc)
	if want := len(workloads()) + 1; len(tab.Rows) != want {
		t.Fatalf("table rows = %d, want %d", len(tab.Rows), want)
	}
	for i, row := range tab.Rows[:len(workloads())] {
		un, bx := doc.Rows[2*i], doc.Rows[2*i+1]
		ratio := "-"
		if i == 0 {
			ratio = "2.00x (1.90-2.10)"
		}
		want := []string{un.Workload, fmt.Sprint(un.N),
			formatDuration(time.Duration(un.WallNS)), formatDuration(time.Duration(bx.WallNS)), ratio,
			fmt.Sprint(bx.Counters.BoxAllocs), fmt.Sprint(bx.Counters.BoxReads), "-", "-"}
		if !slices.Equal(row, want) {
			t.Errorf("row %d = %q, want %q", i, row, want)
		}
	}
	if got := tab.Rows[len(workloads())]; got[0] != "geomean" || got[7] != "1.50x (0.90-1.60) n.s." {
		t.Errorf("geomean row = %q", got)
	}

	measured := runE1(Quick)[0]
	if len(measured.Rows) != len(workloads())+1 {
		t.Fatalf("measured table rows = %d, want kernels + geomean", len(measured.Rows))
	}
	for i, row := range measured.Rows[:len(workloads())] {
		for _, col := range []int{0, 1, 5, 6} {
			if row[col] != tab.Rows[i][col] {
				t.Errorf("row %d col %s = %q, deterministic document renders %q",
					i, measured.Headers[col], row[col], tab.Rows[i][col])
			}
		}
		if row[4] == "-" || row[7] == "-" {
			t.Errorf("%s: measured row lacks a paired ratio: %q", row[0], row)
		}
	}
}

// TestCommittedTrajectories pins the BENCH_*.json files at the repository
// root to the code that writes them. The deterministic trajectories (E8, E9,
// ANALYZE) must regenerate byte for byte at full scale; BENCH_E1.json is a
// measured run, so only its workloads, modes, sizes, levels and counters are
// compared. Regenerate with `go run ./cmd/bitc-bench -e <id> -metrics .`,
// adding -deterministic for E8, E9 and ANALYZE.
func TestCommittedTrajectories(t *testing.T) {
	for _, id := range []string{"E8", "E9", "ANALYZE"} {
		t.Run(id, func(t *testing.T) {
			doc, err := CollectMetrics(id, Full, true)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "BENCH.json")
			if err := doc.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(obs.MetricsPath("../..", id))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("BENCH_%s.json differs from a deterministic full-scale collection:\n%s", id, got)
			}
		})
	}
	t.Run("E1", func(t *testing.T) {
		committed, err := obs.ReadMetricsFile(obs.MetricsPath("../..", "E1"))
		if err != nil {
			t.Fatal(err)
		}
		if committed.Generated == "" || committed.Reps < Full.Reps {
			t.Errorf("BENCH_E1.json is not a measured full-scale run: generated=%q reps=%d",
				committed.Generated, committed.Reps)
		}
		doc, err := CollectMetrics("E1", Full, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(committed.Rows) != len(doc.Rows)+1 || committed.Rows[len(doc.Rows)].Workload != "geomean" {
			t.Fatalf("BENCH_E1.json has %d rows, want %d kernel rows and a geomean row",
				len(committed.Rows), len(doc.Rows))
		}
		for i, want := range doc.Rows {
			got := committed.Rows[i]
			if got.Workload != want.Workload || got.Mode != want.Mode || got.N != want.N ||
				got.Opt != want.Opt || got.Counters != want.Counters {
				t.Errorf("row %d: committed %s/%s n=%d %s %+v, collected %s/%s n=%d %s %+v", i,
					got.Workload, got.Mode, got.N, got.Opt, got.Counters,
					want.Workload, want.Mode, want.N, want.Opt, want.Counters)
			}
		}
	})
}
