package bench

import (
	"context"
	"fmt"
	"time"

	"bitc/internal/obs"
	"bitc/internal/serve"
)

// E9: the serving experiment. Where E1–E8 price individual mechanisms, E9
// composes them into the shape the paper is actually about — a long-running,
// multi-tenant systems service: accounts sharded across schedulers, STM
// batches on green threads, a two-phase commit for cross-shard transfers,
// and open-loop load with admission control (internal/serve).
//
// E9a fixes the offered load and sweeps the shard count: committed
// throughput scales with shards because each shard adds a batch budget and
// an independent scheduler, while the abort rate stays bounded (conflicts
// are per-account, not per-shard). E9b fixes the shard count and sweeps the
// population 10^4→10^6: with constant offered load, a larger key space means
// fewer collisions, so the abort rate falls as users grow.

// e9Users returns the population for the scale: 10^4 quick, 10^6 full.
func e9Users(scale int) int64 {
	return 10_000 * int64(scale) * int64(scale)
}

// e9Run executes one serving configuration and returns its result.
func e9Run(shards int, users int64, deterministic bool) (*serve.Result, error) {
	sv, err := serve.New(serve.Options{
		Shards: shards, Users: users, Rate: 2000, Duration: 10,
		Cross: 0.1, Skew: 0.2, Seed: 1, Deterministic: deterministic,
	})
	if err != nil {
		return nil, err
	}
	return sv.Run(context.Background())
}

func runE9(p Params) []*Table {
	users := e9Users(p.Scale)
	sweep := &Table{
		ID: "E9a", Title: fmt.Sprintf("shard sweep at %d users, offered load 2000 txn/round", users),
		Claim:   "throughput scales with shards; the STM abort rate stays bounded under fixed contention",
		Headers: []string{"shards", "committed", "cross", "rejected", "abort rate", "p50", "p99", "txn/round", "wall"},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := e9Run(shards, users, false)
		if err != nil {
			sweep.Notes = append(sweep.Notes, err.Error())
			continue
		}
		if !res.InvariantOK {
			sweep.Notes = append(sweep.Notes, fmt.Sprintf("shards=%d: conservation violated", shards))
		}
		sweep.AddRow(shards, res.Committed, res.CrossCommitted, res.Rejected+res.CrossRejected,
			fmt.Sprintf("%.4f", e9AbortRate(res)),
			fmt.Sprintf("%dt", res.P50Ticks), fmt.Sprintf("%dt", res.P99Ticks),
			fmt.Sprintf("%.0f", float64(res.Committed+res.CrossCommitted)/float64(res.Rounds)),
			time.Duration(res.WallNS))
	}

	pop := &Table{
		ID: "E9b", Title: "population sweep at 8 shards (constant offered load)",
		Claim:   "a larger key space dilutes contention: the abort rate falls as users grow",
		Headers: []string{"users", "committed", "cross", "rejected", "abort rate", "p50", "p99", "wall"},
	}
	for n := int64(10_000); n <= users; n *= 10 {
		res, err := e9Run(8, n, false)
		if err != nil {
			pop.Notes = append(pop.Notes, err.Error())
			continue
		}
		pop.AddRow(n, res.Committed, res.CrossCommitted, res.Rejected+res.CrossRejected,
			fmt.Sprintf("%.4f", e9AbortRate(res)),
			fmt.Sprintf("%dt", res.P50Ticks), fmt.Sprintf("%dt", res.P99Ticks),
			time.Duration(res.WallNS))
	}
	pop.Notes = append(pop.Notes,
		"latency is in virtual rounds (arrival to commit); a deterministic seed reproduces every cell except wall time")
	return []*Table{sweep, pop}
}

func e9AbortRate(res *serve.Result) float64 {
	den := res.TxCommits + res.TxAborts
	if den == 0 {
		return 0
	}
	return float64(res.TxAborts) / float64(den)
}

// metricsE9 exports the shard sweep as bitc-metrics/v1: one row per shard
// count carrying the aggregate STM counters and the serving-level derived
// metrics (throughput per round, abort rate, latency percentiles, the
// conservation verdict). Deterministic runs are byte-reproducible: 2PC
// collapses to one coordinator and wall-clock fields are zeroed.
func metricsE9(p Params, deterministic bool) (*obs.MetricsDoc, error) {
	doc := obs.NewMetricsDoc("E9", deterministic)
	users := e9Users(p.Scale)
	for _, shards := range []int{1, 2, 4, 8} {
		res, err := e9Run(shards, users, deterministic)
		if err != nil {
			return nil, fmt.Errorf("E9 shards=%d: %w", shards, err)
		}
		doc.Rows = append(doc.Rows, obs.Metrics{
			Workload: "serve",
			Mode:     fmt.Sprintf("shards-%d", shards),
			N:        users,
			WallNS:   res.WallNS, // 0 when deterministic
			Counters: obs.Counters{TxCommits: res.TxCommits, TxAborts: res.TxAborts},
			Derived: map[string]float64{
				"shards":            float64(shards),
				"rounds":            float64(res.Rounds),
				"committed":         float64(res.Committed),
				"crossCommitted":    float64(res.CrossCommitted),
				"rejected":          float64(res.Rejected),
				"crossRejected":     float64(res.CrossRejected),
				"conflicts":         float64(res.Conflicts),
				"abortRate":         e9AbortRate(res),
				"p50LatencyTicks":   float64(res.P50Ticks),
				"p99LatencyTicks":   float64(res.P99Ticks),
				"committedPerRound": float64(res.Committed+res.CrossCommitted) / float64(res.Rounds),
				"invariantOK":       b2fBench(res.InvariantOK),
			},
		})
	}
	return doc, nil
}

func b2fBench(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
