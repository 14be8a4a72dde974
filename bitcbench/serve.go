package main

import (
	"context"
	"fmt"
	"strconv"

	"bitc/internal/serve"
	"bitc/internal/vm"
)

// serveW drives bitc serve: one service built by serve.New, then repeated
// open-loop serve.Run windows of ServeRounds rounds at a fixed offered rate
// below capacity (Batch × Shards per round). One operation is one window;
// the service, its accounts and balances persist across windows.
type serveW struct {
	cfg  config
	opts serve.Options
	sv   *serve.Service
	prev *serve.Result // cumulative counters after the previous window
	runs int

	// Traced-run counters, summed over windows.
	delta serveDelta
}

// serveDelta is the part of a Result one window added.
type serveDelta struct {
	rounds, generated                     int64
	committed, crossCommitted             uint64
	rejected, crossRejected               uint64
	conflicts, retries, txCommits, aborts uint64
	queuePeak                             int
	vm                                    vm.Stats
}

func newServe(c config) *serveW {
	return &serveW{cfg: c, opts: serve.Options{
		Shards: 2, Coordinators: 2,
		Users: c.Size.ServeUsers, Rate: c.Size.ServeRate, Duration: c.Size.ServeRounds,
		Batch: c.Size.ServeBatch, Skew: 0.3, Cross: 0.2, Seed: c.Seed, InitialBalance: 100,
		Deterministic: c.Deterministic,
	}}
}

func (s *serveW) opKind() string { return "serve.run" }

func (s *serveW) describe() [][2]string {
	o := s.opts
	return [][2]string{
		{"serve_options", fmt.Sprintf("shards=%d coordinators=%d users=%d rate=%d/round rounds=%d batch=%d skew=%g cross=%g seed=%d deterministic=%v",
			o.Shards, o.Coordinators, o.Users, o.Rate, o.Duration, o.Batch, o.Skew, o.Cross, o.Seed, o.Deterministic)},
		{"load", "open loop in rounds; offered " + strconv.Itoa(o.Rate) + " txn/round against capacity " + strconv.Itoa(o.Batch*o.Shards)},
		{"shard_program", "core.DefaultConfig (O2, fused dispatch, unboxed)"},
	}
}

func (s *serveW) setup(p *phase) error {
	op := p.tr.op("serve.setup")
	defer p.tr.end(op)
	sp := p.tr.begin("serve.New")
	sv, err := serve.New(s.opts)
	p.tr.end(sp)
	s.sv, s.prev, s.runs, s.delta = sv, &serve.Result{}, 0, serveDelta{}
	return err
}

func (s *serveW) start(p *phase) error { return nil }

func (s *serveW) run(p *phase, i int) error {
	start := now()
	op := p.tr.op("serve.run")
	sp := p.tr.begin("serve.Run")
	res, err := s.sv.Run(context.Background())
	p.tr.end(sp)
	p.tr.end(op)
	if err != nil {
		return fmt.Errorf("serve run: %w", err)
	}
	w := s.window(res)
	p.record("run", start, float64(w.committed+w.crossCommitted))
	s.checkWindow(p, res, w)
	s.runs++
	return nil
}

// window subtracts the previous cumulative result from res.
func (s *serveW) window(res *serve.Result) serveDelta {
	prev := s.prev
	w := serveDelta{
		rounds:         int64(res.Rounds),
		generated:      res.Generated - prev.Generated,
		committed:      res.Committed - prev.Committed,
		crossCommitted: res.CrossCommitted - prev.CrossCommitted,
		rejected:       res.Rejected - prev.Rejected,
		crossRejected:  res.CrossRejected - prev.CrossRejected,
		conflicts:      res.Conflicts - prev.Conflicts,
		retries:        res.Retries - prev.Retries,
		txCommits:      res.TxCommits - prev.TxCommits,
		aborts:         res.TxAborts - prev.TxAborts,
	}
	for i, sh := range res.Shards {
		w.queuePeak = max(w.queuePeak, sh.QueuePeak)
		st := sh.Stats
		if i < len(prev.Shards) {
			ps := prev.Shards[i].Stats
			st = vm.Stats{
				Instrs: st.Instrs - ps.Instrs, Calls: st.Calls - ps.Calls, Allocs: st.Allocs - ps.Allocs,
				BoxAllocs: st.BoxAllocs - ps.BoxAllocs, ICHits: st.ICHits - ps.ICHits, ICMisses: st.ICMisses - ps.ICMisses,
				Switches: st.Switches - ps.Switches, ExternCalls: st.ExternCalls - ps.ExternCalls,
			}
		}
		addStats(&w.vm, st)
	}
	s.prev = res
	d := &s.delta
	d.rounds += w.rounds
	d.generated += w.generated
	d.committed += w.committed
	d.crossCommitted += w.crossCommitted
	d.rejected += w.rejected
	d.crossRejected += w.crossRejected
	d.conflicts += w.conflicts
	d.retries += w.retries
	d.txCommits += w.txCommits
	d.aborts += w.aborts
	d.queuePeak = max(d.queuePeak, w.queuePeak)
	addStats(&d.vm, w.vm)
	return w
}

// checkWindow counts every generated transaction as attempted; rejected
// ones fail. The window must also account for every transaction and
// conserve the total balance, checked against the benchmark's own sum.
func (s *serveW) checkWindow(p *phase, res *serve.Result, w serveDelta) {
	p.attempted += int(w.generated)
	p.failed += int(w.rejected + w.crossRejected)
	var err error
	if got := int64(w.committed + w.crossCommitted + w.rejected + w.crossRejected); got != w.generated {
		err = fmt.Errorf("window %d: %d transactions accounted for, %d generated: %w", s.runs, got, w.generated, errMismatch)
	} else if total, terr := s.sv.Total(); terr != nil {
		err = terr
	} else if want := s.cfg.Refs.balance(s.opts.Users, s.opts.InitialBalance); total != want || !res.InvariantOK {
		err = fmt.Errorf("window %d: total balance %d (invariant %v), want %d: %w", s.runs, total, res.InvariantOK, want, errMismatch)
	}
	if err != nil {
		p.check(err)
	}
}

func (s *serveW) finish(p *phase) error { return nil }

func (s *serveW) extra(p *phase) error { return nil }

// named reports committed transactions (single- and cross-shard) per
// second of serve.Run, on both clocks.
func (s *serveW) named(p *phase) []named {
	return []named{
		{"txn_per_s", "1/s", p.units / p.busyWall.Seconds()},
		{"txn_per_cpu_s", "1/s", p.units / p.busyCPU.Seconds()},
	}
}

// layers reports serve.New per set-up, and serve.Run, its counters and its
// shard VMs' counters per window.
func (s *serveW) layers(p *phase, rows []layerRow) map[string]float64 {
	n := float64(max(s.runs, 1))
	d := s.delta
	runMs := perOp(rows, "serve.run", "serve.Run")
	return map[string]float64{
		"serve.new_ms":          perOp(rows, "serve.setup", "serve.New"),
		"serve.run_ms":          runMs,
		"serve.rounds":          float64(d.rounds) / n,
		"serve.committed":       float64(d.committed) / n,
		"serve.cross_committed": float64(d.crossCommitted) / n,
		"serve.rejected":        float64(d.rejected+d.crossRejected) / n,
		"serve.conflicts":       float64(d.conflicts) / n,
		"serve.retries":         float64(d.retries) / n,
		"serve.tx_abort_ratio":  ratio(float64(d.aborts), float64(d.txCommits+d.aborts)),
		"serve.queue_peak":      float64(d.queuePeak),
		"serve.vm_switches":     float64(d.vm.Switches) / n,
		"serve.extern_calls":    float64(d.vm.ExternCalls) / n,
		"vm.instrs":             float64(d.vm.Instrs) / n,
		"vm.minstr_per_s":       ratio(float64(d.vm.Instrs)/n/1e6, runMs/1e3),
		"vm.calls":              float64(d.vm.Calls) / n,
		"vm.allocs":             float64(d.vm.Allocs) / n,
		"vm.box_allocs":         float64(d.vm.BoxAllocs) / n,
		"vm.ic_hit_ratio":       ratio(float64(d.vm.ICHits), float64(d.vm.ICHits+d.vm.ICMisses)),
	}
}
