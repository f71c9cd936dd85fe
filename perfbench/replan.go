package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/workload"
)

// replan_churn: core.NewPlanner on a Table I instance (its cold solve is
// set-up), then a closed loop of single-caller Planner.Update deltas. The
// operation is one Update. The instance is a fixture (see fixtureSeed); the
// run's seed drives the delta stream.

// churn generates the seeded delta stream. Three in four deltas change one
// user's bids (drop the last bid, depart with Bids=nil, or restore the
// original); one in four changes one event's capacity (lower it by one, or
// restore it). The instance is mutated in place before each Update, as the
// Planner's contract asks.
type churn struct {
	in           *model.Instance
	rng          *rand.Rand
	bidders      []int // users with at least one bid
	origBids     [][]int
	origCap      []int
	userAltered  []bool
	eventAltered []bool
}

func newChurn(in *model.Instance, seed int64) *churn {
	c := &churn{
		in:           in,
		rng:          rand.New(rand.NewSource(seed)),
		origBids:     make([][]int, in.NumUsers()),
		origCap:      make([]int, in.NumEvents()),
		userAltered:  make([]bool, in.NumUsers()),
		eventAltered: make([]bool, in.NumEvents()),
	}
	for u := range in.Users {
		c.origBids[u] = append([]int(nil), in.Users[u].Bids...)
		if len(c.origBids[u]) > 0 {
			c.bidders = append(c.bidders, u)
		}
	}
	for v := range in.Events {
		c.origCap[v] = in.Events[v].Capacity
	}
	return c
}

func (c *churn) next() core.Delta {
	if c.rng.Intn(4) == 0 {
		v := c.rng.Intn(len(c.origCap))
		if c.eventAltered[v] {
			c.in.Events[v].Capacity = c.origCap[v]
		} else if c.origCap[v] > 0 {
			c.in.Events[v].Capacity = c.origCap[v] - 1
		}
		c.eventAltered[v] = !c.eventAltered[v]
		return core.Delta{Events: []int{v}}
	}
	u := c.bidders[c.rng.Intn(len(c.bidders))]
	orig := c.origBids[u]
	switch {
	case c.userAltered[u]:
		c.in.Users[u].Bids = append([]int(nil), orig...)
	case len(orig) >= 2 && c.rng.Intn(2) == 0:
		c.in.Users[u].Bids = append([]int(nil), orig[:len(orig)-1]...)
	default:
		c.in.Users[u].Bids = nil
	}
	c.userAltered[u] = !c.userAltered[u]
	return core.Delta{Users: []int{u}}
}

// newPlannerFor generates the replan instance and builds a planner on it.
func newPlannerFor(cfg runConfig, opt core.Options) (*model.Instance, *core.Planner, time.Duration, error) {
	t0 := time.Now()
	in, err := workload.Synthetic(workload.SyntheticConfig{
		NumUsers: cfg.size.replanUsers, NumEvents: cfg.size.replanEvents, Seed: fixtureSeed,
	})
	gen := time.Since(t0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("generate: %w", err)
	}
	p, err := core.NewPlanner(in, opt)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("NewPlanner: %w", err)
	}
	return in, p, gen, nil
}

// checkReplan: the incremental result equals a from-scratch Round on the
// same planner (arrangement and utility bits) and is feasible.
func checkReplan(o *outcome, p *core.Planner, in *model.Instance, res *core.Result) {
	full, err := p.Round()
	if err != nil {
		o.fail("Round: %v", err)
		return
	}
	if !res.Arrangement.Equal(full.Arrangement) || !sameBits(res.Utility, full.Utility) {
		o.fail("Update result (utility %v) differs from Round (utility %v)", res.Utility, full.Utility)
	}
	if err := model.Validate(in, res.Arrangement); err != nil {
		o.fail("arrangement invalid: %v", err)
	}
}

// replanStream drives n updates (or, with n = 0, updates until the budget
// is spent) and returns the per-update latencies and the last result. Every
// checkEvery-th result and the last one are checked against Round.
func replanStream(o *outcome, cfg runConfig, p *core.Planner, in *model.Instance, n int, b budget,
	each func(i int, t0, t1 time.Time)) ([]time.Duration, *core.Result) {
	ch := newChurn(in, cfg.seed)
	var lat []time.Duration
	var last *core.Result
	for i := 0; n > 0 && i < n || n == 0 && (i == 0 || b.left() > 0); i++ {
		d := ch.next()
		t0 := time.Now()
		res, err := p.Update(d)
		t1 := time.Now()
		o.attempted++
		if err != nil {
			o.failed++
			o.fail("Update: %v", err)
			break
		}
		lat = append(lat, t1.Sub(t0))
		if each != nil {
			each(i, t0, t1)
		}
		last = res
		if (i+1)%cfg.size.checkEvery == 0 {
			checkReplan(o, p, in, res)
		}
	}
	if last != nil {
		checkReplan(o, p, in, last)
	}
	return lat, last
}

func runReplan(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var in *model.Instance
	var p *core.Planner
	var gens []float64
	setup, err := setupTimes(setupRepeats, func(int) error {
		if p != nil {
			p.Close()
		}
		var gen time.Duration
		var err error
		in, p, gen, err = newPlannerFor(cfg, core.Options{})
		gens = append(gens, gen.Seconds())
		return err
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	o.metrics["setup_s"] = setup
	if cfg.trace {
		return o, replanTraced(cfg, o, in, p, median(gens))
	}

	lat, last := replanStream(o, cfg, p, in, 0, newBudget(cfg.seconds), nil)
	if last == nil {
		return nil, errNoOps
	}
	msLat := make([]float64, len(lat))
	for i, d := range lat {
		msLat[i] = ms(d)
	}
	o.metrics["op_p50_ms"] = median(msLat)
	o.metrics["capacity_per_s"] = windowRate(lat, 10)
	o.metrics["quality_ratio"] = last.Utility / p.Objective()
	o.metrics["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("# updates: %d, p50/p90/p99 %.3f/%.3f/%.3fms\n", len(lat),
		median(msLat), percentile(msLat, 0.9), percentile(msLat, 0.99))
	return o, nil
}

// windowRate splits the latencies into k runs of consecutive operations and
// returns the median of their operations per second: the throughput of a
// typical stretch, which one cold fallback does not decide.
func windowRate(lat []time.Duration, k int) float64 {
	if len(lat) < k {
		k = 1
	}
	rates := make([]float64, k)
	for i := range rates {
		w := lat[i*len(lat)/k : (i+1)*len(lat)/k]
		rates[i] = float64(len(w)) / sumDur(w).Seconds()
	}
	return median(rates)
}

// replanTraced runs the delta stream untraced on the set-up planner for
// half the budget, then the same stream on a second planner with the LP
// phase timers attached and a span around every Update.
func replanTraced(cfg runConfig, o *outcome, in *model.Instance, p *core.Planner, gen float64) error {
	r0 := readRuntime()
	ref, refLast := replanStream(o, cfg, p, in, 0, newBudget(cfg.seconds/2), nil)
	r1 := readRuntime()
	if refLast == nil {
		return errNoOps
	}
	refUtility := refLast.Utility

	var tm lp.PhaseTimers
	in2, p2, _, err := newPlannerFor(cfg, core.Options{LP: lp.Revised{Timers: &tm}})
	if err != nil {
		return err
	}
	defer p2.Close()
	tm.Reset()
	st0 := p2.Stats()
	rec := newRecorder()
	prev := tm
	traced, last := replanStream(o, cfg, p2, in2, len(ref), budget{}, func(i int, t0, t1 time.Time) {
		id := rec.add(0, "core.update", "update", int64(i+1), t0, t1)
		rec.addParts(id, "update", int64(i+1), t0, []part{
			{"lp.pricing", tm.Pricing - prev.Pricing}, {"lp.update", tm.Update - prev.Update},
			{"lp.ftran", tm.Ftran - prev.Ftran}, {"lp.btran", tm.Btran - prev.Btran},
			{"lp.factor", tm.Factor - prev.Factor},
		})
		prev = tm
	})
	st1 := p2.Stats()
	if last == nil {
		return errNoOps
	}
	if !sameBits(last.Utility, refUtility) {
		o.fail("timed planner ends at utility %v, untimed at %v", last.Utility, refUtility)
	}
	if full, err := p2.Round(); err == nil {
		o.metrics["admissible.columns"] = float64(full.LPColumns)
	}

	n := float64(len(traced))
	spans := rec.snapshot()
	self := selfTimes(spans)
	selfBy := byName(spans, self)
	m := o.metrics
	m["workload.generate_s"] = gen
	m["core.update_nonlp_s"] = sumDur(selfBy["core.update"]).Seconds() / n
	m["lp.solve_s"] = tm.Total().Seconds() / n
	m["lp.pricing_s"] = tm.Pricing.Seconds() / n
	m["lp.update_s"] = tm.Update.Seconds() / n
	m["lp.ftran_s"] = tm.Ftran.Seconds() / n
	m["lp.btran_s"] = tm.Btran.Seconds() / n
	m["lp.factor_s"] = tm.Factor.Seconds() / n
	m["lp.pivots"] = float64(tm.Pivots)
	m["lp.repair_pivots"] = float64(tm.RepairPivots)
	m["lp.hypersparse_solves"] = float64(tm.HypersparseFtran + tm.HypersparseBtran)
	warm := st1.WarmSolves - st0.WarmSolves
	m["lp.warm_solves"] = float64(warm)
	if warm > 0 {
		m["lp.fast_finish_ratio"] = float64(st1.FastFinishes-st0.FastFinishes) / float64(warm)
	}
	m["lp.fallbacks"] = float64(st1.FallbackSingular + st1.FallbackInfeasible + st1.FallbackError -
		st0.FallbackSingular - st0.FallbackInfeasible - st0.FallbackError)
	runtimeMetrics(o, "runtime.", r0, r1, len(ref))

	var layers time.Duration
	for _, s := range spans {
		layers += self[s.ID]
	}
	untracedMean := sumDur(ref).Seconds() / float64(len(ref))
	tracedMean := sumDur(traced).Seconds() / n
	m["trace.ops"] = n
	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_share"] = (tracedMean - untracedMean) / untracedMean
	m["trace.reconcile_ratio"] = layers.Seconds() / n / untracedMean
	fillAbsent(o, perLayer)
	fmt.Printf("# reconcile: layer self-time sum %.4fms vs untraced Update %.4fms per update (ratio %.3f); tracing overhead %+.1f%%\n",
		1000*layers.Seconds()/n, 1000*untracedMean, m["trace.reconcile_ratio"], 100*m["trace.overhead_share"])
	return writeSpans(cfg, spans)
}
