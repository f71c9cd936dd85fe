package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/core"
	"github.com/ebsn/igepa/internal/lp"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/par"
	"github.com/ebsn/igepa/internal/workload"
	"github.com/ebsn/igepa/internal/xrand"
)

// offline_devex: one cold core.LPPacking with default options on a Table I
// instance large enough (m = |U|+|V| > lp.DevexRowThreshold) that the LP
// prices with Devex. The operation is one solve; a run repeats it on fresh
// copies of the instance until the time is up. The instance is a fixture
// (see fixtureSeed); the run's seed is the rounding seed.
func runOffline(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	var base *model.Instance
	setup, err := setupTimes(setupRepeats, func(int) error {
		in, err := workload.Synthetic(workload.SyntheticConfig{
			NumUsers: cfg.size.offlineUsers, NumEvents: cfg.size.offlineEvents, Seed: fixtureSeed,
		})
		base = in
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	o.metrics["setup_s"] = setup
	if cfg.trace {
		return o, offlineTraced(cfg, o, base, setup)
	}

	b := newBudget(cfg.seconds)
	var solves []float64
	var first *core.Result
	for len(solves) == 0 || b.left() > 0 {
		in := base.Clone()
		t0 := time.Now()
		res, err := core.LPPacking(in, core.Options{Seed: cfg.seed})
		d := time.Since(t0)
		o.attempted++
		if err != nil {
			o.failed++
			o.fail("LPPacking: %v", err)
			break
		}
		solves = append(solves, ms(d))
		checkOffline(o, in, res.Arrangement, res.Utility, res.LPObjective)
		// the next solve starts from a collected heap, so it neither pays
		// for this one's garbage nor stacks it onto peak_rss_mb
		runtime.GC()
		if first == nil {
			first = res
		} else if !sameBits(first.Utility, res.Utility) || !sameBits(first.LPObjective, res.LPObjective) {
			o.fail("repeat solve of one instance differs: utility %v vs %v", res.Utility, first.Utility)
		}
	}
	if first == nil {
		return nil, errNoOps
	}
	total := 0.0
	for _, s := range solves {
		total += s
	}
	o.metrics["op_p50_ms"] = median(solves)
	o.metrics["capacity_per_s"] = float64(len(solves)) / (total / 1000)
	o.metrics["quality_ratio"] = first.Utility / first.LPObjective
	o.metrics["peak_rss_mb"] = peakRSSMB()
	return o, nil
}

// checkOffline: the arrangement is feasible, its utility is what the
// solver reported, and the LP optimum bounds it from above (Lemma 1).
func checkOffline(o *outcome, in *model.Instance, arr *model.Arrangement, util, lpObj float64) {
	if err := model.Validate(in, arr); err != nil {
		o.fail("arrangement invalid: %v", err)
	}
	if u := model.Utility(in, arr); !sameBits(u, util) {
		o.fail("reported utility %v, arrangement scores %v", util, u)
	}
	if util > lpObj*(1+1e-9)+1e-9 {
		o.fail("utility %v above the LP bound %v", util, lpObj)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// stagedResult is what the staged pipeline produced.
type stagedResult struct {
	arr      *model.Arrangement
	utility  float64
	lpObj    float64
	columns  int
	dropped  int
	timers   lp.PhaseTimers
	rootSpan int64
}

// stagedLPPacking runs Algorithm 1 stage by stage through the exported
// pieces LPPacking is built from, with a span around every stage and the LP
// phase timers attached. Same instance, same options (rounding seed seed):
// it must reproduce LPPacking's utility and LP objective bit for bit.
func stagedLPPacking(rec *recorder, in *model.Instance, seed int64) (*stagedResult, error) {
	res := &stagedResult{}
	root := rec.open(0, "core.lppacking", "solve", 1)
	stage := func(name string, fn func()) {
		id := rec.open(root, name, "solve", 1)
		fn()
		rec.close(id)
	}
	nu := in.NumUsers()
	var wc *model.WeightCache
	stage("model.weights", func() { wc = in.Weights() })
	var conf *conflict.Matrix
	stage("conflict.build", func() { conf = conflict.FromFunc(in.NumEvents(), in.Conflicts) })
	sets := make([][]admissible.Set, nu)
	stage("admissible.enumerate", func() {
		par.For(par.Workers(0), nu, 16, func(u int) {
			usr := &in.Users[u]
			w := func(v int) float64 { return wc.Of(u, v) }
			sets[u] = admissible.Enumerate(usr.Bids, usr.Capacity, conf, w, admissible.Config{}).Sets
		})
	})
	var prob *lp.Problem
	var owner [][2]int
	stage("core.build_lp", func() { prob, owner = core.BuildBenchmarkLP(in, sets) })
	res.columns = prob.NumCols()

	lpID := rec.open(root, "lp.solve", "solve", 1)
	t0 := time.Now()
	sol, err := lp.SolveConfig(prob, lp.Revised{Timers: &res.timers})
	rec.close(lpID)
	if err != nil {
		return nil, fmt.Errorf("staged LP: %w", err)
	}
	tm := res.timers
	rec.addParts(lpID, "solve", 1, t0, []part{
		{"lp.pricing", tm.Pricing}, {"lp.update", tm.Update},
		{"lp.ftran", tm.Ftran}, {"lp.btran", tm.Btran}, {"lp.factor", tm.Factor},
	})
	res.lpObj = sol.Objective

	var chosen []int
	stage("core.sample", func() { chosen = core.SampleSets(nu, sets, owner, sol.X, 1, seed, 0) })
	stage("core.repair", func() {
		res.arr, res.dropped = core.Repair(in, sets, chosen, core.RepairByIndex, xrand.New(seed))
	})
	stage("model.utility", func() {
		res.arr.Normalize()
		res.utility = model.Utility(in, res.arr)
	})
	rec.close(root)
	res.rootSpan = root
	return res, nil
}

// offlineTraced runs one untraced LPPacking as the reference, then the
// staged pipeline under spans, and derives the per-layer split from it.
func offlineTraced(cfg runConfig, o *outcome, base *model.Instance, setup float64) error {
	in := base.Clone()
	t0 := time.Now()
	ref, err := core.LPPacking(in, core.Options{Seed: cfg.seed})
	untraced := time.Since(t0)
	o.attempted++
	if err != nil {
		o.failed++
		return fmt.Errorf("LPPacking: %w", err)
	}
	checkOffline(o, in, ref.Arrangement, ref.Utility, ref.LPObjective)

	rec := newRecorder()
	staged := base.Clone()
	r0 := readRuntime()
	st, err := stagedLPPacking(rec, staged, cfg.seed)
	r1 := readRuntime()
	o.attempted++
	if err != nil {
		o.failed++
		return err
	}
	checkOffline(o, staged, st.arr, st.utility, st.lpObj)
	if !sameBits(st.utility, ref.Utility) || !sameBits(st.lpObj, ref.LPObjective) {
		o.fail("staged run gives utility %v / LP %v, LPPacking %v / %v",
			st.utility, st.lpObj, ref.Utility, ref.LPObjective)
	}

	spans := rec.snapshot()
	self := selfTimes(spans)
	selfBy := byName(spans, self)
	durBy := byName(spans, nil)
	sec := func(name string) float64 { return sumDur(selfBy[name]).Seconds() }
	m := o.metrics
	m["workload.generate_s"] = setup
	m["model.weights_s"] = sec("model.weights")
	m["conflict.build_s"] = sec("conflict.build")
	m["admissible.enumerate_s"] = sec("admissible.enumerate")
	m["admissible.columns"] = float64(st.columns)
	m["core.build_lp_s"] = sec("core.build_lp")
	m["core.sample_s"] = sec("core.sample")
	m["core.repair_s"] = sec("core.repair")
	m["core.repair_dropped"] = float64(st.dropped)
	m["lp.solve_s"] = sumDur(durBy["lp.solve"]).Seconds()
	m["lp.pricing_s"] = st.timers.Pricing.Seconds()
	m["lp.update_s"] = st.timers.Update.Seconds()
	m["lp.ftran_s"] = st.timers.Ftran.Seconds()
	m["lp.btran_s"] = st.timers.Btran.Seconds()
	m["lp.factor_s"] = st.timers.Factor.Seconds()
	m["lp.glue_s"] = sec("lp.solve")
	m["lp.pivots"] = float64(st.timers.Pivots)
	m["lp.repair_pivots"] = float64(st.timers.RepairPivots)
	m["lp.hypersparse_solves"] = float64(st.timers.HypersparseFtran + st.timers.HypersparseBtran)
	runtimeMetrics(o, "runtime.", r0, r1, 1)

	var traced, layers time.Duration
	for _, s := range spans {
		layers += self[s.ID]
		if s.ID == st.rootSpan {
			traced = s.dur()
		}
	}
	m["trace.ops"] = 1
	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_share"] = (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	m["trace.reconcile_ratio"] = layers.Seconds() / untraced.Seconds()
	fillAbsent(o, perLayer)
	fmt.Printf("# reconcile: layer self-time sum %.4fs vs untraced LPPacking %.4fs (ratio %.3f); tracing overhead %+.1f%%\n",
		layers.Seconds(), untraced.Seconds(), m["trace.reconcile_ratio"], 100*m["trace.overhead_share"])
	return writeSpans(cfg, spans)
}
