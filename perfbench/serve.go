package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/ebsn/igepa/internal/admissible"
	"github.com/ebsn/igepa/internal/conflict"
	"github.com/ebsn/igepa/internal/model"
	"github.com/ebsn/igepa/internal/obs"
	"github.com/ebsn/igepa/internal/router"
	"github.com/ebsn/igepa/internal/server"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
	"github.com/ebsn/igepa/internal/workload"
)

// serving profile: the traffic one serving workload sends.
type profile struct {
	zipfS      float64 // > 1: Zipf-skewed users; 0: uniform
	readShare  float64 // share of slots that are /v1/assignment reads
	rebidShare float64 // share of bids carrying a replacement bid list
	build      func(cfg runConfig, dir string, tr *tracer) (*stack, error)
}

// serve_zipf: one live server.New (S=4) with WAL and metrics on a loopback
// listener; Zipf-skewed users so the admissible-set cache hot set fits,
// one slot in five a read, one bid in a hundred a stop-the-world rebid.
func runServeZipf(cfg runConfig) (*outcome, error) {
	return runServing(cfg, profile{zipfS: 1.1, readShare: 0.2, rebidShare: 0.01, build: newSingleStack})
}

// cluster_uniform: router.New in front of two cluster-mode shard servers,
// each on its own listener with its own WAL; bid/cancel pairs over users
// drawn uniformly, so the cache mostly misses.
func runClusterUniform(cfg runConfig) (*outcome, error) {
	return runServing(cfg, profile{build: newClusterStack})
}

// stack is a running serving deployment in this process.
type stack struct {
	in     *model.Instance // the front end's instance, to validate against
	srvs   []*server.Server
	rt     *router.Router
	front  string // base URL the generator targets
	https  []*http.Server
	served sync.WaitGroup
}

// listen serves h on a fresh loopback port.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.https = append(st.https, hs)
	st.served.Add(1)
	go func() {
		defer st.served.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners (front first), then the router and servers,
// and waits for the serve loops to return.
func (st *stack) close() {
	for i := len(st.https) - 1; i >= 0; i-- {
		st.https[i].Close()
	}
	st.served.Wait()
	if st.rt != nil {
		st.rt.Close()
	}
	for _, s := range st.srvs {
		s.Close()
	}
}

func serveInstance(cfg runConfig) (*model.Instance, error) {
	return workload.Synthetic(workload.SyntheticConfig{
		NumUsers: cfg.size.serveUsers, NumEvents: cfg.size.serveEvents,
		MaxEventCap: 10, MaxUserCap: 3, MinBids: 2, MaxBids: 5, Seed: cfg.seed,
	})
}

// serverConfig is the shared live-server configuration.
func serverConfig(cfg runConfig, opt shard.Options, walPath string, tr *tracer) server.Config {
	opt.Batch = 64
	opt.CacheSize = 1024
	opt.Seed = cfg.seed
	c := server.Config{
		Shard:         opt,
		FlushInterval: 200 * time.Microsecond,
		WALPath:       walPath,
		WALSync:       wal.SyncInterval,
	}
	if tr != nil {
		// every arrival logs its wait/decide/WAL split into the tracer
		c.SlowLog = time.Nanosecond
		c.SlowLogOutput = tr
	}
	return c
}

func newSingleStack(cfg runConfig, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in, err := serveInstance(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(in, serverConfig(cfg, shard.Options{Shards: 4}, filepath.Join(dir, "serve.wal"), tr))
	if err != nil {
		return nil, err
	}
	st := &stack{in: in, srvs: []*server.Server{srv}}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrap("server.handler", h)
	}
	if st.front, err = st.listen(h); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// clusterShards is the number of shard servers behind the router.
const clusterShards = 2

func newClusterStack(cfg runConfig, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{}
	urls := make([]string, clusterShards)
	for i := range urls {
		in, err := serveInstance(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		opt := shard.Options{Shards: 1, ClusterShards: clusterShards, ClusterIndex: i}
		srv, err := server.New(in, serverConfig(cfg, opt, filepath.Join(dir, fmt.Sprintf("shard%d.wal", i)), tr))
		if err != nil {
			st.close()
			return nil, err
		}
		st.srvs = append(st.srvs, srv)
		var h http.Handler = srv.Handler()
		if tr != nil {
			h = tr.wrap("server.handler", h)
		}
		if urls[i], err = st.listen(h); err != nil {
			st.close()
			return nil, err
		}
	}
	in, err := serveInstance(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.in = in
	rt, err := router.New(in, router.Config{
		Backends: urls,
		Shard:    shard.Options{Shards: clusterShards, Batch: 64, CacheSize: 1024, Seed: cfg.seed},
	})
	if err != nil {
		st.close()
		return nil, err
	}
	st.rt = rt
	if err := rt.CheckBackends(); err != nil {
		st.close()
		return nil, err
	}
	var h http.Handler = rt.Handler()
	if tr != nil {
		h = tr.wrap("router.handler", h)
	}
	if st.front, err = st.listen(h); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// checkStack drains the deployment and validates its arrangement: the
// server's own snapshot, or the router's merged dump, must be feasible, and
// the router must not have latched degraded.
func checkStack(o *outcome, st *stack) {
	for _, s := range st.srvs {
		if !s.Drain(5 * time.Second) {
			o.fail("server did not drain")
		}
	}
	var arr *model.Arrangement
	if st.rt == nil {
		a, err := st.srvs[0].Arrangement()
		if err != nil {
			o.fail("Arrangement: %v", err)
			return
		}
		arr = a
	} else {
		if st.rt.Stats().Degraded {
			o.fail("router latched degraded: %s", st.rt.Stats().DegradedReason)
		}
		res, err := http.Get(st.front + "/v1/assignment")
		if err != nil {
			o.fail("assignment dump: %v", err)
			return
		}
		var dump struct {
			Sets [][]int `json:"sets"`
		}
		err = json.NewDecoder(res.Body).Decode(&dump)
		res.Body.Close()
		if err != nil || res.StatusCode != http.StatusOK {
			o.fail("assignment dump: status %d, %v", res.StatusCode, err)
			return
		}
		arr = &model.Arrangement{Sets: dump.Sets}
	}
	if err := model.Validate(st.in, arr); err != nil {
		o.fail("arrangement invalid: %v", err)
	}
}

// newGen builds a generator for one deployment. Rebids alternate each
// user between its original bids and the original minus the last one.
func newGen(cfg runConfig, p profile, st *stack, tr *tracer) *loadgen {
	g := newLoadgen(st.front, cfg.size.serveUsers, cfg.seed, p.zipfS)
	g.readShare, g.rebidShare, g.tr = p.readShare, p.rebidShare, tr
	conf := conflict.FromFunc(st.in.NumEvents(), st.in.Conflicts)
	one := func(int) float64 { return 1 }
	best := make([]int, len(st.in.Users))
	for u := range best {
		usr := &st.in.Users[u]
		for _, set := range admissible.Enumerate(usr.Bids, usr.Capacity, conf, one, admissible.Config{}).Sets {
			best[u] = max(best[u], len(set.Events))
		}
	}
	g.bestSet = func(u int) int { return best[u] }
	if p.rebidShare > 0 {
		orig := make([][]int, len(st.in.Users))
		for u := range orig {
			orig[u] = append([]int(nil), st.in.Users[u].Bids...)
		}
		short := make([]bool, len(orig))
		g.altBids = func(u int) []int {
			short[u] = !short[u] && len(orig[u]) > 1
			if short[u] {
				return orig[u][:len(orig[u])-1]
			}
			return orig[u]
		}
	}
	return g
}

func runServing(cfg runConfig, p profile) (*outcome, error) {
	o := newOutcome()
	dir, err := workDir(cfg)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var st *stack
	var gens []float64
	setup, err := setupTimes(setupRepeats, func(i int) error {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if _, err := serveInstance(cfg); err != nil {
			return err
		}
		gens = append(gens, time.Since(t0).Seconds())
		var err error
		st, err = p.build(cfg, filepath.Join(dir, fmt.Sprintf("setup%d", i)), nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	o.metrics["setup_s"] = setup
	if cfg.trace {
		o.metrics["workload.generate_s"] = median(gens)
		return o, servingTraced(cfg, o, p, st, dir)
	}
	defer st.close()

	b := newBudget(cfg.seconds)
	g := newGen(cfg, p, st, nil)
	defer g.close()
	ref := cfg.size.refRate
	warm := summarize(g.phase(ref, b.share(0.10)))
	refSt := summarize(g.phase(ref, b.share(0.60)))
	o.attempted = warm.requests + refSt.requests
	o.failed = warm.failed + refSt.failed
	if refSt.bids == 0 {
		return nil, errNoOps
	}
	if refSt.tailLag > maxTailLag {
		o.fail("run invalid: the generator itself fell behind (median lag %.2fms over the last quarter at %.0f req/s)", refSt.tailLag, ref)
	}

	// capacity: the completion rate with the generator's connections kept
	// busy (closed loop, same traffic mix)
	capacity := g.saturate(b.share(0.25))
	checkStack(o, st)

	o.metrics["op_p50_ms"] = median(refSt.bidSend)
	o.metrics["capacity_per_s"] = capacity
	o.metrics["quality_ratio"] = refSt.fill()
	o.metrics["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("# reference %.0f req/s: %s; closed-loop capacity %.0f req/s\n", ref, refSt, capacity)
	return o, nil
}

// servingTraced runs the reference rate three times: on the untraced
// deployment from set-up, on a second deployment with every layer traced,
// and against a null handler that only decodes the request and writes a
// fixed reply (the harness's own cost).
func servingTraced(cfg runConfig, o *outcome, p profile, st *stack, dir string) error {
	b := newBudget(cfg.seconds)
	ref := cfg.size.refRate

	g := newGen(cfg, p, st, nil)
	g.phase(ref, b.share(0.10))
	r0 := readRuntime()
	un := g.phase(ref, b.share(0.25))
	r1 := readRuntime()
	g.close()
	checkStack(o, st)
	st.close()
	unSt := summarize(un)

	tr := newTracer()
	ts, err := p.build(cfg, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	defer ts.close()
	tg := newGen(cfg, p, ts, tr)
	tg.phase(ref, b.share(0.10))
	before := scrapeAll(ts)
	tr.on.Store(true)
	traced := tg.phase(ref, b.share(0.25))
	tr.on.Store(false)
	after := scrapeAll(ts)
	tg.close()
	checkStack(o, ts)
	trSt := summarize(traced)
	o.attempted = unSt.requests + trSt.requests
	o.failed = unSt.failed + trSt.failed

	nullSt := &stack{in: st.in}
	nullFront, err := nullSt.listen(nullHandler())
	if err != nil {
		return err
	}
	nullSt.front = nullFront
	ng := newGen(cfg, p, nullSt, nil)
	n0 := readRuntime()
	nulls := ng.phase(ref, b.share(0.20))
	n1 := readRuntime()
	ng.close()
	nullSt.close()

	spans := tr.rec.snapshot()
	self := selfTimes(spans)
	m := o.metrics
	get := func(name string, useSelf bool, ops ...string) []time.Duration {
		var out []time.Duration
		for _, s := range spans {
			if s.Name != name || !slices.Contains(ops, s.Op) {
				continue
			}
			if useSelf {
				out = append(out, self[s.ID])
			} else {
				out = append(out, s.dur())
			}
		}
		return out
	}
	handler := get("server.handler", false, "bid")
	m["server.handler_p50_us"] = pctUS(handler, 0.5)
	m["server.handler_p99_us"] = pctUS(handler, 0.99)
	wait := get("server.queue_wait", false, "bid", "rebid")
	m["server.queue_wait_p50_us"] = pctUS(wait, 0.5)
	m["server.queue_wait_p99_us"] = pctUS(wait, 0.99)
	decide := get("server.decide", false, "bid", "rebid")
	m["server.decide_p50_us"] = pctUS(decide, 0.5)
	m["server.decide_p99_us"] = pctUS(decide, 0.99)
	m["server.wal_p99_us"] = pctUS(get("server.wal", false, "bid", "rebid"), 0.99)
	m["server.codec_p50_us"] = pctUS(get("server.handler", true, "bid"), 0.5)
	m["server.rebid_p99_ms"] = pctUS(get("server.handler", false, "rebid"), 0.99) / 1000
	m["server.read_p99_us"] = pctUS(get("server.handler", false, "read"), 0.99)
	if ts.rt != nil {
		hop := get("router.handler", true, "bid", "cancel", "read", "rebid")
		m["router.hop_p50_us"] = pctUS(hop, 0.5)
		m["router.hop_p99_us"] = pctUS(hop, 0.99)
	}

	var decided, batches, shed, walBytes, hits, lookups float64
	for i := range ts.srvs {
		a, z := before.srvs[i], after.srvs[i]
		decided += z.sum("igepa_decided_total") - a.sum("igepa_decided_total")
		batches += z.sum("igepa_batches_total") - a.sum("igepa_batches_total")
		for _, code := range []string{"429", "503"} {
			shed += z.sumLabel("igepa_http_errors_total", "code", code) - a.sumLabel("igepa_http_errors_total", "code", code)
		}
		walBytes += z.sum("igepa_wal_bytes_total") - a.sum("igepa_wal_bytes_total")
		hits += float64(after.cache[i].Hits - before.cache[i].Hits)
		lookups += float64(after.cache[i].Hits + after.cache[i].Misses - before.cache[i].Hits - before.cache[i].Misses)
	}
	writes := 0
	for _, s := range traced {
		if s.kind != opRead {
			writes++
		}
	}
	if batches > 0 {
		m["server.batch_mean"] = decided / batches
	}
	m["server.shed_ratio"] = shed / float64(max(1, trSt.requests))
	m["wal.bytes_per_op"] = walBytes / float64(max(1, writes))
	m["wal.fsync_p99_ms"] = 1000 * histQuantile(before.srvs, after.srvs, "igepa_wal_fsync_seconds", 0.99)
	if lookups > 0 {
		m["admissible.cache_hit_ratio"] = hits / lookups
	}
	if ts.rt != nil {
		a, z := before.router, after.router
		m["shard.renewals"] = z.sum("igepa_router_renew_rounds_total") - a.sum("igepa_router_renew_rounds_total")
		m["shard.moved_seats"] = z.sum("igepa_router_moved_seats_total") - a.sum("igepa_router_moved_seats_total")
		m["router.backend_calls_per_op"] = (z.sum("igepa_router_backend_requests_total") -
			a.sum("igepa_router_backend_requests_total")) / float64(max(1, trSt.requests))
		m["router.renew_p99_ms"] = 1000 * histQuantile([]prom{a}, []prom{z}, "igepa_router_renew_seconds", 0.99)
	} else {
		a, z := before.srvs[0], after.srvs[0]
		m["shard.renewals"] = z.sum("igepa_lease_renewals_total") - a.sum("igepa_lease_renewals_total")
		m["shard.moved_seats"] = z.sum("igepa_moved_seats_total") - a.sum("igepa_moved_seats_total")
	}

	runtimeMetrics(o, "runtime.", r0, r1, len(un))
	m["loadgen.lag_p99_ms"] = unSt.lagP99
	var rtt []time.Duration
	for _, s := range nulls {
		rtt = append(rtt, s.done.Sub(s.sent))
	}
	m["loadgen.null_rtt_p50_us"] = pctUS(rtt, 0.5)
	m["loadgen.null_rtt_p99_us"] = pctUS(rtt, 0.99)
	runtimeMetrics(o, "loadgen.null_", n0, n1, len(nulls))

	// reconciliation: the layer self times of each plain bid, summed, against
	// the untraced bid latency minus the harness's own round trip (medians,
	// so a few WAL fsync stalls in either window do not decide it)
	perBid := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Op == "bid" && s.Name != "loadgen.request" {
			perBid[s.Req] += self[s.ID]
		}
	}
	layerMS := make([]float64, 0, len(perBid))
	for _, d := range perBid {
		layerMS = append(layerMS, ms(d))
	}
	nullBid := summarize(nulls)
	served := median(unSt.bidSend) - median(nullBid.bidSend)
	layerMed := median(layerMS)
	if served > 0 {
		m["trace.reconcile_ratio"] = layerMed / served
	}
	if u := median(unSt.bidSend); u > 0 {
		m["trace.overhead_share"] = (median(trSt.bidSend) - u) / u
	}
	m["trace.ops"] = float64(len(traced))
	m["trace.spans"] = float64(len(spans))
	fillAbsent(o, perLayer)
	fmt.Printf("# reconcile: layer self-time sum %.4fms per bid vs untraced bid %.4fms minus null round trip %.4fms, medians (ratio %.3f); tracing overhead %+.1f%% at p50\n",
		layerMed, median(unSt.bidSend), median(nullBid.bidSend), m["trace.reconcile_ratio"], 100*m["trace.overhead_share"])
	return writeSpans(cfg, spans)
}

// nullHandler is the harness baseline: decode the request the way the
// server would, then write a fixed reply.
func nullHandler() http.Handler {
	reply := []byte(`{"user":0,"events":[],"epoch":0}` + "\n")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			User int   `json:"user"`
			Bids []int `json:"bids,omitempty"`
		}
		if r.Method == http.MethodPost {
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		} else if _, err := strconv.Atoi(r.URL.Query().Get("user")); err != nil {
			http.Error(w, "bad user", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(reply)
	})
}

// prom is one parsed /metrics scrape.
type prom struct {
	samples []obs.Sample
	vals    map[string]float64
}

func scrape(h http.Handler) prom {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	p := prom{vals: map[string]float64{}}
	fams, err := obs.ParseFamilies(rr.Body)
	if err != nil {
		return p
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			if v, err := s.Float(); err == nil {
				p.samples = append(p.samples, s)
				p.vals[s.Name+"{"+s.Labels+"}"] = v
			}
		}
	}
	return p
}

func (p prom) sum(name string) float64 { return p.sumLabel(name, "", "") }

// sumLabel sums the series of name whose label key has value (every series
// when key is empty).
func (p prom) sumLabel(name, key, value string) float64 {
	t := 0.0
	for _, s := range p.samples {
		if s.Name == name && (key == "" || s.Label(key) == value) {
			t += p.vals[s.Name+"{"+s.Labels+"}"]
		}
	}
	return t
}

// histQuantile is the q-quantile of the observations a histogram gained
// between the before and after scrapes (summed over every series and
// scrape pair), interpolated linearly inside its bucket.
func histQuantile(before, after []prom, name string, q float64) float64 {
	acc := map[float64]float64{}
	for i := range after {
		for _, s := range after[i].samples {
			if s.Name != name+"_bucket" {
				continue
			}
			le, err := strconv.ParseFloat(s.Label("le"), 64)
			if err != nil {
				continue
			}
			k := s.Name + "{" + s.Labels + "}"
			acc[le] += after[i].vals[k] - before[i].vals[k]
		}
	}
	les := make([]float64, 0, len(acc))
	for le := range acc {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || acc[les[len(les)-1]] <= 0 {
		return 0
	}
	target := q * acc[les[len(les)-1]]
	prevLe, prevN := 0.0, 0.0
	for _, le := range les {
		n := acc[le]
		if n >= target {
			if math.IsInf(le, 1) || n == prevN {
				return prevLe
			}
			return prevLe + (le-prevLe)*(target-prevN)/(n-prevN)
		}
		prevLe, prevN = le, n
	}
	return prevLe
}

// scrapes holds the counters of a whole deployment at one instant.
type scrapes struct {
	srvs   []prom
	cache  []server.CacheStats
	router prom
}

func scrapeAll(st *stack) scrapes {
	var s scrapes
	for _, srv := range st.srvs {
		s.srvs = append(s.srvs, scrape(srv.Handler()))
		s.cache = append(s.cache, srv.Stats().Cache)
	}
	if st.rt != nil {
		s.router = scrape(st.rt.Handler())
	}
	return s
}
