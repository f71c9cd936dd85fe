package server

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ebsn/igepa/internal/batchq"
	"github.com/ebsn/igepa/internal/obs"
	"github.com/ebsn/igepa/internal/shard"
	"github.com/ebsn/igepa/internal/wal"
)

// scrapeMetrics fetches /metrics, fails the test on any lint finding, and
// returns the families keyed by name.
func scrapeMetrics(t testing.TB, c *client) map[string]obs.Family {
	t.Helper()
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if problems := obs.LintExposition(bytes.NewReader(raw)); len(problems) > 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	fams, err := obs.ParseFamilies(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	return byName
}

// metricValue finds one sample by its full name (family name, or name_count
// etc. for histograms) and label constraints; ok is false when absent.
func metricValue(fams map[string]obs.Family, family, sample string, labels map[string]string) (float64, bool) {
	f, present := fams[family]
	if !present {
		return 0, false
	}
	for _, s := range f.Samples {
		if s.Name != sample {
			continue
		}
		match := true
		for k, want := range labels {
			if s.Label(k) != want {
				match = false
				break
			}
		}
		if match {
			v, err := s.Float()
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// scrapedQuantile is histogram_quantile over one scraped histogram family:
// the cumulative buckets, linear interpolation inside the bucket holding
// the q·count-th observation, the last finite bound for the +Inf tail.
func scrapedQuantile(t *testing.T, f obs.Family, q float64) float64 {
	t.Helper()
	type bucket struct{ le, n float64 }
	var bs []bucket
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" {
			continue
		}
		le, err := strconv.ParseFloat(s.Label("le"), 64)
		if err != nil {
			t.Fatalf("%s: bad le %q", f.Name, s.Label("le"))
		}
		n, err := s.Float()
		if err != nil {
			t.Fatal(err)
		}
		bs = append(bs, bucket{le, n})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n == 0 {
		return 0
	}
	target := q * bs[len(bs)-1].n
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			if math.IsInf(b.le, 1) || b.n == prevN {
				return prevLe
			}
			return prevLe + (b.le-prevLe)*(target-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}

func requireMetric(t *testing.T, fams map[string]obs.Family, family, sample string, labels map[string]string) float64 {
	t.Helper()
	v, ok := metricValue(fams, family, sample, labels)
	if !ok {
		t.Fatalf("metric %s (sample %s, labels %v) missing from exposition", family, sample, labels)
	}
	return v
}

// TestMetricsExposition drives real traffic through a WAL-backed server with
// the LP lease policy and the live bound enabled, then pins the /metrics
// surface: valid lintable exposition, and every mirrored counter agreeing
// with the authoritative /statsz source it mirrors.
func TestMetricsExposition(t *testing.T) {
	in := testInstance(t, 41, 66, 10)
	srv, _, c := startServer(t, in, Config{
		Shard: shard.Options{
			Shards: 2, Batch: 8, Seed: 7, Lease: shard.LeaseLP, LiveBound: true,
		},
		FlushInterval: 200 * time.Microsecond,
		WALPath:       filepath.Join(t.TempDir(), "wal.log"),
		WALSync:       wal.SyncAlways,
	})
	driveTraffic(t, c, 66, 10, false)
	if !srv.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}

	fams := scrapeMetrics(t, c)
	st := srv.Stats()

	// Counters mirror the /statsz atomics exactly.
	mirrored := []struct {
		name string
		want int64
	}{
		{"igepa_arrivals_total", st.Arrivals},
		{"igepa_decided_total", st.Decided},
		{"igepa_granted_total", st.Granted},
		{"igepa_cancels_total", st.Cancels},
		{"igepa_lease_renewals_total", int64(st.LeaseRenewals)},
		{"igepa_moved_seats_total", int64(st.MovedSeats)},
	}
	for _, m := range mirrored {
		if got := requireMetric(t, fams, m.name, m.name, nil); got != float64(m.want) {
			t.Errorf("%s = %v, want %d (statsz)", m.name, got, m.want)
		}
	}
	if st.Decided == 0 || st.LeaseRenewals == 0 {
		t.Fatalf("test drove no real work: %+v", st)
	}

	// The decision histogram saw every decided arrival.
	if got := requireMetric(t, fams, "igepa_total_seconds", "igepa_total_seconds_count", nil); got != float64(st.Decided) {
		t.Errorf("igepa_total_seconds count = %v, want %d", got, st.Decided)
	}

	// Per-shard queue gauges exist for both shards; the configured limit is
	// exported.
	for _, sh := range []string{"0", "1"} {
		requireMetric(t, fams, "igepa_queue_depth", "igepa_queue_depth", map[string]string{"shard": sh})
	}
	if got := requireMetric(t, fams, "igepa_queue_limit", "igepa_queue_limit", nil); got != float64(st.QueueLimit) {
		t.Errorf("igepa_queue_limit = %v, want %d", got, st.QueueLimit)
	}

	// WAL instrumentation: appends counted, every append fsynced under
	// SyncAlways, fsync latency histogram populated.
	appends := requireMetric(t, fams, "igepa_wal_appends_total", "igepa_wal_appends_total", nil)
	if appends == 0 {
		t.Error("igepa_wal_appends_total = 0 with a WAL attached")
	}
	// Group commit fsyncs once per micro-batch, so syncs <= appends — but
	// under SyncAlways every commit syncs, so the count must be nonzero.
	if syncs := requireMetric(t, fams, "igepa_wal_syncs_total", "igepa_wal_syncs_total", nil); syncs == 0 || syncs > appends {
		t.Errorf("igepa_wal_syncs_total = %v (appends %v) under SyncAlways", syncs, appends)
	}
	if n := requireMetric(t, fams, "igepa_wal_fsync_seconds", "igepa_wal_fsync_seconds_count", nil); n == 0 {
		t.Error("igepa_wal_fsync_seconds histogram is empty under SyncAlways")
	}
	if n := requireMetric(t, fams, "igepa_wal_commit_seconds", "igepa_wal_commit_seconds_count", nil); n != float64(st.Decided) {
		t.Errorf("igepa_wal_commit_seconds count = %v, want %d", n, st.Decided)
	}

	// LP solver counters, mirrored at renewal rounds: the LP lease policy
	// must have cold-solved at least once, and the live bound re-solved.
	if v := requireMetric(t, fams, "igepa_lp_cold_solves_total", "igepa_lp_cold_solves_total", map[string]string{"solver": "lease"}); v == 0 {
		t.Error("lease LP never cold-solved under LeaseLP")
	}
	requireMetric(t, fams, "igepa_lp_phase_ns_total", "igepa_lp_phase_ns_total", map[string]string{"solver": "lease", "phase": "pricing"})
	if v := requireMetric(t, fams, "igepa_lp_bound_updates_total", "igepa_lp_bound_updates_total", nil); v == 0 {
		t.Error("live bound never updated with LiveBound on")
	}
	requireMetric(t, fams, "igepa_lp_bound_remaining", "igepa_lp_bound_remaining", nil)

	// /statsz latency percentiles are the registry histograms read back:
	// each p50/p99 equals Histogram.Quantile of its family, and that
	// estimator agrees with histogram_quantile over the scraped buckets.
	for _, lat := range []struct {
		family string
		h      *obs.Histogram
		got    Percentiles
	}{
		{"igepa_total_seconds", srv.obs.total, st.Total},
		{"igepa_decision_seconds", srv.obs.decide, st.Decision},
		{"igepa_queue_wait_seconds", srv.obs.queueWait, st.QueueWait},
		{"igepa_wal_commit_seconds", srv.obs.walCommit, st.WAL.Append},
	} {
		for _, p := range []struct {
			q   float64
			got int64
		}{{0.50, lat.got.P50Micros}, {0.99, lat.got.P99Micros}} {
			est := lat.h.Quantile(p.q)
			if want := time.Duration(est * float64(time.Second)).Microseconds(); p.got != want {
				t.Errorf("statsz %s p%v = %dus, want %dus (Histogram.Quantile)", lat.family, 100*p.q, p.got, want)
			}
			if scraped := scrapedQuantile(t, fams[lat.family], p.q); math.Abs(scraped-est) > 1e-12 {
				t.Errorf("%s p%v: Quantile %v, scraped histogram_quantile %v", lat.family, 100*p.q, est, scraped)
			}
		}
	}
	// total is wait + decision + the amortized WAL share per arrival, so it
	// dominates both components at every quantile.
	if st.Total.P50Micros < st.Decision.P50Micros || st.Total.P99Micros < st.Decision.P99Micros ||
		st.Total.P99Micros < st.QueueWait.P99Micros {
		t.Errorf("statsz total %+v below a component: decision %+v, queue wait %+v", st.Total, st.Decision, st.QueueWait)
	}

	// Method discipline.
	if code := c.status("POST", "/metrics", nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d, want 405", code)
	}
}

// syncBuffer lets the test read slowlog output written from serving
// goroutines without racing the writer.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestReplayBitIdenticalWithSlowlog is the no-perturbation acceptance pin:
// a replay server with a 1ns slowlog threshold (every arrival traced)
// produces decisions bit-identical to a replay server without a slowlog.
func TestReplayBitIdenticalWithSlowlog(t *testing.T) {
	opts := shard.Options{Shards: 4, Batch: 16, Seed: 7, Lease: shard.LeaseLP, LiveBound: true}
	base := testInstance(t, 23, 66, 10)
	var slow syncBuffer

	instrumented, _, ic := startServer(t, base.Clone(), Config{
		Shard: opts, Replay: true,
		SlowLog: time.Nanosecond, SlowLogOutput: &slow,
	})
	plain, _, pc := startServer(t, base.Clone(), Config{
		Shard: opts, Replay: true,
	})

	driveTraffic(t, ic, 66, 10, true)
	driveTraffic(t, pc, 66, 10, true)

	var ia, pa struct {
		Sets [][]int `json:"sets"`
	}
	ic.do("GET", "/v1/assignment", nil, &ia)
	pc.do("GET", "/v1/assignment", nil, &pa)
	if !reflect.DeepEqual(ia.Sets, pa.Sets) {
		t.Fatal("instrumented replay decided differently from the uninstrumented replay")
	}
	ist, pst := instrumented.Stats(), plain.Stats()
	if ist.Epochs != pst.Epochs || ist.LeaseRenewals != pst.LeaseRenewals || ist.Decided != pst.Decided {
		t.Fatalf("replay progress diverged: instrumented %d/%d/%d vs plain %d/%d/%d (epochs/renewals/decided)",
			ist.Epochs, ist.LeaseRenewals, ist.Decided, pst.Epochs, pst.LeaseRenewals, pst.Decided)
	}

	// Every decided arrival crossed the 1ns threshold and left a trace line.
	if got := instrumented.slow.Count(); got != ist.Decided {
		t.Fatalf("slowlog counted %d arrivals, want %d", got, ist.Decided)
	}
	out := slow.String()
	if !strings.Contains(out, "slowlog op=bid") || !strings.Contains(out, " wait=") || !strings.Contains(out, " wal=") {
		t.Fatalf("slowlog lines missing expected spans:\n%s", out)
	}
	fams := scrapeMetrics(t, ic)
	if v := requireMetric(t, fams, "igepa_slow_arrivals_total", "igepa_slow_arrivals_total", nil); v != float64(ist.Decided) {
		t.Fatalf("igepa_slow_arrivals_total = %v, want %d", v, ist.Decided)
	}
}

// TestArrivalPathAllocs pins the hot-path instrumentation contract from
// DESIGN.md §12: delivering a decision — the user-state update, the
// decided/granted counters, the wait/decision/total histograms, the
// slowlog threshold gate and the reply — plus the per-batch WAL-commit
// histogram allocates nothing.
func TestArrivalPathAllocs(t *testing.T) {
	srv := &Server{qlimit: 8, state: make([]uint8, 4)}
	srv.obs = newServerObs(srv)
	srv.slow = obs.NewSlowLog(time.Hour, io.Discard)
	r := batchq.Request{User: 1, Reply: make(chan batchq.Reply, 1)}
	events := []int{0, 2}
	allocs := testing.AllocsPerRun(2000, func() {
		srv.obs.walCommit.ObserveDuration(3 * time.Microsecond)
		srv.finishDecision(&r, 0, events, 1, 5*time.Microsecond, 7*time.Microsecond, 3*time.Microsecond)
		<-r.Reply
	})
	if got := srv.slow.Count(); got != 0 {
		t.Fatalf("below-threshold arrivals reported slow: %d", got)
	}
	if allocs != 0 {
		t.Fatalf("arrival-path record allocates %.1f objects per arrival, want 0", allocs)
	}
}

// TestStatszLPReport pins satellite 2: the persistent solver counters and
// phase timers reach /statsz for both the lease solver and the live-bound
// shadow planner.
func TestStatszLPReport(t *testing.T) {
	in := testInstance(t, 13, 66, 10)
	srv, _, c := startServer(t, in, Config{
		Shard: shard.Options{
			Shards: 2, Batch: 8, Seed: 3, Lease: shard.LeaseLP, LiveBound: true,
		},
		FlushInterval: 200 * time.Microsecond,
	})
	driveTraffic(t, c, 66, 10, false)
	if !srv.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	st := srv.Stats()
	if st.LP == nil {
		t.Fatal("statsz LP report missing")
	}
	if st.LP.Lease.ColdSolves == 0 {
		t.Fatalf("lease solver report shows no solves: %+v", st.LP.Lease)
	}
	if st.LP.Bound == nil {
		t.Fatal("live-bound solver report missing with LiveBound on")
	}
	if st.LP.Bound.ColdSolves == 0 {
		t.Fatalf("bound solver report shows no solves: %+v", st.LP.Bound)
	}
	if st.LP.Lease.PricingNS == 0 && st.LP.Lease.FactorNS == 0 {
		t.Fatalf("lease phase timers all zero: %+v", st.LP.Lease)
	}

	// The same counters appear on /statsz's JSON wire form.
	var raw map[string]any
	c.do("GET", "/statsz", nil, &raw)
	if _, ok := raw["lp"]; !ok {
		t.Fatal("statsz JSON has no lp key")
	}
}

// TestFollowerLagBoundaryMetrics is the satellite-4 pin: /readyz flips
// 200↔503 exactly at the -lag-bytes boundary, and the
// igepa_replication_lag_bytes gauge agrees with the readiness verdict at
// every step. Also pins the 503 write-rejection counter on the follower.
func TestFollowerLagBoundaryMetrics(t *testing.T) {
	srv, _, c := startServer(t, testInstance(t, 29, 20, 6), Config{
		Shard:    shard.Options{Shards: 2, Batch: 8, Seed: 1},
		WALPath:  filepath.Join(t.TempDir(), "absent.log"),
		Follow:   true,
		LagBytes: 128,
	})
	// No log yet: not ready, gauge 0.
	if code := c.status("GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no log: %d, want 503", code)
	}
	fams := scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 0 {
		t.Fatalf("igepa_replication_ready = %v before the log exists, want 0", v)
	}

	// A write on the follower bounces 503 and is counted.
	if code := c.status("POST", "/v1/bid", bidRequest{User: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("follower bid: %d, want 503", code)
	}
	fams = scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_http_errors_total", "igepa_http_errors_total", map[string]string{"code": "503"}); v < 1 {
		t.Fatalf("igepa_http_errors_total{code=503} = %v after a rejected write", v)
	}

	// White-box lag arithmetic (loop stopped, fields ours — the same
	// protocol TestFollowerReadiness uses): one byte over the bound.
	f := srv.fol
	f.stopLoop()
	f.mu.Lock()
	f.applied, f.size = 1000, 1000+srv.lagBound()+1
	f.mu.Unlock()
	var rr readyResponse
	if code := c.do("GET", "/readyz", nil, &rr).StatusCode; code != http.StatusServiceUnavailable {
		t.Fatalf("readyz over the bound: %d, want 503", code)
	}
	fams = scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replication_lag_bytes", "igepa_replication_lag_bytes", nil); v != float64(srv.lagBound()+1) {
		t.Fatalf("lag gauge = %v, want %d", v, srv.lagBound()+1)
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 0 {
		t.Fatalf("ready gauge = %v over the bound, want 0", v)
	}

	// Exactly at the bound: ready, and the gauge agrees again.
	f.mu.Lock()
	f.size = 1000 + srv.lagBound()
	f.mu.Unlock()
	if code := c.status("GET", "/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz at the bound: %d, want 200", code)
	}
	fams = scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replication_lag_bytes", "igepa_replication_lag_bytes", nil); v != float64(srv.lagBound()) {
		t.Fatalf("lag gauge = %v at the bound, want %d", v, srv.lagBound())
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 1 {
		t.Fatalf("ready gauge = %v at the bound, want 1", v)
	}
}

// TestFollowerCatchupMetrics pins the replication counters on the real
// tailing path: records applied, the not-ready→ready transition counted,
// and the lag gauge within the bound once caught up.
func TestFollowerCatchupMetrics(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	opts := shard.Options{Shards: 4, Batch: 16, Seed: 7}
	base := testInstance(t, 23, 66, 10)

	leader, _, lc := startServer(t, base.Clone(), Config{
		Shard: opts, WALPath: walPath, WALSync: wal.SyncOff,
	})
	follower, _, fc := startServer(t, base.Clone(), Config{
		Shard: opts, WALPath: walPath, Follow: true,
	})
	driveTraffic(t, lc, 66, 10, false)
	if !leader.Drain(10 * time.Second) {
		t.Fatal("leader drain timed out")
	}
	appends := leader.walWriter().Stats().Appends
	waitFor(t, 10*time.Second, "follower catch-up", func() bool {
		return follower.fol.stats().Records == appends
	})

	fams := scrapeMetrics(t, fc)
	if v := requireMetric(t, fams, "igepa_replica_records_total", "igepa_replica_records_total", nil); v != float64(appends) {
		t.Fatalf("igepa_replica_records_total = %v, want %d", v, appends)
	}
	if v := requireMetric(t, fams, "igepa_readiness_flips_total", "igepa_readiness_flips_total", nil); v < 1 {
		t.Fatalf("igepa_readiness_flips_total = %v after catch-up, want >= 1", v)
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 1 {
		t.Fatalf("caught-up follower ready gauge = %v, want 1", v)
	}
	if v := requireMetric(t, fams, "igepa_replication_lag_bytes", "igepa_replication_lag_bytes", nil); v > float64(follower.lagBound()) {
		t.Fatalf("caught-up lag gauge = %v, want <= %d", v, follower.lagBound())
	}
}

// TestFollowerHaltMetrics pins the permanent-halt-on-corruption face of
// satellite 4: a corrupt frame parks the replica not ready forever, and the
// metrics surface says so — ready gauge 0, records stopped before the bad
// frame.
func TestFollowerHaltMetrics(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "wal.log")
	fd, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w := wal.NewWriter(fd, 0, wal.Options{Sync: wal.SyncOff})
	var ends []int64
	for u := 0; u < 3; u++ {
		off, err := w.Append(wal.Op{Kind: wal.OpBid, TMillis: 1, User: u})
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, off)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[ends[0]+8] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, _, c := startServer(t, testInstance(t, 31, 20, 6), Config{
		Shard:   shard.Options{Shards: 2, Batch: 8, Seed: 1},
		WALPath: walPath,
		Follow:  true,
	})
	waitFor(t, 10*time.Second, "follower halt", func() bool {
		return srv.fol.stats().Failure != ""
	})
	if code := c.status("GET", "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("halted follower readyz: %d, want 503", code)
	}
	fams := scrapeMetrics(t, c)
	if v := requireMetric(t, fams, "igepa_replica_records_total", "igepa_replica_records_total", nil); v != 1 {
		t.Fatalf("igepa_replica_records_total = %v after halt, want 1 (stopped at the corrupt frame)", v)
	}
	if v := requireMetric(t, fams, "igepa_replication_ready", "igepa_replication_ready", nil); v != 0 {
		t.Fatalf("halted follower ready gauge = %v, want 0", v)
	}
}

// BenchmarkArrivalPathObs measures the serving arrival path end to end
// (HTTP codec, queue, micro-batch flush, planner, registry counters and
// histograms, reply) with the slowlog armed versus off — the source of the
// BENCH_obs.json CI artifact. The acceptance line: slowlog=on within 2% of
// slowlog=off ns/op with zero extra allocs/op. The registry itself is
// always on; its allocation half is hard-pinned by TestArrivalPathAllocs.
func BenchmarkArrivalPathObs(b *testing.B) {
	for _, mode := range []struct {
		name string
		slow bool
	}{
		{"slowlog=on", true},
		{"slowlog=off", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			in := testInstance(b, 1, 400, 40)
			cfg := Config{
				Shard:         shard.Options{Shards: 4, Batch: 32, Seed: 1, CacheSize: 4096},
				FlushInterval: 50 * time.Microsecond,
				MicroBatch:    1,
			}
			if mode.slow {
				// Slowlog armed but never firing: the per-arrival cost under
				// test includes the threshold gate.
				cfg.SlowLog = time.Hour
				cfg.SlowLogOutput = io.Discard
			}
			srv, err := New(in, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()

			do := func(path string, body []byte) int {
				req := httptest.NewRequest("POST", path, bytes.NewReader(body))
				rw := httptest.NewRecorder()
				srv.ServeHTTP(rw, req)
				return rw.Code
			}
			bids := make([][]byte, in.NumUsers())
			cancels := make([][]byte, in.NumUsers())
			for u := 0; u < in.NumUsers(); u++ {
				bids[u] = []byte(`{"user":` + itoa(u) + `}`)
				cancels[u] = []byte(`{"user":` + itoa(u) + `}`)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := i % in.NumUsers()
				if code := do("/v1/bid", bids[u]); code != http.StatusOK {
					b.Fatalf("bid user %d: %d", u, code)
				}
				if code := do("/v1/cancel", cancels[u]); code != http.StatusOK {
					b.Fatalf("cancel user %d: %d", u, code)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
