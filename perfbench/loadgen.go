package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The open-loop generator. Requests are due on a seeded Poisson schedule and
// are sent by a fixed set of sender goroutines, one HTTP connection each, no
// more than the machine has CPUs. A user is never in flight twice: each
// user alternates bid and cancel (every successful bid is answered by a
// cancel at the next write slot), and reads pick a user with nothing in
// flight. Latency is timed from the request's due time, so a stall that
// delays later sends is charged to them; how late the generator itself sent
// is reported separately.

type opKind int

const (
	opBid opKind = iota
	opRebid
	opCancel
	opRead
)

var opNames = [...]string{"bid", "rebid", "cancel", "read"}

func (k opKind) String() string { return opNames[k] }

// slot is one scheduled request: when it is due and whether it is a read
// or, if it turns out to be a bid, a bid carrying a replacement bid list.
type slot struct {
	due         time.Time
	read, rebid bool
}

// sample is one completed request.
type sample struct {
	kind            opKind
	due, sent, done time.Time
	status          int // HTTP status; 0 = transport error
	granted         int // events a successful bid was granted
	best            int // the most events the bidding user could be granted
}

func (s *sample) ok() bool { return s.status >= 200 && s.status < 300 }

type loadgen struct {
	client     *http.Client
	base       string
	nusers     int
	rng        *rand.Rand
	zipf       *rand.Zipf // nil: users drawn uniformly
	perm       []int      // zipf rank -> user
	readShare  float64
	rebidShare float64
	altBids    func(u int) []int // replacement bid list for a rebid
	bestSet    func(u int) int   // size of the user's largest admissible set
	tr         *tracer           // nil: untraced

	mu       sync.Mutex
	inflight []bool
	holding  []bool // decided bid, cancel still owed
	poisoned []bool // server state unknown after a failed request
	cancels  []int  // users owing a cancel, oldest first
	sched    []slot
	next     int
}

// senders is the number of client goroutines and connections.
func senders() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

func newLoadgen(base string, nusers int, seed int64, zipfS float64) *loadgen {
	n := senders()
	g := &loadgen{
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: n,
				MaxConnsPerHost:     n,
				DisableCompression:  true,
			},
		},
		base:     base,
		nusers:   nusers,
		rng:      rand.New(rand.NewSource(seed)),
		inflight: make([]bool, nusers),
		holding:  make([]bool, nusers),
		poisoned: make([]bool, nusers),
	}
	if zipfS > 0 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(nusers-1))
		g.perm = g.rng.Perm(nusers)
	}
	return g
}

func (g *loadgen) close() {
	g.client.CloseIdleConnections()
}

// phase runs the generator at rate requests/s for d and returns every
// completed request. Slots the generator could not fill (no idle user)
// are skipped.
func (g *loadgen) phase(rate float64, d time.Duration) []sample {
	start := time.Now().Add(2 * time.Millisecond)
	g.mu.Lock()
	g.sched = g.sched[:0]
	for t := 0.0; ; {
		t += g.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			break
		}
		g.sched = append(g.sched, slot{
			due:   start.Add(time.Duration(t * float64(time.Second))),
			read:  g.rng.Float64() < g.readShare,
			rebid: g.rng.Float64() < g.rebidShare,
		})
	}
	g.next = 0
	g.mu.Unlock()

	n := senders()
	out := make([][]sample, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = g.send()
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// saturate runs the same traffic closed loop for d: every sender sends its
// next request as soon as the previous one returns. It returns the requests
// completed per second, the most this deployment serves through the
// generator's connections: the median over windows of one second, so one
// stall (a slow fsync, a GC) does not decide it.
func (g *loadgen) saturate(d time.Duration) float64 {
	n := int(d / time.Second)
	if n < 1 {
		n = 1
	}
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = g.closedLoop(d / time.Duration(n))
	}
	return median(rates)
}

// closedLoop runs the senders closed loop for d and returns successful
// requests per second.
func (g *loadgen) closedLoop(d time.Duration) float64 {
	end := time.Now().Add(d)
	n := senders()
	done := make([]int, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				g.mu.Lock()
				sl := slot{read: g.rng.Float64() < g.readShare, rebid: g.rng.Float64() < g.rebidShare}
				g.mu.Unlock()
				kind, u, ok := g.pick(sl)
				if !ok {
					continue
				}
				status, _ := g.do(kind, u)
				g.complete(kind, u, status)
				if status >= 200 && status < 300 {
					done[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range done {
		total += c
	}
	return float64(total) / d.Seconds()
}

// send is one sender goroutine: take the next slot, wait until it is due,
// pick the operation, send it, record it.
func (g *loadgen) send() []sample {
	var got []sample
	for {
		g.mu.Lock()
		if g.next >= len(g.sched) {
			g.mu.Unlock()
			return got
		}
		sl := g.sched[g.next]
		g.next++
		g.mu.Unlock()
		if d := time.Until(sl.due); d > 0 {
			time.Sleep(d)
		}
		kind, u, ok := g.pick(sl)
		if !ok {
			continue
		}
		s := sample{kind: kind, due: sl.due, sent: time.Now(), best: g.bestSet(u)}
		s.status, s.granted = g.do(kind, u)
		s.done = time.Now()
		g.complete(kind, u, s.status)
		got = append(got, s)
	}
}

// pick chooses the operation for a slot and marks its user in flight.
func (g *loadgen) pick(sl slot) (opKind, int, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !sl.read && len(g.cancels) > 0 {
		u := g.cancels[0]
		g.cancels = g.cancels[1:]
		g.inflight[u] = true
		return opCancel, u, true
	}
	for try := 0; try < 64; try++ {
		var u int
		if g.zipf != nil {
			u = g.perm[g.zipf.Uint64()]
		} else {
			u = g.rng.Intn(g.nusers)
		}
		if g.inflight[u] || g.poisoned[u] || (!sl.read && g.holding[u]) {
			continue
		}
		g.inflight[u] = true
		switch {
		case sl.read:
			return opRead, u, true
		case sl.rebid && g.altBids != nil:
			return opRebid, u, true
		default:
			return opBid, u, true
		}
	}
	return 0, 0, false
}

// complete advances the user's state after a reply.
func (g *loadgen) complete(kind opKind, u, status int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight[u] = false
	switch kind {
	case opBid, opRebid:
		switch status {
		case http.StatusOK:
			g.holding[u] = true
			g.cancels = append(g.cancels, u)
		case http.StatusTooManyRequests:
			// rejected before queuing: the user is back where it was
		default:
			g.poisoned[u] = true
		}
	case opCancel:
		if status == http.StatusOK {
			g.holding[u] = false
		} else {
			g.poisoned[u] = true
		}
	}
}

// do sends one request and reports its status and, for a bid, how many
// events were granted.
func (g *loadgen) do(kind opKind, u int) (int, int) {
	var req *http.Request
	var err error
	switch kind {
	case opRead:
		req, err = http.NewRequest(http.MethodGet, g.base+"/v1/assignment?user="+strconv.Itoa(u), nil)
	case opCancel:
		req, err = http.NewRequest(http.MethodPost, g.base+"/v1/cancel", bytes.NewReader(userBody(u)))
	case opRebid:
		body, _ := json.Marshal(struct {
			User int   `json:"user"`
			Bids []int `json:"bids"`
		}{u, g.altBids(u)})
		req, err = http.NewRequest(http.MethodPost, g.base+"/v1/bid", bytes.NewReader(body))
	default:
		req, err = http.NewRequest(http.MethodPost, g.base+"/v1/bid", bytes.NewReader(userBody(u)))
	}
	if err != nil {
		return 0, 0
	}
	if kind != opRead {
		req.Header.Set("Content-Type", "application/json")
	}
	id := g.tr.enter(u, "loadgen.request", kind.String())
	defer g.tr.exit(u, id)
	res, err := g.client.Do(req)
	if err != nil {
		return 0, 0
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return 0, 0
	}
	var reply struct {
		Events []int `json:"events"`
	}
	if (kind == opBid || kind == opRebid) && res.StatusCode == http.StatusOK {
		_ = json.Unmarshal(body, &reply) // a malformed reply counts as nothing granted
	}
	return res.StatusCode, len(reply.Events)
}

func userBody(u int) []byte {
	return []byte(fmt.Sprintf(`{"user":%d}`, u))
}

// phaseStats summarizes one phase of the generator.
type phaseStats struct {
	requests, failed int
	bids             int
	granted          int       // events granted to successful plain bids
	best             int       // summed largest admissible set of those bidders
	bidLat           []float64 // ms from due, plain bids only
	bidSend          []float64 // ms from send, successful plain bids only (op_p50_ms)
	lagP99           float64   // ms
	tailLag          float64   // ms, median lag over the last quarter
}

func summarize(ss []sample) phaseStats {
	var st phaseStats
	lags := make([]float64, 0, len(ss))
	for i := range ss {
		s := &ss[i]
		st.requests++
		if !s.ok() {
			st.failed++
		}
		lags = append(lags, ms(s.sent.Sub(s.due)))
		// a rebid is a bid update that stops the world; its latency is a
		// per-layer metric of its own (server.rebid_p99_ms)
		if s.kind == opBid {
			st.bids++
			st.bidLat = append(st.bidLat, ms(s.done.Sub(s.due)))
			if s.ok() {
				st.granted += s.granted
				st.best += s.best
				st.bidSend = append(st.bidSend, ms(s.done.Sub(s.sent)))
			}
		}
	}
	st.lagP99 = percentile(lags, 0.99)
	// samples are grouped by sender; order by due time for the tail
	dues := make([]float64, len(ss))
	for i := range ss {
		dues[i] = float64(ss[i].due.UnixNano())
	}
	if len(ss) > 0 {
		cut := percentile(dues, 0.75)
		var tail []float64
		for i := range ss {
			if dues[i] >= cut {
				tail = append(tail, lags[i])
			}
		}
		st.tailLag = median(tail)
	}
	return st
}

func (st phaseStats) String() string {
	return fmt.Sprintf("%d requests, %d failed, %d bids, bid p50/p90/p99 %.2f/%.2f/%.2fms (from send %.2f/%.2f/%.2fms), lag p99 %.2fms, tail lag %.2fms",
		st.requests, st.failed, st.bids, median(st.bidLat), percentile(st.bidLat, 0.9), percentile(st.bidLat, 0.99),
		median(st.bidSend), percentile(st.bidSend, 0.9), percentile(st.bidSend, 0.99), st.lagP99, st.tailLag)
}

// fill is how much of what the bidders could have been granted they got:
// events granted over the sizes of their largest admissible sets (the
// shortfall is seats held elsewhere or leased to another shard).
func (st phaseStats) fill() float64 {
	if st.best == 0 {
		return 0
	}
	return float64(st.granted) / float64(st.best)
}

// maxTailLag is the generator lateness (median over a phase's last quarter,
// ms) beyond which a run is invalid: the generator, not the server, fell
// behind its schedule.
const maxTailLag = 5.0
