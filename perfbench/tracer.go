package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records the spans of the serving workloads: the generator's
// request, the router's handler, the shard server's handler and, from the
// server's per-arrival slow log, the queue wait / decide / WAL split of
// every bid. The layers do not carry a request id across the router hop, so
// spans are joined by user: the generator never has a user in flight
// twice, which makes the user name the one request it is in. A nil tracer,
// or one switched off, records nothing.
type tracer struct {
	rec *recorder
	on  atomic.Bool

	mu       sync.Mutex
	nextReq  int64
	active   map[int]*chain // user -> spans of its request still open
	arrivals map[int][]part // user -> latest wait/decide/wal split
}

// chain is one in-flight request: its id and its open spans, innermost last.
type chain struct {
	req   int64
	spans []int64
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), active: map[int]*chain{}, arrivals: map[int][]part{}}
}

// enter opens a span for user u's request, nested in the innermost span the
// request already has open.
func (t *tracer) enter(u int, name, op string) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.active[u]
	if c == nil {
		t.nextReq++
		c = &chain{req: t.nextReq}
		t.active[u] = c
	}
	var parent int64
	if n := len(c.spans); n > 0 {
		parent = c.spans[n-1]
	}
	id := t.rec.open(parent, name, op, c.req)
	c.spans = append(c.spans, id)
	return id
}

// exit closes a span opened by enter.
func (t *tracer) exit(u int, id int64) {
	if t == nil || id == 0 {
		return
	}
	t.rec.close(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.active[u]
	if c == nil {
		return
	}
	for i := len(c.spans) - 1; i >= 0; i-- {
		if c.spans[i] == id {
			c.spans = append(c.spans[:i], c.spans[i+1:]...)
			break
		}
	}
	if len(c.spans) == 0 {
		delete(t.active, u)
	}
}

// wrap puts a span named name around every /v1 request h serves. On a
// shard server's bids it also adds the arrival's wait/decide/WAL split as
// child spans.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	withArrival := name == "server.handler"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		u, op := requestUser(r)
		if u < 0 {
			h.ServeHTTP(w, r)
			return
		}
		id := t.enter(u, name, op)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		dur := time.Since(t0)
		if withArrival && (op == "bid" || op == "rebid") {
			t.mu.Lock()
			parts := t.arrivals[u]
			delete(t.arrivals, u)
			req := int64(0)
			if c := t.active[u]; c != nil {
				req = c.req
			}
			t.mu.Unlock()
			var sum time.Duration
			for _, p := range parts {
				sum += p.d
			}
			// the split is known only as durations: centre it in the handler
			// span, leaving the decode before and the encode after it
			start := t0
			if dur > sum {
				start = t0.Add((dur - sum) / 2)
			}
			t.rec.addParts(id, op, req, start, parts)
		}
		t.exit(u, id)
	})
}

// requestUser reads the user a /v1 request is about, and its kind. The body
// is read and put back for the handler.
func requestUser(r *http.Request) (int, string) {
	if r.Method != http.MethodPost {
		u, err := strconv.Atoi(r.URL.Query().Get("user"))
		if err != nil {
			return -1, ""
		}
		return u, "read"
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return -1, ""
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var req struct {
		User int   `json:"user"`
		Bids []int `json:"bids"`
	}
	if json.Unmarshal(body, &req) != nil {
		return -1, ""
	}
	switch {
	case strings.HasSuffix(r.URL.Path, "/cancel"):
		return req.User, "cancel"
	case req.Bids != nil:
		return req.User, "rebid"
	}
	return req.User, "bid"
}

// Write receives the server's slow-log lines (the server runs with a 1ns
// threshold, so every arrival is one line) and keeps each bid's split:
//
//	slowlog op=bid user=17 shard=3 total=1.2ms wait=210µs decide=35µs wal=4µs
func (t *tracer) Write(p []byte) (int, error) {
	for _, line := range strings.Split(string(p), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "slowlog" || f[1] != "op=bid" {
			continue
		}
		kv := map[string]string{}
		for _, x := range f[2:] {
			if k, v, ok := strings.Cut(x, "="); ok {
				kv[k] = v
			}
		}
		u, err := strconv.Atoi(kv["user"])
		if err != nil {
			continue
		}
		var parts []part
		for _, k := range [...][2]string{{"wait", "server.queue_wait"}, {"decide", "server.decide"}, {"wal", "server.wal"}} {
			if d, err := time.ParseDuration(kv[k[0]]); err == nil {
				parts = append(parts, part{k[1], d})
			}
		}
		t.mu.Lock()
		t.arrivals[u] = parts
		t.mu.Unlock()
	}
	return len(p), nil
}
