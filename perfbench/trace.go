package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"` // request kind: solve, update, bid, rebid, cancel, read
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil *recorder records nothing.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one finished span and returns its id.
func (r *recorder) add(parent int64, name, op string, req int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Op: op, Req: req,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	r.mu.Unlock()
	return id
}

// open starts a span now; close ends it. The id is known up front, so
// children can name their parent while it is still running.
func (r *recorder) open(parent int64, name, op string, req int64) int64 {
	now := time.Now()
	return r.add(parent, name, op, req, now, now)
}

func (r *recorder) close(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = int64(now.Sub(r.epoch))
	r.mu.Unlock()
}

// part is a named duration a layer reports only as a total (LP phase
// timers, the server's per-arrival wait/decide/WAL split).
type part struct {
	name string
	d    time.Duration
}

// addParts records parts as consecutive child spans of parent starting at
// start. The layer reports how long each part took but not when, so the
// intervals are laid end to end; self time only needs their lengths.
func (r *recorder) addParts(parent int64, op string, req int64, start time.Time, parts []part) {
	t := start
	for _, p := range parts {
		if p.d < 0 {
			continue
		}
		r.add(parent, p.name, op, req, t, t.Add(p.d))
		t = t.Add(p.d)
	}
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// byName groups spans' self times (or durations) by span name.
func byName(spans []span, self map[int64]time.Duration) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out[s.Name] = append(out[s.Name], d)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// pctUS is the q-quantile of ds in microseconds.
func pctUS(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return percentile(xs, q)
}

// writeSpans dumps a traced run's spans as JSON lines under
// <out>/traces/<workload>-seed<n>.jsonl, after one line with the machine
// stamp.
func writeSpans(cfg runConfig, spans []span) error {
	path := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"stamp": machineStamp(cfg)}); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
