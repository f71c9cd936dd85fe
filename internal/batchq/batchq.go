// Package batchq is the bounded arrival queue behind every batching loop in
// the serving stack: the live server's per-shard micro-batchers, the replay
// server's global dispatcher, and the router's replay dispatcher. FIFO push
// from any number of HTTP handlers, PopBatch from exactly one consumer.
//
// It exists instead of a channel because a batching loop needs three things
// channels cannot give it: flush-on-deadline for a partial batch, an
// explicit drain signal, and a snapshot of the queued users (the lease
// renewer's demand predictor).
package batchq

import (
	"errors"
	"sync"
	"time"
)

// Errors Push reports to the HTTP layer, which maps them onto status codes
// (429 with Retry-After for a full queue, 503 for a closing server).
var (
	ErrFull   = errors.New("batchq: queue full")
	ErrClosed = errors.New("batchq: queue closed")
)

// Request is one queued bid submission awaiting its batch.
type Request struct {
	User     int
	Enqueued time.Time
	Reply    chan Reply // buffered(1); nil for fire-and-forget submissions
}

// Reply is the decision delivered back to a waiting submitter. Shutdown
// marks the no-decision reply a closing owner delivers to requests its
// consumer never reached; Failed marks a batch whose dispatch failed. Both
// become a 503 instead of an assignment.
type Reply struct {
	Events   []int
	Epoch    int
	Wait     time.Duration // time spent queued before processing began
	Shutdown bool
	Failed   bool
}

// Queue is the bounded FIFO feeding one batching loop.
type Queue struct {
	mu      sync.Mutex
	nonIdle *sync.Cond
	items   []Request
	head    int
	limit   int
	closed  bool
	// drainPending asks the consumer to flush the current partial batch; it
	// is a flag, not a counter, so repeated drain calls cannot make future
	// full batches flush early.
	drainPending bool
	// busy is true from PopBatch handing out a batch until the consumer's
	// Finish — it closes the window in which the queue looks empty while
	// decisions are still pending, which is what Idle keys on.
	busy bool
}

// New returns an empty queue holding at most limit requests.
func New(limit int) *Queue {
	q := &Queue{limit: limit}
	q.nonIdle = sync.NewCond(&q.mu)
	return q
}

// Push appends a request; ErrFull signals backpressure to the caller.
func (q *Queue) Push(r Request) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if len(q.items)-q.head >= q.limit {
		return ErrFull
	}
	q.items = append(q.items, r)
	q.nonIdle.Broadcast()
	return nil
}

// PopBatch blocks until it can hand the consumer a batch, then returns up to
// max requests in FIFO order (appended to dst[:0]).
//
//   - A full batch (≥ max pending) returns immediately.
//   - wait > 0 (live mode): a partial batch is returned once the oldest
//     pending request has waited `wait` — the micro-batching deadline T.
//   - wait == 0 (replay mode): a partial batch is returned only on an
//     explicit Drain or on Close — batch-by-count, no deadlines.
//
// Returns nil after the queue is closed and emptied.
func (q *Queue) PopBatch(max int, wait time.Duration, dst []Request) []Request {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		n := len(q.items) - q.head
		if n >= max {
			return q.pop(max, dst)
		}
		if q.closed {
			if n > 0 {
				return q.pop(n, dst)
			}
			return nil
		}
		if q.drainPending {
			q.drainPending = false
			if n > 0 {
				return q.pop(n, dst)
			}
			continue // drain of an empty queue: nothing to flush
		}
		if n > 0 && wait > 0 {
			deadline := q.items[q.head].Enqueued.Add(wait)
			if !time.Now().Before(deadline) {
				return q.pop(n, dst)
			}
			if timer == nil {
				// The callback takes q.mu before broadcasting so the wakeup
				// cannot fire in the window between this deadline check and
				// the Wait below (sync.Cond keeps no memory of signals; an
				// unserialized Broadcast there would be lost and the partial
				// batch would miss its deadline).
				timer = time.AfterFunc(time.Until(deadline), func() {
					q.mu.Lock()
					q.nonIdle.Broadcast()
					q.mu.Unlock()
				})
			}
		}
		q.nonIdle.Wait()
	}
}

// pop removes the first n requests; the caller holds q.mu. The backing
// array is compacted once the consumed prefix dominates it, so a queue that
// never fully empties still holds O(depth) memory.
func (q *Queue) pop(n int, dst []Request) []Request {
	dst = append(dst[:0], q.items[q.head:q.head+n]...)
	q.head += n
	q.busy = true
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0:0], q.items[q.head:]...)
		q.head = 0
	}
	return dst
}

// Finish marks the last popped batch fully processed (replies delivered).
func (q *Queue) Finish() {
	q.mu.Lock()
	q.busy = false
	q.mu.Unlock()
}

// Depth returns the number of queued requests.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

// Idle reports an empty queue with no batch in flight.
func (q *Queue) Idle() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)-q.head == 0 && !q.busy
}

// PendingUsers appends the queued users to dst — the renewal demand snapshot.
func (q *Queue) PendingUsers(dst []int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, r := range q.items[q.head:] {
		dst = append(dst, r.User)
	}
	return dst
}

// Drain asks the consumer to flush the current partial batch.
func (q *Queue) Drain() {
	q.mu.Lock()
	q.drainPending = true
	q.nonIdle.Broadcast()
	q.mu.Unlock()
}

// TakeAll removes and returns everything still queued — the shutdown
// backstop. Only meaningful after Close and after the consumer has exited:
// whatever is left is work no consumer will ever pop, and each waiting
// submitter must be released with a shutdown reply.
func (q *Queue) TakeAll() []Request {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := append([]Request(nil), q.items[q.head:]...)
	q.items = q.items[:0]
	q.head = 0
	return out
}

// Close wakes the consumer to flush whatever is pending and exit.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.nonIdle.Broadcast()
	q.mu.Unlock()
}
