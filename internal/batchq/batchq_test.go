package batchq

import (
	"testing"
	"time"
)

func mk(u int) Request { return Request{User: u, Enqueued: time.Now()} }

// TestQueue unit-tests the bounded queue: batching, deadline flush, drain,
// close and backpressure.
func TestQueue(t *testing.T) {
	q := New(3)
	if err := q.Push(mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(2)); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(mk(3)); err != ErrFull {
		t.Fatalf("overfull push: %v, want ErrFull", err)
	}
	if d := q.Depth(); d != 3 {
		t.Fatalf("depth %d, want 3", d)
	}
	batch := q.PopBatch(2, 0, nil)
	if len(batch) != 2 || batch[0].User != 0 || batch[1].User != 1 {
		t.Fatalf("PopBatch: %v", batch)
	}
	q.Finish()
	if got := q.PendingUsers(nil); len(got) != 1 || got[0] != 2 {
		t.Fatalf("PendingUsers: %v", got)
	}

	// deadline flush: a partial batch is released after ~wait
	start := time.Now()
	batch = q.PopBatch(5, time.Millisecond, batch)
	if len(batch) != 1 || batch[0].User != 2 {
		t.Fatalf("deadline flush: %v", batch)
	}
	if time.Since(start) > time.Second {
		t.Fatal("deadline flush waited far too long")
	}
	q.Finish()

	// drain flush from another goroutine
	done := make(chan []Request, 1)
	go func() { done <- q.PopBatch(5, 0, nil) }()
	time.Sleep(time.Millisecond)
	q.Push(mk(9))
	q.Drain()
	got := <-done
	if len(got) != 1 || got[0].User != 9 {
		t.Fatalf("drain flush: %v", got)
	}
	q.Finish()
	if !q.Idle() {
		t.Fatal("queue not idle after Finish")
	}

	// close flushes the remainder then returns nil
	q.Push(mk(4))
	q.Close()
	if got := q.PopBatch(5, 0, nil); len(got) != 1 || got[0].User != 4 {
		t.Fatalf("close flush: %v", got)
	}
	if got := q.PopBatch(5, 0, nil); got != nil {
		t.Fatalf("closed queue returned %v", got)
	}
	if err := q.Push(mk(5)); err != ErrClosed {
		t.Fatalf("push after close: %v", err)
	}
}

// TestQueueTakeAll unit-tests the shutdown backstop: TakeAll empties the
// queue and returns everything a consumer never popped.
func TestQueueTakeAll(t *testing.T) {
	q := New(8)
	for u := 0; u < 3; u++ {
		if err := q.Push(mk(u)); err != nil {
			t.Fatal(err)
		}
	}
	q.PopBatch(1, 0, nil) // consume one; two remain
	q.Finish()
	got := q.TakeAll()
	if len(got) != 2 || got[0].User != 1 || got[1].User != 2 {
		t.Fatalf("TakeAll: %+v", got)
	}
	if q.Depth() != 0 {
		t.Fatalf("depth %d after TakeAll", q.Depth())
	}
	if got := q.TakeAll(); len(got) != 0 {
		t.Fatalf("second TakeAll returned %+v", got)
	}
}

// TestQueueCompactsUnderResidual is the backing-array regression: a consumer
// that pops full batches while a residual always stays queued never lets the
// queue run empty, so without compaction every push would grow the backing
// slice by one slot forever. 10k cycles must keep its capacity bounded by a
// small multiple of the compaction threshold.
func TestQueueCompactsUnderResidual(t *testing.T) {
	const batch, residual = 4, 3
	q := New(batch + residual)
	u := 0
	for ; u < residual; u++ {
		if err := q.Push(mk(u)); err != nil {
			t.Fatal(err)
		}
	}
	var buf []Request
	for cycle := 0; cycle < 10000; cycle++ {
		for k := 0; k < batch; k++ {
			if err := q.Push(mk(u)); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			u++
		}
		buf = q.PopBatch(batch, 0, buf)
		if len(buf) != batch || buf[0].User != u-batch-residual {
			t.Fatalf("cycle %d: popped %d starting at user %d, want %d starting at %d",
				cycle, len(buf), buf[0].User, batch, u-batch-residual)
		}
		q.Finish()
		if d := q.Depth(); d != residual {
			t.Fatalf("cycle %d: depth %d, want %d", cycle, d, residual)
		}
	}
	q.mu.Lock()
	c := cap(q.items)
	q.mu.Unlock()
	if c > 4096 {
		t.Fatalf("backing slice grew to cap %d over 10k residual cycles, want ≤ 4096", c)
	}
}
