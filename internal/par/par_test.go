package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 100, 1023} {
			hits := make([]int32, n)
			For(workers, n, 8, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRangesChunksAreDisjointAndComplete(t *testing.T) {
	const n = 10007
	var total atomic.Int64
	hits := make([]int32, n)
	Ranges(4, n, 64, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != n {
		t.Fatalf("covered %d of %d iterations", total.Load(), n)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestRangesInlineForSmallInputs(t *testing.T) {
	// a single chunk must run inline (no goroutines): verified by writing to
	// a captured variable without synchronization under the race detector.
	sum := 0
	Ranges(8, 10, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("auto worker count must be at least 1")
	}
}

func TestRangesAtCoversWindowOnce(t *testing.T) {
	const base, end = 100, 1207
	for _, workers := range []int{1, 3, 8} {
		hits := make([]int32, end)
		RangesAt(workers, base, end, 16, func(lo, hi int) {
			if lo < base || hi > end || lo >= hi {
				t.Errorf("bad chunk [%d,%d) outside [%d,%d)", lo, hi, base, end)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			want := int32(0)
			if i >= base {
				want = 1
			}
			if h != want {
				t.Fatalf("workers=%d: index %d visited %d times, want %d", workers, i, h, want)
			}
		}
	}
	RangesAt(4, 7, 7, 1, func(lo, hi int) { t.Error("empty window must not run") })
	RangesAt(4, 9, 3, 1, func(lo, hi int) { t.Error("inverted window must not run") })
}

func TestDeterministicResultAcrossWorkerCounts(t *testing.T) {
	// iteration-owned writes: identical output for every worker count.
	const n = 5000
	ref := make([]float64, n)
	For(1, n, 16, func(i int) { ref[i] = float64(i) * 1.000001 })
	for _, workers := range []int{2, 3, 8} {
		got := make([]float64, n)
		For(workers, n, 16, func(i int) { got[i] = float64(i) * 1.000001 })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: index %d differs", workers, i)
			}
		}
	}
}
