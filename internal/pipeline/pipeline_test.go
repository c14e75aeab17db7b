package pipeline

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-3); got != Workers(0) {
		t.Errorf("Workers(-3) = %d, want %d", got, Workers(0))
	}
}

func TestShardsPartition(t *testing.T) {
	for _, tc := range []struct{ n, count int }{
		{0, 8}, {1, 8}, {7, 3}, {8, 3}, {9, 3}, {100, 16}, {maxShards + 10, maxShards},
	} {
		shards := Shards(tc.n, tc.count)
		covered := 0
		prevHi := 0
		for i, s := range shards {
			if s.Index != i {
				t.Fatalf("n=%d count=%d: shard %d has Index %d", tc.n, tc.count, i, s.Index)
			}
			if s.Count != len(shards) {
				t.Fatalf("n=%d count=%d: shard %d has Count %d, want %d", tc.n, tc.count, i, s.Count, len(shards))
			}
			if s.Lo != prevHi {
				t.Fatalf("n=%d count=%d: shard %d not contiguous (Lo=%d, want %d)", tc.n, tc.count, i, s.Lo, prevHi)
			}
			if s.Hi <= s.Lo {
				t.Fatalf("n=%d count=%d: empty shard %d", tc.n, tc.count, i)
			}
			covered += s.Hi - s.Lo
			prevHi = s.Hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d count=%d: shards cover %d items", tc.n, tc.count, covered)
		}
	}
}

// Shard boundaries must depend only on the item count, never on the
// worker count — that independence is what makes shard-local state
// reproducible under any parallelism.
func TestShardBoundariesIndependentOfWorkers(t *testing.T) {
	for _, n := range []int{1, 5, 1000, 40000} {
		var ref []Shard
		for _, workers := range []int{1, 2, 7, 16} {
			var got []Shard
			gotCh := make(chan Shard, n)
			Run(n, workers, func(s Shard) { gotCh <- s })
			close(gotCh)
			for s := range gotCh {
				got = append(got, s)
			}
			byIndex := make([]Shard, len(got))
			for _, s := range got {
				byIndex[s.Index] = s
			}
			if ref == nil {
				ref = byIndex
				continue
			}
			if !reflect.DeepEqual(ref, byIndex) {
				t.Fatalf("n=%d: shard layout differs between worker counts", n)
			}
		}
	}
}

func TestRunCoversEveryItemOnce(t *testing.T) {
	const n = 10_000
	var hits [n]atomic.Int32
	Run(n, 8, func(s Shard) {
		for i := s.Lo; i < s.Hi; i++ {
			hits[i].Add(1)
		}
	})
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("item %d processed %d times", i, got)
		}
	}
}

func TestMapReturnsShardOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		got := Map(1000, workers, func(s Shard) int { return s.Lo })
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("workers=%d: results not in shard order at %d: %v > %v", workers, i, got[i-1], got[i])
			}
		}
	}
}

func TestPerWorkerCutsOneRangePerWorker(t *testing.T) {
	for _, c := range []struct{ n, workers, ranges int }{{1000, 1, 1}, {1000, 3, 3}, {1000, 8, 8}, {5, 8, 5}, {0, 4, 0}} {
		got := PerWorker(c.n, c.workers, func(s Shard) Shard { return s })
		if len(got) != c.ranges {
			t.Fatalf("n=%d workers=%d: %d ranges, want %d", c.n, c.workers, len(got), c.ranges)
		}
		if !slices.Equal(got, Shards(c.n, c.workers)) {
			t.Errorf("n=%d workers=%d: ranges %v, want Shards' %v", c.n, c.workers, got, Shards(c.n, c.workers))
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic to propagate")
		}
		sp, ok := r.(ShardPanic)
		if !ok {
			t.Fatalf("panic value is %T, want ShardPanic", r)
		}
		if sp.Value != "boom" {
			t.Fatalf("panic value %v does not carry the original cause", sp.Value)
		}
		if sp.Shard.Index != 2 {
			t.Fatalf("panic names shard %d, want 2", sp.Shard.Index)
		}
		if !strings.Contains(string(sp.Stack), "pipeline") {
			t.Fatal("panic does not carry the worker stack")
		}
	}()
	Run(100, 4, func(s Shard) {
		if s.Index == 2 {
			panic("boom")
		}
	})
}

// Two shards must be in flight at once under workers=2: each of the
// first two shards blocks until the other arrives, so the test only
// completes if Run dispatches shards to concurrently scheduled
// workers (true even on a single CPU — goroutines interleave on the
// channel), and would time out under serial dispatch.
func TestRunDispatchesShardsConcurrently(t *testing.T) {
	rendezvous := make(chan struct{}, 2)
	done := make(chan struct{})
	go func() {
		Run(100, 2, func(s Shard) {
			if s.Index >= 2 {
				return
			}
			rendezvous <- struct{}{}
			for len(rendezvous) < 2 { // both arrived?
				select {
				case <-done:
					return
				default:
					runtime.Gosched()
				}
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shards 0 and 1 never ran concurrently: serial dispatch under workers=2")
	}
}

func TestRunZeroItems(t *testing.T) {
	called := false
	Run(0, 4, func(Shard) { called = true })
	if called {
		t.Fatal("fn called for zero items")
	}
	if got := Map(0, 4, func(Shard) int { return 1 }); len(got) != 0 {
		t.Fatalf("Map over zero items returned %d results", len(got))
	}
}
