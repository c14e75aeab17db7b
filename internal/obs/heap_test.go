package obs

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestStartHeapWatch pins the watch's two promises: a structure that
// lives across several sampler ticks shows in the reported peak, and
// stop returns only once the sampler goroutine is on its way out.
func TestStartHeapWatch(t *testing.T) {
	// The baseline is one HeapAlloc reading, so small frees after it
	// eat into the difference: retain a little more than is asserted.
	const retained, want = 33 << 20, 32 << 20
	before := runtime.NumGoroutine()

	stop := startHeapWatch()
	buf := make([]byte, retained)
	time.Sleep(50 * time.Millisecond) // the sampler ticks every millisecond
	peak := stop()
	runtime.KeepAlive(buf)

	if peak < want {
		t.Errorf("peak = %d bytes with %d retained inside the watch, want >= %d", peak, retained, want)
	}
	// stop waits for the sampler's deferred close, its last statement;
	// give the scheduler a moment to retire the goroutine itself.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after stop, %d before the watch: sampler leaked", n, before)
	}
}

// TestHeapBudget pins the check's contract: over budget it sets a nil
// *err, it never overwrites an earlier error, and a zero budget starts
// no watch.
func TestHeapBudget(t *testing.T) {
	var err error
	check := HeapBudget(1)
	buf := make([]byte, 8<<20)
	time.Sleep(20 * time.Millisecond)
	check(&err)
	runtime.KeepAlive(buf)
	if err == nil {
		t.Error("8 MiB retained under a 1 MiB budget passed the check")
	}

	earlier := errors.New("run failed")
	err = earlier
	check = HeapBudget(1)
	buf = make([]byte, 8<<20)
	time.Sleep(20 * time.Millisecond)
	check(&err)
	runtime.KeepAlive(buf)
	if err != earlier {
		t.Errorf("check replaced the run's error with %v", err)
	}

	before := runtime.NumGoroutine()
	check = HeapBudget(0)
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("a zero budget started %d goroutines", n-before)
	}
	err = nil
	check(&err)
	if err != nil {
		t.Errorf("a zero budget failed the run: %v", err)
	}
}
