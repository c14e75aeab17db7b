package obs

import (
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

	stop := StartHeapWatch()
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
