package obs

import (
	"runtime"
	"sync/atomic"
	"time"
)

// StartHeapWatch begins sampling the live heap and returns a stop
// function that ends the sampling and reports the peak heap growth in
// bytes: the maximum HeapAlloc sample observed since the call, minus a
// pre-call baseline taken after a forced GC. A millisecond sampler
// undershoots very short spikes, but the structures the heap budgets
// care about — materialized populations versus bounded stream windows
// — live for most of a run. The sim CLIs use it to self-assert their
// -max-heap-mib budgets.
func StartHeapWatch() func() int64 {
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	var peak atomic.Uint64
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		var ms runtime.MemStats
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak.Load() {
					peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return func() int64 {
		close(stop)
		<-sampled
		p := int64(peak.Load()) - int64(base.HeapAlloc)
		if p < 0 {
			p = 0
		}
		return p
	}
}
