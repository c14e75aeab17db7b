package obs

import (
	"fmt"
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"
)

// HeapBudget is a command's -max-heap-mib assertion, used as
//
//	defer obs.HeapBudget(maxMiB)(&err)
//
// With maxMiB > 0 it starts a heap watch and returns the check that
// stops it: the check logs the peak heap growth and, when it exceeded
// maxMiB MiB and *err is nil, sets *err. With maxMiB <= 0 the check
// does nothing.
func HeapBudget(maxMiB int64) (check func(err *error)) {
	if maxMiB <= 0 {
		return func(*error) {}
	}
	stop := startHeapWatch()
	return func(err *error) {
		peak := stop() >> 20
		if peak <= maxMiB {
			slog.Info("heap peak within budget", "peak_mib", peak, "budget_mib", maxMiB)
		} else if *err == nil {
			*err = fmt.Errorf("heap peak %d MiB exceeds budget %d MiB", peak, maxMiB)
		}
	}
}

// startHeapWatch begins sampling the live heap and returns a stop
// function that ends the sampling and reports the peak heap growth in
// bytes: the maximum HeapAlloc sample observed since the call, minus a
// pre-call baseline taken after a forced GC. A millisecond sampler
// undershoots very short spikes, but the structures the heap budgets
// care about — materialized populations versus bounded stream windows
// — live for most of a run.
func startHeapWatch() func() int64 {
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
