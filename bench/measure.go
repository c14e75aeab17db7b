package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// meter accumulates what the timed part of a workload cost the
// process: CPU time (getrusage user+sys, so the load generator's own
// work is included), heap objects allocated, and the peak live heap a
// 10 ms sampler saw. Only the intervals between start and stop count,
// which keeps fixture building and output checks out of the numbers.
type meter struct {
	cpu     time.Duration
	mallocs uint64
	wall    time.Duration

	cpu0     time.Duration
	mallocs0 uint64
	wall0    time.Time

	running  atomic.Bool
	peakHeap atomic.Uint64
	quit     chan struct{}
	wg       sync.WaitGroup
}

const (
	metricMallocs = "/gc/heap/allocs:objects"
	metricHeap    = "/memory/classes/heap/objects:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newMeter starts the heap sampler; close stops it.
func newMeter() *meter {
	m := &meter{quit: make(chan struct{})}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.quit:
				return
			case <-tick.C:
				if m.running.Load() {
					m.samplePeak()
				}
			}
		}
	}()
	return m
}

func (m *meter) samplePeak() {
	h := readMetric(metricHeap)
	for {
		old := m.peakHeap.Load()
		if h <= old || m.peakHeap.CompareAndSwap(old, h) {
			return
		}
	}
}

func (m *meter) start() {
	m.cpu0, m.mallocs0, m.wall0 = processCPU(), readMetric(metricMallocs), time.Now()
	m.running.Store(true)
}

func (m *meter) stop() {
	m.wall += time.Since(m.wall0)
	m.running.Store(false)
	m.samplePeak()
	m.cpu += processCPU() - m.cpu0
	m.mallocs += readMetric(metricMallocs) - m.mallocs0
}

func (m *meter) close() {
	close(m.quit)
	m.wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortedCopy(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile is the nearest-rank p-th percentile of a sorted sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(float64(len(sorted)-1)*p/100+0.5)]
}

func median(ds []time.Duration) time.Duration { return percentile(sortedCopy(ds), 50) }

// tail is the highest of p99, p95, p90 and p75 that still has at
// least ten samples beyond it, with the percentile it chose; a sample
// too small for any of them yields its maximum and percentile 100.
func tail(ds []time.Duration) (time.Duration, float64) {
	s := sortedCopy(ds)
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(len(s))*(100-p)/100 >= 10 {
			return percentile(s, p), p
		}
	}
	return percentile(s, 100), 100
}
