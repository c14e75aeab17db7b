package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Name is
// "<layer>.<step>"; spans of one benchmark operation share Op, and
// Parent is the index of the span that caused this one (-1 for an
// operation's root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Allocs is the heap objects the process allocated during the
	// span; only spans opened with do record it, and it is the span's
	// own cost only while nothing else runs beside it.
	Allocs uint64 `json:"allocs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// is tracing off: every method is a no-op that reads no clock, so the
// traced and the untraced run execute the same workload code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, StartNs: now, EndNs: now})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// do runs fn inside a span that also counts allocations.
func (r *recorder) do(name string, op, parent int, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.begin(name, op, parent)
	a0 := readMetric(metricMallocs)
	fn()
	allocs := readMetric(metricMallocs) - a0
	r.end(id)
	r.mu.Lock()
	r.spans[id].Allocs = allocs
	r.mu.Unlock()
}

// layerOf names the layer a span belongs to: the part of its name
// before the first dot. Root spans of benchmark operations use the
// layer "bench", so harness glue is never charged to a program layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per span name, the time each span spent outside its
// children: its duration minus the part of its interval its children
// cover (overlapping children are counted once).
func (r *recorder) selfTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int, len(r.spans))
	for i := range r.spans {
		if p := r.spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].StartNs < r.spans[kids[b]].StartNs })
		covered, at := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(r.spans[k].StartNs, at), min(r.spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// named returns the duration and allocation count of every span with
// the given name, in recording order.
func (r *recorder) named(name string) (took []time.Duration, allocs []uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if r.spans[i].Name == name {
			took = append(took, time.Duration(r.spans[i].EndNs-r.spans[i].StartNs))
			allocs = append(allocs, r.spans[i].Allocs)
		}
	}
	return took, allocs
}

// writeTo writes the spans as JSON lines.
func (r *recorder) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err = enc.Encode(&r.spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
