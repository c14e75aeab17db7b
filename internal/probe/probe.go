// Package probe implements the passive monitoring layer both paper
// datasets come from: taps placed on network elements (the MME, MSC
// and SGSN pins in Fig. 4; the platform-side probes near the HMNOs in
// §3.1) that observe a record stream, filter and optionally sample
// it, and hand it to sinks.
//
// Taps are generic over the record type so the same machinery
// captures signaling transactions, radio events and CDRs. The
// streaming source follows the gopacket PacketSource idiom: a channel
// the consumer ranges over, closed at end of capture.
package probe

import (
	"sync"

	"whereroam/internal/rng"
)

// Tap observes a stream of records of type T. The zero Tap forwards
// everything; configure Filter and SampleRate to narrow the capture.
// Offer is safe for concurrent producers when the sink is.
type Tap[T any] struct {
	// Name identifies the capture point ("MME", "MSC", "SGSN",
	// "hmno-es", ...).
	Name string
	// Filter, when non-nil, keeps only records it returns true for.
	Filter func(T) bool
	// SampleRate keeps this fraction of post-filter records; 0 and 1
	// both mean "keep all" (zero value is a complete capture).
	SampleRate float64
	// SampleKey, when set alongside a fractional SampleRate, switches
	// the tap from its sequential sampling stream to per-record
	// hash-based thinning: a record is kept iff
	// rng.Hash01(tapSeed, SampleKey(rec)) < SampleRate. The verdict
	// depends only on the record's identity, never on arrival order,
	// so several taps built with the same (name, seed) reach identical
	// decisions — the property that lets sampled captures run on
	// shard-local taps in parallel instead of one sequential stream.
	// Keys should be unique per logical record; colliding keys share a
	// verdict.
	SampleKey func(T) uint64
	// Sink receives accepted records.
	Sink func(T)

	mu       sync.Mutex
	src      *rng.Source
	hashSeed uint64
}

// NewTap builds a capturing tap; seed drives the sampling decisions
// (both the sequential stream and the hash-based per-record verdicts
// derive from it, keyed by the tap name).
func NewTap[T any](name string, seed uint64, sink func(T)) *Tap[T] {
	return &Tap[T]{
		Name:     name,
		Sink:     sink,
		src:      rng.New(seed).Split("probe-" + name),
		hashSeed: rng.New(seed).Split("probe-hash-" + name).Uint64(),
	}
}

// Offer presents one record to the tap.
func (t *Tap[T]) Offer(rec T) {
	if t.Filter != nil && !t.Filter(rec) {
		return
	}
	if t.SampleRate > 0 && t.SampleRate < 1 {
		var keep bool
		if t.SampleKey != nil {
			keep = rng.Hash01(t.hashSeed, t.SampleKey(rec)) < t.SampleRate
		} else {
			t.mu.Lock()
			keep = t.src.Bool(t.SampleRate)
			t.mu.Unlock()
		}
		if !keep {
			return
		}
	}
	if t.Sink != nil {
		t.Sink(rec)
	}
}

// Stream is a channel-based record source (the PacketSource idiom):
// consumers range over C; the producer closes it at end of capture.
type Stream[T any] struct {
	// C delivers captured records in capture order.
	C <-chan T
	c chan T
}

// NewStream returns a stream with the given buffer depth. Its Send
// method is a valid Tap sink; call Close when capture ends.
func NewStream[T any](buffer int) *Stream[T] {
	ch := make(chan T, buffer)
	return &Stream[T]{C: ch, c: ch}
}

// Send delivers one record to the consumer, blocking when the buffer
// is full (capture back-pressure).
func (s *Stream[T]) Send(rec T) { s.c <- rec }

// Close ends the stream; consumers ranging over C terminate.
func (s *Stream[T]) Close() { close(s.c) }

// Fanout is a sink that forwards each record to several sinks in
// order — e.g. persist to disk and feed the live catalog builder.
func Fanout[T any](sinks ...func(T)) func(T) {
	return func(rec T) {
		for _, s := range sinks {
			s(rec)
		}
	}
}
