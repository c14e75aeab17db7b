// Package probe implements the passive monitoring layer both paper
// datasets come from: the capture points on network elements (the
// MME, MSC and SGSN pins in Fig. 4; the platform-side probes near the
// HMNOs in §3.1) that hand the records they observe to sinks.
//
// A sink is a plain func(T), generic over the record type, so the
// same two helpers serve signaling transactions, radio events and
// CDRs: [Sample] thins a capture by per-record identity hash, and
// [Fanout] tees one capture into several sinks.
package probe

import "whereroam/internal/rng"

// Sample returns sink thinned to the fraction rate of the records it
// is offered: a record is kept iff rng.Hash01(hashSeed, key(rec)) <
// rate, with hashSeed derived from (name, seed). The verdict depends
// only on the record's identity, never on arrival order, so any number
// of samplers built with the same (name, seed, rate) reach identical
// decisions — which lets a sampled capture run on shard-local sinks in
// parallel and stay worker-count invariant. Keys should be unique per
// logical record; colliding keys share a verdict.
//
// Unless 0 < rate < 1 the capture is complete and Sample returns sink
// itself.
func Sample[T any](name string, seed uint64, rate float64, key func(T) uint64, sink func(T)) func(T) {
	if !(rate > 0 && rate < 1) {
		return sink
	}
	hashSeed := rng.New(seed).Split("probe-hash-" + name).Uint64()
	return func(rec T) {
		if rng.Hash01(hashSeed, key(rec)) < rate {
			sink(rec)
		}
	}
}

// Fanout is a sink that forwards each record to several sinks in
// order — e.g. persist to disk and feed the live catalog builder.
func Fanout[T any](sinks ...func(T)) func(T) {
	return func(rec T) {
		for _, s := range sinks {
			s(rec)
		}
	}
}
