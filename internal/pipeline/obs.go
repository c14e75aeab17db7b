package pipeline

import "whereroam/internal/obs"

// MapTimed is [Map] with per-shard wall-time observation: each
// shard's execution time is observed into h. A nil histogram means
// plain Map — no clock is read, so the deterministic unobserved path
// is untouched. Timing never changes shard boundaries or merge
// order; only the observed durations differ run to run.
func MapTimed[T any](n, workers int, h *obs.Histogram, fn func(Shard) T) []T {
	if h == nil {
		return Map(n, workers, fn)
	}
	return Map(n, workers, func(s Shard) T {
		defer h.Start().Stop()
		return fn(s)
	})
}
