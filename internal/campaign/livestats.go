package campaign

import (
	"sync"

	"presto/internal/metrics"
)

// LiveStats accumulates every named distribution's samples as replicas
// finish, so a long-running campaign can report exact p50/p95/p99/p999
// mid-flight. Percentiles of the accumulated samples do not depend on
// the order workers finish in, preserving the campaign's determinism
// guarantee.
//
// A nil *LiveStats disables collection: every method is a
// nil-receiver-safe no-op. All methods are safe for concurrent use
// (workers observe while HTTP handlers read).
type LiveStats struct {
	mu       sync.Mutex
	dists    map[string]*metrics.Dist
	replicas uint64
}

// NewLiveStats returns an empty accumulator.
func NewLiveStats() *LiveStats {
	return &LiveStats{dists: make(map[string]*metrics.Dist)}
}

// observe folds one successful replica's distributions into the
// accumulated ones. Called by the campaign runner's workers.
func (ls *LiveStats) observe(res Result) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.replicas++
	addDists(ls.dists, res.Dists)
}

// Replicas returns how many successful replicas have been observed.
func (ls *LiveStats) Replicas() uint64 {
	if ls == nil {
		return 0
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.replicas
}

// MergeInto appends a copy of every accumulated distribution to
// dst[name], so readers compute percentiles on samples they own and can
// pool several accumulators into one map.
func (ls *LiveStats) MergeInto(dst map[string]*metrics.Dist) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	addDists(dst, ls.dists)
}
