package campaign

import (
	"sync"

	"presto/internal/metrics"
)

// LiveStats counts replicas as they finish and accumulates every named
// distribution's samples of the successful ones, so a long-running
// campaign can report its progress and exact p50/p95/p99/p999
// mid-flight. Percentiles of the accumulated samples do not depend on
// the order workers finish in, preserving the campaign's determinism
// guarantee.
//
// A nil *LiveStats disables collection: every method is a
// nil-receiver-safe no-op. All methods are safe for concurrent use
// (workers observe while HTTP handlers read).
type LiveStats struct {
	mu           sync.Mutex
	dists        map[string]*metrics.Dist
	done, failed int
}

// NewLiveStats returns an empty accumulator.
func NewLiveStats() *LiveStats {
	return &LiveStats{dists: make(map[string]*metrics.Dist)}
}

// observe counts one finished replica (err non-nil when it failed)
// and folds a successful one's distributions into the accumulated
// ones. Called by the campaign runner's workers.
func (ls *LiveStats) observe(res Result, err error) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.done++
	if err != nil {
		ls.failed++
		return
	}
	addDists(ls.dists, res.Dists)
}

// Replicas returns how many replicas have finished, failed ones
// included, and how many of those failed.
func (ls *LiveStats) Replicas() (done, failed int) {
	if ls == nil {
		return 0, 0
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.done, ls.failed
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
