// Package suite registers the full prestolint analyzer set. It exists
// as its own package (rather than a list in internal/analysis) so the
// framework does not import the analyzers that import it.
package suite

import (
	"presto/internal/analysis"
	"presto/internal/analysis/errdrop"
	"presto/internal/analysis/hotalloc"
	"presto/internal/analysis/lockorder"
	"presto/internal/analysis/maporder"
	"presto/internal/analysis/niltracer"
	"presto/internal/analysis/simclock"
	"presto/internal/analysis/simtime"
)

// Analyzers returns every analyzer in the suite, in a fixed order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errdrop.Analyzer,
		hotalloc.Analyzer,
		lockorder.Analyzer,
		maporder.Analyzer,
		niltracer.Analyzer,
		simclock.Analyzer,
		simtime.Analyzer,
	}
}
