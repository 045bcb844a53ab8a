package scheme

import "presto/internal/param"

// The scheme tests spell the grammar of package param by the names it
// had when it lived here.
type (
	Param    = param.Param
	Resolved = param.Resolved
)

const (
	KindBytes    = param.KindBytes
	KindDuration = param.KindDuration
	KindFloat    = param.KindFloat
	KindInt      = param.KindInt
)

var (
	parseBytes    = param.ParseBytes
	CanonicalSpec = param.Canonical
)
