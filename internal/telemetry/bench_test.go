package telemetry

import "testing"

// BenchmarkEmitDisabled measures the nil-tracer fast path every
// component pays when telemetry is off — it must be a few nanoseconds
// and allocation-free (see TestNilTracerEmitAllocs).
func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.GROFlush(1, 2, 1500, 1, "in-order")
	}
}

// BenchmarkEmitEnabled measures the recording path (amortized append
// into the event buffer).
func BenchmarkEmitEnabled(b *testing.B) {
	tr := NewTracer()
	tr.limit = 1 << 30
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.GROFlush(1, 2, 1500, 1, "in-order")
	}
}
