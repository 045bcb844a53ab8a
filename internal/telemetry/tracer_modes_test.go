package telemetry

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"presto/internal/sim"
)

// --- tracer ring mode -------------------------------------------------

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer()
	tr.SetRing(4)
	for i := 0; i < 10; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := sim.Time(6 + i); ev.At != want {
			t.Fatalf("event %d at %d, want %d (newest four, in order)", i, ev.At, want)
		}
	}
	if tr.Overwritten() != 6 {
		t.Fatalf("overwritten = %d, want 6", tr.Overwritten())
	}
	if tr.Dropped() != 0 {
		t.Fatalf("ring mode must not count drops, got %d", tr.Dropped())
	}
	if got := tr.CountKind(KindRingDrop); got != 4 {
		t.Fatalf("CountKind = %d, want 4", got)
	}
}

func TestTracerRingKeepsNewestOnShrink(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 6; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	tr.SetRing(3)
	evs := tr.Events()
	if len(evs) != 3 || evs[0].At != 3 || evs[2].At != 5 {
		t.Fatalf("SetRing kept wrong events: %+v", evs)
	}
}

// TestTracerRingEmitAllocs pins the bounded-memory guarantee: once the
// ring is primed, emitting overwrites slots in place with zero
// allocations.
func TestTracerRingEmitAllocs(t *testing.T) {
	tr := NewTracer()
	tr.SetRing(64)
	for i := 0; i < 64; i++ {
		tr.GROFlush(sim.Time(i), 2, 1500, 1, "in-order")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.GROFlush(1, 2, 1500, 1, "in-order")
	})
	if allocs != 0 {
		t.Fatalf("ring emit allocates %v per op, want 0", allocs)
	}
}

func TestTracerRingJSONLOrder(t *testing.T) {
	tr := NewTracer()
	tr.SetRing(3)
	for i := 0; i < 5; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var ts []float64
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		ts = append(ts, rec["ts_ns"].(float64))
	}
	if !reflect.DeepEqual(ts, []float64{2, 3, 4}) {
		t.Fatalf("JSONL order after wrap = %v, want [2 3 4]", ts)
	}
}

// --- tracer spill -----------------------------------------------------

// readSpill decodes a gzip-JSONL spill file into records.
func readSpill(t *testing.T, path string) []map[string]any {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("spill file is not gzip: %v", err)
	}
	defer gz.Close()
	var recs []map[string]any
	sc := bufio.NewScanner(gz)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid spill line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestTracerSpillKeepsEveryEvent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	tr := NewTracer()
	tr.SetRing(8)
	if err := tr.SpillTo(path); err != nil {
		t.Fatal(err)
	}
	const total = 100
	for i := 0; i < total; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	if tr.Overwritten() != 0 {
		t.Fatalf("spill armed but %d events overwritten", tr.Overwritten())
	}
	if int(tr.Spilled())+len(tr.Events()) != total {
		t.Fatalf("spilled %d + buffered %d != %d", tr.Spilled(), len(tr.Events()), total)
	}
	if err := tr.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events()) != 0 {
		t.Fatal("CloseSpill must drain the buffer")
	}
	recs := readSpill(t, path)
	if len(recs) != total {
		t.Fatalf("spill file has %d events, want %d", len(recs), total)
	}
	for i, rec := range recs {
		if int(rec["ts_ns"].(float64)) != i {
			t.Fatalf("spill out of order at %d: %v", i, rec)
		}
	}
}

func TestTracerSpillWithPlainLimit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	tr := NewTracer()
	tr.SetLimit(4)
	if err := tr.SpillTo(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("spill armed but %d events dropped", tr.Dropped())
	}
	if err := tr.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	if got := len(readSpill(t, path)); got != 11 {
		t.Fatalf("spill file has %d events, want 11", got)
	}
}

// TestTracerSpillCloseAfterWriteError: a write error during the final
// flush (e.g. disk full at trace finalization) must surface as an
// error from CloseSpill, not a nil-pointer panic — flushToSpill
// detaches the sink on error, and CloseSpill must tolerate that.
func TestTracerSpillCloseAfterWriteError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	tr := NewTracer()
	if err := tr.SpillTo(path); err != nil {
		t.Fatal(err)
	}
	// Make every subsequent sink write fail, as a full disk would.
	tr.spill.f.Close()
	// Buffer enough events that draining them overflows the sink's
	// 64 KiB buffer mid-flush, hitting the dead file descriptor.
	for i := 0; i < 4000; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	if err := tr.CloseSpill(); err == nil {
		t.Fatal("CloseSpill must surface the flush error")
	}
	if tr.SpillError() == nil {
		t.Fatal("flush error was not recorded")
	}
	if err := tr.CloseSpill(); err == nil {
		t.Fatal("repeated CloseSpill must keep reporting the error")
	}
}

// TestTracerSetLimitInRingModeResizes: SetLimit after SetRing must
// resize the ring consistently (buffer, head, wrapped) instead of
// letting Emit append past the fixed ring and scramble event order.
func TestTracerSetLimitInRingModeResizes(t *testing.T) {
	tr := NewTracer()
	tr.SetRing(4)
	tr.SetLimit(8)
	for i := 0; i < 20; i++ {
		tr.RingDrop(sim.Time(i), 0, i)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	for i, ev := range evs {
		if want := sim.Time(12 + i); ev.At != want {
			t.Fatalf("event %d at %d, want %d (order broken after wrap)", i, ev.At, want)
		}
	}
	if tr.Overwritten() != 12 {
		t.Fatalf("overwritten = %d, want 12", tr.Overwritten())
	}
}

func TestTracerSpillNilSafe(t *testing.T) {
	var tr *Tracer
	if err := tr.SpillTo("/nonexistent/x"); err != nil {
		t.Fatal("nil tracer SpillTo must be a no-op")
	}
	if err := tr.CloseSpill(); err != nil {
		t.Fatal(err)
	}
	if tr.Spilled() != 0 || tr.Overwritten() != 0 || tr.SpillError() != nil {
		t.Fatal("nil tracer recorded spill state")
	}
	tr.SetRing(8)
}
