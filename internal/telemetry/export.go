package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// eventRecord builds the self-describing JSONL record for one event.
func eventRecord(ev *Event) map[string]any {
	an, bn := ev.Kind.argNames()
	rec := map[string]any{
		"ts_ns": int64(ev.At),
		"run":   ev.Run,
		"event": ev.Kind.String(),
		"actor": fmt.Sprintf("%s%d", ev.Actor.Kind, ev.Actor.ID),
		an:      ev.A,
		bn:      ev.B,
	}
	if ev.Reason != "" {
		rec["reason"] = ev.Reason
	}
	return rec
}

// WriteJSONL writes the kept events as JSON Lines: one
// self-describing object per line, in canonical order (see Tracer). A nil Tracer is
// the disabled state and writes nothing.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	events := t.Events()
	for i := range events {
		line, err := json.Marshal(eventRecord(&events[i]))
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int32          `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTID flattens an actor to a stable lane ID: hosts occupy
// [0,10000), switches [10000,20000), links [20000,...).
func chromeTID(a Actor) int32 {
	switch a.Kind {
	case ActorSwitch:
		return 10000 + a.ID
	case ActorLink:
		return 20000 + a.ID
	}
	return a.ID
}

// WriteChromeTrace writes the buffered events in Chrome trace-event
// format: one process per run, one thread lane per actor, instant
// events carrying the typed arguments. The output opens directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: make([]chromeEvent, 0, len(events)+64)}

	// Metadata: name each run's process and each actor's lane.
	type lane struct {
		run int32
		a   Actor
	}
	seen := map[lane]bool{}
	for i := range events {
		seen[lane{events[i].Run, events[i].Actor}] = true
	}
	lanes := make([]lane, 0, len(seen))
	for l := range seen {
		lanes = append(lanes, l)
	}
	sort.Slice(lanes, func(i, j int) bool {
		if lanes[i].run != lanes[j].run {
			return lanes[i].run < lanes[j].run
		}
		return chromeTID(lanes[i].a) < chromeTID(lanes[j].a)
	})
	runsSeen := map[int32]bool{}
	for _, l := range lanes {
		if !runsSeen[l.run] {
			runsSeen[l.run] = true
			name := t.RunLabel(l.run)
			if name == "" {
				name = fmt.Sprintf("run%d", l.run)
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Phase: "M", PID: l.run,
				Args: map[string]any{"name": name},
			})
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: l.run, TID: chromeTID(l.a),
			Args: map[string]any{"name": fmt.Sprintf("%s%d", l.a.Kind, l.a.ID)},
		})
	}

	for i := range events {
		ev := &events[i]
		an, bn := ev.Kind.argNames()
		args := map[string]any{an: ev.A, bn: ev.B}
		if ev.Reason != "" {
			args["reason"] = ev.Reason
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  ev.Kind.String(),
			Phase: "i",
			Scope: "t",
			TS:    float64(ev.At) / 1e3,
			PID:   ev.Run,
			TID:   chromeTID(ev.Actor),
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes fn's output to path (a small helper shared by the
// CLIs).
func WriteFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close() // fn's failure is the one to report; close is best-effort cleanup
		return err
	}
	return f.Close()
}
