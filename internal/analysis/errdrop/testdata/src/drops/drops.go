// Package drops is the errdrop fixture: discarded errors from the
// watched families (flush/close/spill/encode/write/sync) in statement,
// defer, and go position, plus the accepted shapes.
package drops

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
)

type sink struct{}

func (s *sink) Close() error              { return nil }
func (s *sink) Flush() error              { return nil }
func (s *sink) CloseSink() error          { return nil }
func (s *sink) WriteJSONL(b []byte) error { return nil }
func (s *sink) SyncDir() error            { return nil }
func (s *sink) Deliver() error            { return nil } // not a watched family
func (s *sink) Closed() bool              { return true }
func (s *sink) WriteCount() (int, error)  { return 0, nil }
func spillTo(path string) error           { return nil }

func Bad(s *sink, f *os.File, enc *json.Encoder) {
	s.Close()         // want `discarded error from Close`
	s.Flush()         // want `discarded error from Flush`
	s.CloseSink()     // want `discarded error from CloseSink`
	s.WriteJSONL(nil) // want `discarded error from WriteJSONL`
	s.SyncDir()       // want `discarded error from SyncDir`
	s.WriteCount()    // want `discarded error from WriteCount`
	spillTo("/tmp/x") // want `discarded error from spillTo`
	enc.Encode(42)    // want `discarded error from Encode`
	defer f.Close()   // want `discarded error from defer Close`
	go s.Flush()      // want `discarded error from go Flush`
}

func Good(s *sink, f *os.File, enc *json.Encoder) error {
	if err := s.Close(); err != nil {
		return err
	}
	_ = s.Flush() // explicit discard is deliberate and greppable
	err := s.CloseSink()

	// Non-error-returning and unwatched calls are never flagged.
	s.Deliver()
	_ = s.Closed()

	// bytes.Buffer and strings.Builder never fail.
	var buf bytes.Buffer
	buf.WriteString("x")
	buf.Write(nil)
	var sb strings.Builder
	sb.WriteString("y")

	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return err
}
