package evstore

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/trace"
)

// SinkHandle is an open event-recording destination: the one dispatch
// point for the CLI convention that a path ending in .jsonl is a
// legacy flat JSONL stream (truncated on open) and anything else is a
// store directory (opened for append). It implements trace.Sink;
// Close flushes and returns the first write or encode error, so a
// torn recording can never pass for a complete one.
type SinkHandle struct {
	sink    trace.Sink
	closeFn func() error

	// ExistingEvents counts events already recorded at the path before
	// this open — always zero for .jsonl paths, which truncate.
	// Callers decide the policy: refuse (one-shot recordings like a
	// census), or append with a notice (long-lived server logs).
	ExistingEvents int

	// Recovered reports any corrupt tail truncated while opening a
	// store path, for the caller to surface.
	Recovered []TailLoss

	// Store is the underlying segmented store when the path is a store
	// directory, nil for flat .jsonl paths. Callers that need
	// store-only operations (Stats, tiered retention via Compact)
	// reach it here; Close on the handle still owns the lifecycle.
	Store *Store
}

// Emit forwards to the underlying sink.
func (h *SinkHandle) Emit(e trace.Event) { h.sink.Emit(e) }

// EmitBatch forwards the batch: one locked append for a store path,
// line by line for a .jsonl path.
func (h *SinkHandle) EmitBatch(events []trace.Event) { trace.EmitBatch(h.sink, events) }

// Close flushes and reports the first recording error.
func (h *SinkHandle) Close() error { return h.closeFn() }

// SinkMode is the policy for a store path that already holds events.
// Flat .jsonl paths always truncate (os.Create semantics), so the
// mode only matters for store directories.
type SinkMode int

const (
	// SinkFresh refuses a non-empty store. The probe is read-only, so
	// the refusal leaves a live writer's store untouched (a
	// writer-mode probe would seal a stale sidecar over its active
	// segment before the policy could run). For one-shot recordings
	// whose stream must equal exactly what this run produced.
	SinkFresh SinkMode = iota
	// SinkReplace drops the existing recording and starts over — the
	// store equivalent of os.Create truncation. For reruns that
	// re-emit the complete stream (a resumed census re-emits resumed
	// findings, so appending would duplicate them).
	SinkReplace
	// SinkAppend continues an existing recording, reporting what was
	// already there via ExistingEvents. For long-lived logs that span
	// restarts.
	SinkAppend
)

// OpenSink opens an event-recording path per the suffix convention.
// Store paths get binary segments; codec must be empty or
// CodecBinary, anything else is an error. The parameter is kept for
// source compatibility with existing callers and selects nothing.
func OpenSink(path string, mode SinkMode, codec Codec) (*SinkHandle, error) {
	if codec != "" && codec != CodecBinary {
		return nil, fmt.Errorf("evstore: segments are written as %q, not %q", CodecBinary, codec)
	}
	if strings.HasSuffix(path, ".jsonl") {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		w := trace.NewJSONLWriter(f)
		return &SinkHandle{sink: w, closeFn: func() error {
			if err := w.Flush(); err != nil {
				f.Close()
				return err
			}
			if err := w.Err(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}}, nil
	}
	existing := 0
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		probe, err := OpenRead(path)
		if err != nil {
			return nil, err
		}
		existing = probe.Events()
		if mode == SinkFresh && existing > 0 {
			return nil, fmt.Errorf("evstore: %s already holds a recorded stream (%d events); delete it or record elsewhere", path, existing)
		}
	}
	store, err := Open(path, Options{})
	if err != nil {
		return nil, err
	}
	if mode == SinkReplace {
		if _, err := store.Compact(0); err != nil {
			return nil, err
		}
		existing = 0
	}
	return &SinkHandle{sink: store, Store: store, ExistingEvents: existing, Recovered: store.Recovered(), closeFn: func() error {
		if err := store.Close(); err != nil {
			return err
		}
		return store.Err()
	}}, nil
}
