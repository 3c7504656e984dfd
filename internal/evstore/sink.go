package evstore

import (
	"fmt"
	"os"
	"strings"
)

// SinkHandle is an open event recording: the store directory at the
// recording path, plus what it already held. Its Close is the store's,
// which seals the active segment and returns the first write or encode
// error, so a torn recording can never pass for a complete one.
type SinkHandle struct {
	*Store

	// ExistingEvents counts events already recorded at the path before
	// this open. Callers decide the policy: refuse (one-shot recordings
	// like a census), or append with a notice (long-lived server logs).
	ExistingEvents int
}

// SinkMode is the policy for a store path that already holds events.
type SinkMode int

const (
	// SinkFresh refuses a non-empty store. The probe is read-only, so
	// the refusal leaves a live writer's store untouched (a
	// writer-mode probe would seal a stale sidecar over its active
	// segment before the policy could run). For one-shot recordings
	// whose stream must equal exactly what this run produced.
	SinkFresh SinkMode = iota
	// SinkReplace drops the existing recording and starts over. For
	// reruns that re-emit the complete stream (a resumed census
	// re-emits resumed findings, so appending would duplicate them).
	SinkReplace
	// SinkAppend continues an existing recording, reporting what was
	// already there via ExistingEvents. For long-lived logs that span
	// restarts.
	SinkAppend
)

// OpenSink opens the store directory at path for recording under
// mode. A path ending in .jsonl is refused before anything on disk is
// touched: JSONL is an interchange format, not a recording. Segments
// are binary; codec must be empty or CodecBinary, anything else is an
// error. The parameter is kept for source compatibility with existing
// callers and selects nothing.
func OpenSink(path string, mode SinkMode, codec Codec) (*SinkHandle, error) {
	if codec != "" && codec != CodecBinary {
		return nil, fmt.Errorf("evstore: segments are written as %q, not %q", CodecBinary, codec)
	}
	if strings.HasSuffix(path, ".jsonl") {
		return nil, fmt.Errorf("evstore: %s: a recording is an event-store directory, not a .jsonl file "+
			"(JSONL is input to jsentinel --replay and jdataset --in, and output of jdataset --out)", path)
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
	return &SinkHandle{Store: store, ExistingEvents: existing}, nil
}
