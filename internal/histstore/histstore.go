package histstore

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/evstore"
	"repro/internal/seglog"
)

// Options tunes a store. Zero values pick the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold: once a segment's valid
	// data reaches it, the segment is sealed and a new one started.
	// Default 1 MiB — history records are small, and smaller segments
	// give index pruning finer granularity.
	SegmentBytes int64
	// FlushEvery is how many appended records may sit in the write
	// buffer before it is flushed to the OS. Default 128.
	FlushEvery int
	// MaxActors caps the per-segment actor facet; a segment seeing
	// more distinct actors is marked overflowed and matches any actor
	// filter. Default 256.
	MaxActors int
	// MaxClasses caps the per-segment class facet likewise.
	// Default 64.
	MaxClasses int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 128
	}
	if o.MaxActors <= 0 {
		o.MaxActors = 256
	}
	if o.MaxClasses <= 0 {
		o.MaxClasses = 64
	}
	return o
}

// SegmentInfo describes one sealed, readable segment; scan order is
// ascending N.
type SegmentInfo = seglog.Segment[Index]

// TailLoss records corruption found and truncated during Open.
type TailLoss = seglog.TailLoss

// Store is a history log rooted at one directory. AppendAlert and
// AppendIncident are safe for concurrent use (the core engine invokes
// its hooks from many worker goroutines); the first write failure is
// sticky and reported by Err, so a recording pipeline never mistakes
// a torn history for a complete one.
//
// The segment machine is internal/seglog's: Dir, Segments, Recovered,
// Err, Sync (which makes buffered records visible to concurrent
// OpenRead queries) and Compact are the embedded Log's.
type Store struct {
	*seglog.Log[Index]
	w    seglog.Writer[Index]
	opts Options

	// The active segment's index state, reset whenever the writer
	// starts a fresh segment; guarded by the writer's lock.
	ix      Index
	builder *indexBuilder
}

// Open creates or opens a history directory for appending. Existing
// segments are validated: a missing or unreadable sidecar is rebuilt
// by scanning the data, and the newest segment — the only one a
// crashed writer can have torn — is truncated at its first bad frame,
// with the loss reported by Recovered. Appends always start a fresh
// segment, so recovery never rewrites sealed history.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	log, err := seglog.Open(&format, dir, opts.SegmentBytes, opts.FlushEvery, opts.rebuild)
	return newStore(log, opts, err)
}

// OpenRead opens an existing history without ever mutating it:
// missing sidecars are rebuilt in memory only and a torn newest
// segment is reported via Recovered but not truncated. This is the
// query path's entry point — it sees the flushed prefix of a live
// writer's active segment and never freezes a stale sidecar over it
// (see seglog.OpenRead). Appends and Compact on a read-only store
// fail.
func OpenRead(dir string) (*Store, error) {
	opts := Options{}.withDefaults()
	log, err := seglog.OpenRead(&format, dir, opts.rebuild)
	return newStore(log, opts, err)
}

func newStore(log *seglog.Log[Index], opts Options, err error) (*Store, error) {
	if err != nil {
		return nil, err
	}
	return &Store{Log: log, w: seglog.WriterOf(log), opts: opts}, nil
}

// Mode is the policy for opening a history path that already holds
// records. It is evstore.SinkMode, so one value opens both stores of a
// recording.
type Mode = evstore.SinkMode

const (
	// OpenFresh refuses a non-empty history. The probe is read-only,
	// so the refusal leaves a live writer's store untouched. For
	// one-shot runs whose history must equal exactly what this run
	// detected.
	OpenFresh = evstore.SinkFresh
	// OpenReplace drops the existing history and starts over. For
	// reruns that re-detect from scratch.
	OpenReplace = evstore.SinkReplace
	// OpenAppend continues an existing history. For long-lived
	// daemons that span restarts.
	OpenAppend = evstore.SinkAppend
)

// OpenWith opens a history directory under the given mode.
func OpenWith(dir string, mode Mode, opts Options) (*Store, error) {
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		probe, err := OpenRead(dir)
		if err != nil {
			return nil, err
		}
		if existing := probe.Records(); mode == OpenFresh && existing > 0 {
			return nil, fmt.Errorf("histstore: %s already holds recorded history (%d records); delete it or record elsewhere", dir, existing)
		}
	}
	s, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if mode == OpenReplace {
		if _, err := s.Compact(0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Records returns the total records across sealed segments.
func (s *Store) Records() int {
	n := 0
	for _, seg := range s.Segments() {
		n += seg.Index.Records
	}
	return n
}

// Stats summarizes the history's on-disk shape from the sidecars
// alone — O(segments), no segment data touched.
type Stats struct {
	Segments           int
	Records            int
	AlertRecords       int
	IncidentRecords    int
	Bytes              int64
	RecoveredLossBytes int64
}

// Stats reports the store's current on-disk summary. Only sealed
// segments count; the active segment is excluded until rotation or
// Close, like Segments.
func (s *Store) Stats() Stats {
	var st Stats
	for _, seg := range s.Segments() {
		st.Segments++
		st.Records += seg.Index.Records
		st.AlertRecords += seg.Index.AlertRecords
		st.IncidentRecords += seg.Index.IncidentRecords
		st.Bytes += seg.Index.Bytes
	}
	for _, loss := range s.Recovered() {
		st.RecoveredLossBytes += loss.LostBytes
	}
	return st
}

// Render formats the stats as one deterministic line, for the CLI
// history-stats output.
func (st Stats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "segments=%d records=%d alerts=%d incidents=%d bytes=%d recovered-loss-bytes=%d",
		st.Segments, st.Records, st.AlertRecords, st.IncidentRecords, st.Bytes, st.RecoveredLossBytes)
	return b.String()
}

// AppendAlert records one fired alert.
func (s *Store) AppendAlert(a AlertRecord) error {
	return s.Append(Record{Kind: KindAlert, Alert: a})
}

// AppendIncident records one incident snapshot.
func (s *Store) AppendIncident(in IncidentRecord) error {
	return s.Append(Record{Kind: KindIncident, Incident: in})
}

// Append adds one record to the log.
func (s *Store) Append(r Record) error {
	err := s.w.Lock()
	defer s.w.Unlock()
	if err != nil {
		return err
	}
	if err := s.append(r); err != nil {
		return s.w.Fail(err)
	}
	return nil
}

func (s *Store) append(r Record) error {
	buf, fresh, err := s.w.Begin()
	if err != nil {
		return err
	}
	if fresh {
		s.ix = Index{Version: IndexVersion, Bytes: seglog.MagicLen}
		s.builder = newIndexBuilder()
	}
	// Reserve the frame header, encode the payload in place, then
	// back-fill length and checksum — one buffer, no staging copy. On
	// error the writer never sees the growth.
	start := len(buf)
	buf = append(buf, make([]byte, seglog.FrameHeaderLen)...)
	if buf, err = AppendRecord(buf, r); err != nil {
		return err
	}
	if n := len(buf) - start - seglog.FrameHeaderLen; n > maxFrame {
		return fmt.Errorf("histstore: record of %d bytes exceeds frame limit", n)
	}
	seglog.FillHeader(buf, start)
	s.ix.observe(r, int64(len(buf)-start), s.builder, s.opts.MaxActors, s.opts.MaxClasses)
	full, err := s.w.End(buf)
	if err != nil || !full {
		return err
	}
	return s.seal()
}

// seal finalizes the active segment's index and has the writer seal
// the segment under it; a no-op without an active segment.
func (s *Store) seal() error {
	if s.w.Active() {
		s.ix.seal(s.builder)
	}
	return s.w.Seal(s.ix)
}

// Close seals the active segment (if any) — whatever the sticky error,
// so the file is released — and returns the sticky error. The store
// stays usable for reads; a later Append starts a fresh segment.
func (s *Store) Close() error {
	_ = s.w.Lock()
	defer s.w.Unlock()
	return s.seal()
}
