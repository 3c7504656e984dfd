// Package evstore is the durable storage layer of the event pipeline:
// an append-only, segment-rotated event log with CRC-checked frames
// and a per-segment sidecar index (kinds, actors, sequence range,
// time window) that lets a filtered replay skip whole segments
// without reading them. It replaces the ad-hoc flat JSONL files the
// CLI tools used to exchange, decoupling retention and replay cost
// from trace size: segments stream one frame at a time, replay
// parallelizes across actor shards with per-segment readers, and
// Compact drops the oldest segments once they age out.
//
// The segment files, their buffering, sealing, recovery and retention
// are internal/seglog's, and so is the durability contract (see that
// package): frames are flushed every FlushEvery events and on rotation
// and Close, a present sidecar always describes a cleanly sealed
// segment, and a torn tail from a crash is truncated on the next Open
// and surfaced via Recovered — never silently replayed, never appended
// after.
package evstore

import (
	"fmt"
	"runtime"

	"repro/internal/seglog"
	"repro/internal/trace"
)

// Options tunes a store. Zero values pick the defaults.
type Options struct {
	// SegmentBytes is the rotation threshold: once a segment's valid
	// data reaches it, the segment is sealed and a new one started.
	// Default 4 MiB.
	SegmentBytes int64
	// FlushEvery is how many appended events may sit in the write
	// buffer before it is flushed to the OS. Default 128.
	FlushEvery int
	// MaxActors caps the per-segment actor index; a segment seeing
	// more distinct actors is marked overflowed and matches any actor
	// filter. Default 256.
	MaxActors int
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = 128
	}
	if o.MaxActors <= 0 {
		o.MaxActors = 256
	}
	return o
}

// SegmentInfo describes one sealed, readable segment; replay order is
// ascending N.
type SegmentInfo = seglog.Segment[Index]

// TailLoss records corruption found and truncated during Open.
type TailLoss = seglog.TailLoss

// Store is an event log rooted at one directory. It implements
// trace.Sink and trace.BatchSink: Emit and EmitBatch keep the first
// append failure, which Err and Close report. Append/Emit are safe for
// concurrent use; the append order is the replay order.
//
// The segment machine is internal/seglog's: Dir, Segments, Recovered,
// Err, Sync and Compact are the embedded Log's. The store adds what an
// event is — the payload codec, the sidecar Index and the replay
// paths over them.
type Store struct {
	*seglog.Log[Index]
	w    seglog.Writer[Index]
	opts Options

	// The active segment's codec and index state, reset whenever the
	// writer starts a fresh segment; guarded by the writer's lock.
	enc    *binEncoder
	ix     Index
	actors map[string]struct{}

	// free parks the segment buffers sharded Replay calls have drained,
	// so a session of questions against one open store allocates event
	// arrays once. Sized to the largest look-ahead one call can have;
	// take and put never block; Close empties it. A channel, not a
	// sync.Pool: a collection between two questions would purge a
	// pool's warm capacity exactly when it matters.
	free chan *segBuf
}

// Open creates or opens a store directory for appending. Existing
// segments are validated: a missing or unreadable sidecar is rebuilt
// by scanning the data, and the newest segment — the only one a
// crashed writer can have torn — is truncated at its first bad frame,
// with the loss reported by Recovered. Appends always start a fresh
// segment, so recovery never rewrites sealed history.
//
// Open is a writer's entry point and its recovery mutates the store;
// consumers that only read must use OpenRead, which never writes.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	log, err := seglog.Open(&format, dir, opts.SegmentBytes, opts.FlushEvery, opts.rebuild)
	return newStore(log, opts, err)
}

// OpenRead opens an existing store without ever mutating it: missing
// sidecars are rebuilt in memory only and a torn newest segment is
// reported via Recovered but not truncated. This is what replay/export
// tools must use — see seglog.OpenRead for why a reader must never
// write a sidecar. Append and Compact on a read-only store fail.
func OpenRead(dir string) (*Store, error) {
	opts := Options{}.withDefaults()
	log, err := seglog.OpenRead(&format, dir, opts.rebuild)
	return newStore(log, opts, err)
}

func newStore(log *seglog.Log[Index], opts Options, err error) (*Store, error) {
	if err != nil {
		return nil, err
	}
	return &Store{Log: log, w: seglog.WriterOf(log), opts: opts,
		free: make(chan *segBuf, runtime.GOMAXPROCS(0)+2)}, nil
}

// Events returns the total events across sealed segments.
func (s *Store) Events() int {
	n := 0
	for _, seg := range s.Segments() {
		n += seg.Index.Events
	}
	return n
}

// StoreStats summarizes a store's on-disk shape from the sidecar
// indexes alone — segment and event totals, bytes, and any bytes lost
// to tail corruption at open. It costs O(segments), never touches
// segment data, and is what an operator sizes retention tiers from.
type StoreStats struct {
	Segments           int
	Events             int
	Bytes              int64
	RecoveredLossBytes int64
}

// Stats reports the store's current on-disk summary. Only sealed
// segments count; the active segment is excluded until rotation or
// Close, like Segments.
func (s *Store) Stats() StoreStats {
	var st StoreStats
	for _, seg := range s.Segments() {
		st.Segments++
		st.Events += seg.Index.Events
		st.Bytes += seg.Index.Bytes
	}
	for _, loss := range s.Recovered() {
		st.RecoveredLossBytes += loss.LostBytes
	}
	return st
}

// Render formats the stats as one line, for the CLI store-stats output.
func (st StoreStats) Render() string {
	return fmt.Sprintf("segments=%d events=%d bytes=%d recovered-loss-bytes=%d",
		st.Segments, st.Events, st.Bytes, st.RecoveredLossBytes)
}

// Append adds one event to the log.
func (s *Store) Append(e trace.Event) error {
	err := s.w.Lock()
	defer s.w.Unlock()
	if err != nil {
		return err
	}
	if err := s.append(&e); err != nil {
		return s.w.Fail(err)
	}
	return nil
}

// AppendBatch adds a batch of events under one lock acquisition —
// the batch-at-a-time write path for replay-to-store conversion and
// high-rate sinks. Frames are encoded back to back into the shared
// pending buffer and written through on the usual FlushEvery cadence.
func (s *Store) AppendBatch(events []trace.Event) error {
	err := s.w.Lock()
	defer s.w.Unlock()
	if err != nil {
		return err
	}
	for i := range events {
		if err := s.append(&events[i]); err != nil {
			return s.w.Fail(err)
		}
	}
	return nil
}

// Emit implements trace.Sink; the first failure is sticky and
// reported by Err.
func (s *Store) Emit(e trace.Event) { _ = s.Append(e) }

// EmitBatch implements trace.BatchSink: AppendBatch, with the first
// failure sticky and reported by Err. The slice is only read during
// the call.
func (s *Store) EmitBatch(events []trace.Event) { _ = s.AppendBatch(events) }

// append is the one per-event body behind Append and AppendBatch (and
// so Emit and EmitBatch): encode, index, then the writer's flush and
// rotation checks, each counted in events whatever the batch size. It
// reads e and keeps nothing of it but strings.
func (s *Store) append(e *trace.Event) error {
	buf, fresh, err := s.w.Begin()
	if err != nil {
		return err
	}
	if fresh {
		s.enc = newBinEncoder()
		s.ix = Index{Version: IndexVersion, Bytes: seglog.MagicLen}
		s.actors = map[string]struct{}{}
	}
	start := len(buf)
	actor := e.ActorKey() // once: the frame header and the index both carry it
	// On error the growth of buf — any dictionary frames staged for
	// this event — is dropped with it: the writer never sees it.
	if buf, err = s.enc.appendEvent(buf, e, actor); err != nil {
		return err
	}
	// frameBytes covers everything this event put on the wire,
	// including any dictionary frames it introduced, keeping the
	// Index.Bytes == valid-file-length invariant.
	s.ix.observe(e, actor, int64(len(buf)-start), s.actors, s.opts.MaxActors)
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
		s.ix.seal(s.actors)
	}
	return s.w.Seal(s.ix)
}

// Close seals the active segment (if any) — whatever the sticky error,
// so the file is released — and returns the sticky error. The store
// stays usable for reads; a later Append starts a fresh segment. The
// replay buffers parked on the store are dropped.
func (s *Store) Close() error {
	for len(s.free) > 0 {
		select {
		case <-s.free:
		default:
		}
	}
	_ = s.w.Lock()
	defer s.w.Unlock()
	return s.seal()
}
