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
// Durability contract: frames are buffered and flushed every
// FlushEvery events (and on rotation and Close); the sidecar is
// written only after the segment data is flushed, so a present
// sidecar always describes a cleanly sealed segment. A torn tail from
// a crash is truncated on the next Open and surfaced via Recovered —
// never silently replayed, never appended after.
package evstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

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
	// Codec selects the segment format NEW segments are written in:
	// CodecBinary (v2, the default) or CodecJSON (v1). Reading is
	// always version-dispatched per segment from its magic, so a
	// store may freely mix segments of both formats.
	Codec Codec
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
	if o.Codec == "" {
		o.Codec = CodecBinary
	}
	return o
}

// SegmentInfo describes one sealed, readable segment.
type SegmentInfo struct {
	N     int // segment number; replay order is ascending N
	Path  string
	Index Index
}

// TailLoss records corruption found and truncated during Open.
type TailLoss struct {
	Segment   string
	LostBytes int64
	Reason    string
}

// Store is an event log rooted at one directory. It implements
// trace.Sink (Emit records the first append failure, exposed via Err,
// mirroring JSONLWriter), so it drops into any pipeline slot a JSONL
// writer occupied. Append/Emit are safe for concurrent use; the
// append order is the replay order.
type Store struct {
	dir      string
	opts     Options
	readOnly bool

	mu        sync.Mutex
	sealed    []SegmentInfo
	nextN     int
	cur       *segmentWriter
	recovered []TailLoss
	err       error // first append/seal failure; sticky
}

type segmentWriter struct {
	f         *os.File
	enc       *binEncoder // per-segment binary state; nil for CodecJSON
	pending   []byte      // buffered frames not yet written through
	info      SegmentInfo
	actors    map[string]struct{}
	unflushed int
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
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evstore: %w", err)
	}
	return open(dir, opts, false)
}

// OpenRead opens an existing store without ever mutating it: missing
// sidecars are rebuilt in memory only and a torn newest segment is
// reported via Recovered but not truncated (readers stop at the first
// bad frame regardless). This is what replay/export tools must use —
// a reader that wrote a sidecar for a live writer's active segment
// would freeze a stale index and mask the writer's own crash
// recovery, since a present sidecar certifies a cleanly sealed
// segment. Append and Compact on a read-only store fail.
func OpenRead(dir string) (*Store, error) {
	if st, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("evstore: %w", err)
	} else if !st.IsDir() {
		return nil, fmt.Errorf("evstore: %s is not a store directory", dir)
	}
	return open(dir, Options{}, true)
}

func open(dir string, opts Options, readOnly bool) (*Store, error) {
	opts = opts.withDefaults()
	if opts.Codec != CodecBinary && opts.Codec != CodecJSON {
		return nil, fmt.Errorf("evstore: unknown codec %q", opts.Codec)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.ev"))
	if err != nil {
		return nil, fmt.Errorf("evstore: %w", err)
	}
	type numbered struct {
		n    int
		path string
	}
	var segs []numbered
	for _, p := range paths {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "seg-%d.ev", &n); err != nil {
			continue // not ours
		}
		segs = append(segs, numbered{n, p})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })

	s := &Store{dir: dir, opts: opts, readOnly: readOnly, nextN: 1}
	for i, seg := range segs {
		info := SegmentInfo{N: seg.n, Path: seg.path}
		ix, ok := loadIndex(indexPath(seg.path))
		if ok {
			info.Index = ix
		} else {
			rebuilt, res, err := rebuildIndex(seg.path, opts.MaxActors)
			if err != nil {
				return nil, fmt.Errorf("evstore: rebuild %s: %w", seg.path, err)
			}
			if res.Truncated && i == len(segs)-1 {
				// Only the newest segment can hold a torn append from
				// a crashed writer. A writer cuts it off so new frames
				// never land after garbage; a reader just reports it.
				if !readOnly {
					if err := os.Truncate(seg.path, res.ValidBytes); err != nil {
						return nil, fmt.Errorf("evstore: truncate %s: %w", seg.path, err)
					}
				}
				s.recovered = append(s.recovered, TailLoss{
					Segment: seg.path, LostBytes: res.TailLossBytes, Reason: res.Reason,
				})
			}
			if !readOnly {
				if err := writeIndex(indexPath(seg.path), rebuilt); err != nil {
					return nil, fmt.Errorf("evstore: %w", err)
				}
			}
			info.Index = rebuilt
		}
		s.sealed = append(s.sealed, info)
		s.nextN = seg.n + 1
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Recovered reports any corrupt tails truncated while opening.
func (s *Store) Recovered() []TailLoss {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]TailLoss(nil), s.recovered...)
}

// Segments returns the sealed, readable segments in replay order. The
// active segment (appends since Open) is excluded until sealed by
// rotation or Close.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]SegmentInfo(nil), s.sealed...)
}

// Events returns the total events across sealed segments.
func (s *Store) Events() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, seg := range s.sealed {
		n += seg.Index.Events
	}
	return n
}

// StoreStats summarizes a store's on-disk shape from the sidecar
// indexes alone — segment and event totals, bytes, the codec mix, and
// any bytes lost to tail corruption at open. It costs O(segments),
// never touches segment data, and is what an operator sizes retention
// tiers from.
type StoreStats struct {
	Segments           int
	Events             int
	Bytes              int64
	Codecs             map[string]int // sealed segments per codec name
	RecoveredLossBytes int64
}

// Stats reports the store's current on-disk summary. Only sealed
// segments count; the active segment is excluded until rotation or
// Close, like Segments.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{Codecs: map[string]int{}}
	for _, seg := range s.sealed {
		st.Segments++
		st.Events += seg.Index.Events
		st.Bytes += seg.Index.Bytes
		codec := seg.Index.Codec
		if codec == "" {
			// Sidecars written before the codec field existed describe
			// v1 JSON segments; readers trust the magic anyway.
			codec = string(CodecJSON)
		}
		st.Codecs[codec]++
	}
	for _, loss := range s.recovered {
		st.RecoveredLossBytes += loss.LostBytes
	}
	return st
}

// Render formats the stats as one deterministic line (codec names
// sorted), for the CLI store-stats output.
func (st StoreStats) Render() string {
	names := make([]string, 0, len(st.Codecs))
	for name := range st.Codecs {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", name, st.Codecs[name]))
	}
	mix := strings.Join(parts, ",")
	if mix == "" {
		mix = "none"
	}
	return fmt.Sprintf("segments=%d events=%d bytes=%d codecs=%s recovered-loss-bytes=%d",
		st.Segments, st.Events, st.Bytes, mix, st.RecoveredLossBytes)
}

// Append adds one event to the log.
func (s *Store) Append(e trace.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.append(&e); err != nil {
		s.err = err
		return err
	}
	return nil
}

// AppendBatch adds a batch of events under one lock acquisition —
// the batch-at-a-time write path for replay-to-store conversion and
// high-rate sinks. Frames are encoded back to back into the shared
// pending buffer and written through on the usual FlushEvery cadence.
func (s *Store) AppendBatch(events []trace.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	for i := range events {
		if err := s.append(&events[i]); err != nil {
			s.err = err
			return err
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

// Err returns the first append or seal error, or nil.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// append is the one per-event body behind Append and AppendBatch (and
// so Emit and EmitBatch): encode, index, then the flush and rotation
// checks, each counted in events whatever the batch size. It reads e
// and keeps nothing of it but strings.
func (s *Store) append(e *trace.Event) error {
	if s.readOnly {
		return fmt.Errorf("evstore: store opened read-only")
	}
	if s.cur == nil {
		w, err := s.openSegment()
		if err != nil {
			return err
		}
		s.cur = w
	}
	w := s.cur
	start := len(w.pending)
	actor := e.ActorKey() // once: the frame header and the index both carry it
	if w.enc != nil {
		pending, err := w.enc.appendEvent(w.pending, e, actor)
		if err != nil {
			return err
		}
		w.pending = pending
	} else {
		// By value: a pointer in Marshal's interface argument would move
		// every caller's event to the heap, binary codec included.
		payload, err := json.Marshal(*e)
		if err != nil {
			return fmt.Errorf("evstore: encode: %w", err)
		}
		if len(payload) > maxFrame {
			return fmt.Errorf("evstore: event of %d bytes exceeds frame limit", len(payload))
		}
		w.pending = binary.LittleEndian.AppendUint32(w.pending, uint32(len(payload)))
		w.pending = binary.LittleEndian.AppendUint32(w.pending, crc32.ChecksumIEEE(payload))
		w.pending = append(w.pending, payload...)
	}
	// frameBytes covers everything this event put on the wire,
	// including any v2 dictionary frames it introduced, keeping the
	// Index.Bytes == valid-file-length invariant.
	w.info.Index.observe(e, actor, int64(len(w.pending)-start), w.actors, s.opts.MaxActors)
	w.unflushed++
	if w.unflushed >= s.opts.FlushEvery {
		if err := s.flushCur(); err != nil {
			return err
		}
	}
	if w.info.Index.Bytes >= s.opts.SegmentBytes {
		return s.sealCur()
	}
	return nil
}

func (s *Store) openSegment() (*segmentWriter, error) {
	n := s.nextN
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.ev", n))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("evstore: %w", err)
	}
	magic := segMagic
	var enc *binEncoder
	if s.opts.Codec == CodecBinary {
		magic = segMagicV2
		enc = newBinEncoder()
	}
	if _, err := f.Write([]byte(magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("evstore: %w", err)
	}
	s.nextN++
	return &segmentWriter{
		f:   f,
		enc: enc,
		info: SegmentInfo{N: n, Path: path, Index: Index{
			Version: IndexVersion, Bytes: int64(len(magic)),
			Codec: string(s.opts.Codec),
		}},
		actors: map[string]struct{}{},
	}, nil
}

// flushCur writes buffered frames through to the file. Batched
// appends mean one syscall per FlushEvery events, not per event.
func (s *Store) flushCur() error {
	w := s.cur
	if w == nil || len(w.pending) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.pending); err != nil {
		return fmt.Errorf("evstore: %w", err)
	}
	w.pending = w.pending[:0]
	w.unflushed = 0
	return nil
}

// sealCur flushes the active segment, writes its sidecar, and retires
// it to the readable set.
func (s *Store) sealCur() error {
	w := s.cur
	if w == nil {
		return nil
	}
	if err := s.flushCur(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("evstore: %w", err)
	}
	w.info.Index.seal(w.actors)
	if err := writeIndex(indexPath(w.info.Path), w.info.Index); err != nil {
		return err
	}
	s.sealed = append(s.sealed, w.info)
	s.cur = nil
	return nil
}

// Sync flushes buffered frames to the OS without sealing.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if err := s.flushCur(); err != nil {
		s.err = err
	}
	return s.err
}

// Close seals the active segment (if any) and returns the sticky
// error. The store stays usable for reads; a later Append starts a
// fresh segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.sealCur(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Compact enforces retention: it deletes the oldest sealed segments
// (data and sidecar) so that at most keep remain, and returns how
// many were removed. The active segment is untouched. keep < 0 is an
// error; keep == 0 drops all sealed history. Removal is oldest-first
// and each segment's sidecar goes before its data, so a crash
// mid-compaction leaves at worst an orphan data file that the next
// Open re-indexes — never an index without data.
func (s *Store) Compact(keep int) (int, error) {
	if keep < 0 {
		return 0, fmt.Errorf("evstore: negative retention %d", keep)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readOnly {
		return 0, fmt.Errorf("evstore: store opened read-only")
	}
	drop := len(s.sealed) - keep
	if drop <= 0 {
		return 0, nil
	}
	for i := 0; i < drop; i++ {
		seg := s.sealed[i]
		if err := os.Remove(indexPath(seg.Path)); err != nil && !os.IsNotExist(err) {
			s.sealed = s.sealed[i:]
			return i, fmt.Errorf("evstore: %w", err)
		}
		if err := os.Remove(seg.Path); err != nil {
			s.sealed = s.sealed[i:]
			return i, fmt.Errorf("evstore: %w", err)
		}
	}
	s.sealed = append([]SegmentInfo(nil), s.sealed[drop:]...)
	return drop, nil
}

func indexPath(segPath string) string {
	return segPath[:len(segPath)-len(".ev")] + ".idx"
}

func loadIndex(path string) (Index, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Index{}, false
	}
	var ix Index
	if err := json.Unmarshal(data, &ix); err != nil || ix.Version != IndexVersion {
		return Index{}, false
	}
	return ix, true
}

func writeIndex(path string, ix Index) error {
	data, err := json.Marshal(ix)
	if err != nil {
		return fmt.Errorf("evstore: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("evstore: %w", err)
	}
	return nil
}
