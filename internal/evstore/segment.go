package evstore

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"repro/internal/seglog"
	"repro/internal/trace"
)

// Segment files are internal/seglog's: an 8-byte magic followed by
// length+CRC32 framed payloads. Two segment versions share that framing
// and differ in what the payload is:
//
//   - EVSEG001 (v1, codec "json"): every payload is one JSON-encoded
//     trace.Event, checksummed with CRC32-IEEE.
//   - EVSEG002 (v2, codec "binary"): payloads are typed, checksummed
//     with hardware-accelerated CRC32-Castagnoli. A dictionary frame
//     (type 0x01) defines the next sequential string-interning
//     reference for the segment; an event frame (type 0x02) carries
//     the event's kind and actor key as dictionary-or-inline strings,
//     then the compact tagged binary body (trace.AppendBinaryEvent).
//     Dictionary entries always precede their first use, so any valid
//     frame prefix is self-contained — truncation recovery works
//     exactly as in v1. The kind+actor header lets a filtered replay
//     skip the body decode entirely for non-matching events.
//
// Stores write v2 only; v1 segments are read, never written.
//
// A payload that fails the decode marks the end of the valid prefix
// just as a bad length or checksum does: readers stop there and report
// the remainder as tail loss.
const (
	segMagic   = "EVSEG001"
	segMagicV2 = "EVSEG002"
	// maxFrame bounds a frame payload, matching trace.Decoder's line
	// bound; a larger length prefix is corruption, not a big event.
	maxFrame = 16 << 20

	// v2 frame payload types.
	frameDict  = 0x01
	frameEvent = 0x02

	// Interning policy: strings longer than this, or arriving after
	// the dictionary is full, are inlined instead. The cap bounds the
	// decoder's per-segment dictionary memory independently of
	// SegmentBytes.
	maxInternLen = 128
	maxDictRefs  = 1 << 16
)

// castagnoli is the CRC32-Castagnoli table v2 frames use; amd64 and
// arm64 compute it with the dedicated CRC32 instructions. v1 keeps
// IEEE for compatibility with every segment already on disk.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Positions in format.Magics, and the codec each announces.
const (
	magicJSON = iota
	magicBinary
)

var codecs = [...]Codec{magicJSON: "json", magicBinary: CodecBinary}

// format is the store's file family: seg-%08d.ev data files with .idx
// sidecars. The read buffer is sized for replay, which streams whole
// multi-megabyte segments.
var format = seglog.Format{
	Name: "evstore", Noun: "store",
	Prefix: "seg-", DataExt: ".ev", IndexExt: ".idx",
	Magics:   []seglog.Magic{magicJSON: {Text: segMagic, Table: crc32.IEEETable}, magicBinary: {Text: segMagicV2, Table: castagnoli}},
	MaxFrame: maxFrame,
	ReadBuf:  256 << 10,
}

// Codec names a segment payload encoding, as a segment's magic
// announces it: "json" (v1) or "binary" (v2).
type Codec string

// CodecBinary names v2 segments: compact tagged binary events with a
// per-segment interning dictionary. Every segment a store writes is
// v2; v1 segments are only ever read.
const CodecBinary Codec = "binary"

// IndexVersion is the sidecar schema version this build writes.
// Unknown versions are rebuilt from the segment data, never trusted.
const IndexVersion = 1

// Index is the per-segment sidecar: enough metadata to decide, without
// touching the segment data, whether a filtered replay can skip the
// segment entirely. Invariants: it is written only after the segment's
// frames are flushed (so a present sidecar describes a cleanly sealed
// segment), counts cover exactly the valid frame prefix, and the actor
// list is either exact or marked overflowed (never silently partial).
type Index struct {
	Version int   `json:"version"`
	Events  int   `json:"events"`
	Bytes   int64 `json:"bytes"` // valid file length including magic

	// Codec records the segment's payload encoding ("json" for v1,
	// "binary" for v2) — diagnostic only; readers trust the magic.
	Codec string `json:"codec,omitempty"`

	// Sequence range: not a replay-filter facet (Filter has no seq
	// bounds), but the cheap cross-segment ordering witness — tests
	// and diagnostics verify segments don't overlap, and Compact's
	// survivors can be sanity-checked against the dropped range.
	MinSeq  uint64    `json:"min_seq"`
	MaxSeq  uint64    `json:"max_seq"`
	MinTime time.Time `json:"min_time"`
	MaxTime time.Time `json:"max_time"`

	// Kinds counts events per kind; a filtered replay skips the
	// segment when no requested kind appears.
	Kinds map[trace.Kind]int `json:"kinds,omitempty"`

	// Actors lists the distinct actor keys (trace.ActorKey) seen, up
	// to the store's MaxActors cap; past the cap ActorsOverflow is set
	// and the list cleared, meaning "could contain anyone".
	Actors         []string `json:"actors,omitempty"`
	ActorsOverflow bool     `json:"actors_overflow,omitempty"`
}

// Trusted implements seglog.Index: a sidecar of another schema version
// is rebuilt from the segment data, never trusted.
func (ix Index) Trusted() bool { return ix.Version == IndexVersion }

// observe folds one event, with its actor key, into the index.
func (ix *Index) observe(e *trace.Event, actor string, frameBytes int64, actors map[string]struct{}, maxActors int) {
	if ix.Events == 0 || e.Seq < ix.MinSeq {
		ix.MinSeq = e.Seq
	}
	if e.Seq > ix.MaxSeq {
		ix.MaxSeq = e.Seq
	}
	if !e.Time.IsZero() {
		if ix.MinTime.IsZero() || e.Time.Before(ix.MinTime) {
			ix.MinTime = e.Time
		}
		if e.Time.After(ix.MaxTime) {
			ix.MaxTime = e.Time
		}
	}
	if ix.Kinds == nil {
		ix.Kinds = map[trace.Kind]int{}
	}
	ix.Kinds[e.Kind]++
	ix.Events++
	ix.Bytes += frameBytes
	if !ix.ActorsOverflow {
		actors[actor] = struct{}{}
		if len(actors) > maxActors {
			ix.ActorsOverflow = true
			for k := range actors {
				delete(actors, k)
			}
		}
	}
}

// seal finalizes the actor list for writing.
func (ix *Index) seal(actors map[string]struct{}) {
	if ix.ActorsOverflow {
		ix.Actors = nil
		return
	}
	ix.Actors = make([]string, 0, len(actors))
	for a := range actors {
		ix.Actors = append(ix.Actors, a)
	}
	sort.Strings(ix.Actors)
}

// binEncoder is the per-segment binary-codec write state: the
// string-interning dictionary and a reused scratch buffer, so the hot
// append path allocates only for genuinely new dictionary entries.
type binEncoder struct {
	dict    map[string]uint64
	scratch []byte
}

func newBinEncoder() *binEncoder {
	return &binEncoder{dict: make(map[string]uint64)}
}

// appendEvent appends the v2 frames encoding e, whose actor key is
// actor — any new dictionary entries first, then the event frame — to
// dst and returns the extended slice. Dictionary entries therefore
// always precede their first reference, keeping every valid frame
// prefix self-contained.
func (enc *binEncoder) appendEvent(dst []byte, e *trace.Event, actor string) ([]byte, error) {
	dictStart := uint64(len(enc.dict))
	intern := func(s string) (uint64, bool) {
		if ref, ok := enc.dict[s]; ok {
			return ref, true
		}
		if len(s) == 0 || len(s) > maxInternLen || uint64(len(enc.dict)) >= maxDictRefs {
			return 0, false
		}
		ref := uint64(len(enc.dict))
		enc.dict[s] = ref
		dst = seglog.AppendFrame(dst, append([]byte{frameDict}, s...), castagnoli)
		return ref, true
	}
	enc.scratch = enc.scratch[:0]
	enc.scratch = append(enc.scratch, frameEvent)
	enc.scratch = trace.AppendBinaryString(enc.scratch, string(e.Kind), intern)
	enc.scratch = trace.AppendBinaryString(enc.scratch, actor, intern)
	enc.scratch = e.AppendBinary(enc.scratch, intern)
	if len(enc.scratch) > maxFrame {
		// The caller discards the returned slice growth on error, so any
		// dictionary frames staged for this event never reach disk; drop
		// their map entries too or later events would reference ids the
		// reader has never seen.
		for s, ref := range enc.dict {
			if ref >= dictStart {
				delete(enc.dict, s)
			}
		}
		return dst, fmt.Errorf("evstore: event of %d bytes exceeds frame limit", len(enc.scratch))
	}
	return seglog.AppendFrame(dst, enc.scratch, castagnoli), nil
}

// DecodeResult reports what a segment scan found: the frame reader's
// account of the valid prefix and any trailing corruption (ValidBytes,
// TailLossBytes, Truncated, Reason), plus what the payloads were.
type DecodeResult struct {
	seglog.ScanResult
	Events int
	// Skipped counts v2 event frames whose checksum was verified but
	// whose body was never decoded, because the push-down predicate
	// ruled them out from the frame header alone.
	Skipped int
	// Codec is the segment encoding the magic announced ("json" or
	// "binary"), or "" when even the magic was unreadable.
	Codec Codec
}

// DecodeFrames scans a segment byte stream of either version,
// invoking fn for every valid event in order. Corruption — bad magic,
// an absurd length, a checksum or decode failure, a short final frame
// — never returns an error: the scan stops at the first bad frame and
// the result records the clean prefix and the reason. A non-nil error
// from fn aborts the scan and is returned as-is. size is the total
// stream length if known (for tail-loss accounting), or -1.
func DecodeFrames(r io.Reader, size int64, fn func(trace.Event) error) (DecodeResult, error) {
	return decodeFrames(r, size, nil, nil, func(e *trace.Event) error { return fn(*e) })
}

// decodeScratch is the reusable per-segment decode state: the frame
// reader's buffers, the dictionary slice, and — when Replay owns the
// lifecycle — a string arena. Reusing one scratch across the segments
// of a pass keeps a full-store replay at O(segments) allocations; a
// nil scratch means "allocate fresh", which is what the one-shot
// DecodeFrames path uses.
//
// arena is deliberately opt-in: with it set, every decoded event's
// inline strings (and the segment dictionary's entries) live in arena
// chunks instead of individual heap allocations. The arena is
// append-only (see trace.Arena), so decoded strings stay valid even
// after the scratch is recycled for the next segment — recycling
// reuses the *containers* (buffers, slices), never string bytes.
type decodeScratch struct {
	frames seglog.Scratch
	dict   []string
	arena  *trace.Arena
}

// decodeFrames is DecodeFrames plus the v2 push-down hook and scratch
// reuse: when skip is non-nil it is consulted with each event frame's
// header kind and actor key, after the checksum verifies but before
// the body decodes; returning true drops the frame without decoding
// it. v1 segments have no header to push into, so skip is ignored
// there and per-event filtering stays with the caller. sc may be nil.
// fn borrows the event: the next frame decodes over it.
func decodeFrames(r io.Reader, size int64, skip func(kind trace.Kind, actor string) bool, sc *decodeScratch, fn func(*trace.Event) error) (DecodeResult, error) {
	var res DecodeResult
	if sc == nil {
		sc = &decodeScratch{}
	}
	dict := sc.dict[:0]
	lookup := func(ref uint64) (string, bool) {
		if ref >= uint64(len(dict)) {
			return "", false
		}
		return dict[ref], true
	}
	// Decoded events copy whatever they keep (into sc.arena when set),
	// so the payload never outlives the callback and the hot replay path
	// stays allocation-free per event. The event is hoisted too: &e
	// escapes into json.Unmarshal, so a per-frame declaration would
	// heap-allocate every event.
	var e trace.Event
	var err error
	res.ScanResult, err = format.ReadFrames(r, size, &sc.frames, func(magic int, payload []byte) (string, error) {
		e = trace.Event{}
		if magic == magicJSON {
			if json.Unmarshal(payload, &e) != nil {
				return "frame not an event", nil
			}
		} else {
			switch payload[0] {
			case frameDict:
				// Materialized exactly once per segment; every event that
				// cites the entry shares this string by reference. With an
				// arena the copy out of the reused payload buffer lands in
				// a chunk instead of its own allocation.
				if sc.arena != nil {
					dict = append(dict, sc.arena.String(payload[1:]))
				} else {
					dict = append(dict, string(payload[1:]))
				}
				return "", nil
			case frameEvent:
				kind, n1, err := trace.DecodeBinaryStringArena(payload[1:], lookup, sc.arena)
				if err != nil {
					return "frame not an event", nil
				}
				actor, n2, err := trace.DecodeBinaryStringArena(payload[1+n1:], lookup, sc.arena)
				if err != nil {
					return "frame not an event", nil
				}
				if skip != nil && skip(trace.Kind(kind), actor) {
					res.Skipped++
					return "", nil
				}
				e, err = trace.DecodeBinaryEventArena(payload[1+n1+n2:], trace.Kind(kind), lookup, sc.arena)
				if err != nil {
					return "frame not an event", nil
				}
			default:
				return "unknown frame type", nil
			}
		}
		res.Events++
		return "", fn(&e)
	})
	// Hand grown capacity back so the next segment reuses it, emptied: a
	// scratch at rest must not pin the arena chunks of its last segment.
	clear(dict)
	sc.dict = dict[:0]
	if res.Magic >= 0 {
		res.Codec = codecs[res.Magic]
	}
	return res, err
}

// scanSegment decodes a segment file from disk, with an optional v2
// push-down predicate and reusable decode scratch — the replay paths
// thread one scratch (and its arena) across all the segments they
// visit.
func scanSegment(path string, skip func(kind trace.Kind, actor string) bool, sc *decodeScratch, fn func(*trace.Event) error) (DecodeResult, error) {
	f, size, err := seglog.OpenData(path)
	if err != nil {
		return DecodeResult{}, err
	}
	defer f.Close()
	return decodeFrames(f, size, skip, sc, fn)
}

// rebuild reconstructs a sidecar by scanning the segment data — the
// recovery path for a segment whose writer died before sealing.
func (o Options) rebuild(path string) (Index, seglog.ScanResult, error) {
	ix := Index{Version: IndexVersion}
	actors := map[string]struct{}{}
	res, err := scanSegment(path, nil, nil, func(e *trace.Event) error {
		// Bytes is re-derived from the valid prefix below.
		ix.observe(e, e.ActorKey(), 0, actors, o.MaxActors)
		return nil
	})
	if err != nil {
		return Index{}, res.ScanResult, err
	}
	ix.seal(actors)
	ix.Bytes = res.ValidBytes
	ix.Codec = string(res.Codec)
	return ix, res.ScanResult, nil
}
