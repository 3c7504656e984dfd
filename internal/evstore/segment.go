package evstore

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/seglog"
	"repro/internal/trace"
)

// Segment files are internal/seglog's: the magic EVSEG002 followed by
// length+CRC32C framed payloads. Payloads are typed. A dictionary frame
// (type 0x01) defines the next sequential string-interning reference
// for the segment; an event frame (type 0x02) carries the event's kind
// and actor key as dictionary-or-inline strings, then the compact
// tagged binary body (trace.AppendBinaryEvent). Dictionary entries
// always precede their first use, so any valid frame prefix is
// self-contained and truncation recovery can cut at any frame. The
// kind+actor header lets a filtered replay skip the body decode
// entirely for non-matching events.
//
// A payload that fails the decode — including an event whose own actor
// key is not the one its header names — marks the end of the valid
// prefix just as a bad length or checksum does: readers stop there and
// report the remainder as tail loss.
const (
	segMagicV2 = "EVSEG002"
	// maxFrame bounds a frame payload, matching trace.Decoder's line
	// bound; a larger length prefix is corruption, not a big event.
	maxFrame = 16 << 20

	// Frame payload types.
	frameDict  = 0x01
	frameEvent = 0x02

	// Interning policy: strings longer than this, or arriving after
	// the dictionary is full, are inlined instead. The cap bounds the
	// decoder's per-segment dictionary memory independently of
	// SegmentBytes.
	maxInternLen = 128
	maxDictRefs  = 1 << 16
)

// format is the store's file family: seg-%08d.ev data files with .idx
// sidecars. The read window is sized for replay, which streams whole
// multi-megabyte segments.
var format = seglog.Format{
	Name: "evstore", Noun: "store",
	Prefix: "seg-", DataExt: ".ev", IndexExt: ".idx",
	Magic:    segMagicV2,
	MaxFrame: maxFrame,
	ReadBuf:  256 << 10,
}

// Codec names a segment payload encoding. OpenSink accepts it only to
// keep its callers' signature: there is one encoding.
type Codec string

// CodecBinary names the one segment encoding: compact tagged binary
// events with a per-segment interning dictionary.
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

// appendEvent appends the frames encoding e, whose actor key is
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
		dst = seglog.AppendFrame(dst, append([]byte{frameDict}, s...))
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
	return seglog.AppendFrame(dst, enc.scratch), nil
}

// DecodeResult reports what a segment scan found: the frame reader's
// account of the valid prefix and any trailing corruption (ValidBytes,
// TailLossBytes, Truncated, Reason), plus what the payloads were.
type DecodeResult struct {
	seglog.ScanResult
	Events int
	// Skipped counts event frames whose checksum was verified but whose
	// body was never decoded, because the push-down filter ruled them
	// out from the frame header alone.
	Skipped int
}

// DecodeFrames scans a segment byte stream, invoking fn for every
// valid event in order. Corruption — bad magic, an absurd length, a
// checksum or decode failure, an event whose actor key is not its
// header's, a short final frame — never returns an error: the scan stops at the first bad frame and
// the result records the clean prefix and the reason. A non-nil error
// from fn aborts the scan and is returned as-is. size is the total
// stream length if known (for tail-loss accounting), or -1.
func DecodeFrames(r io.Reader, size int64, fn func(trace.Event) error) (DecodeResult, error) {
	return decodeFrames(r, size, nil, nil, nil, func(e *trace.Event) error { return fn(*e) })
}

// decodeScratch is the reusable per-segment decode state: the frame
// reader's window, the dictionary slice with the filter's verdict on
// each entry, and — when Replay owns the lifecycle — a string arena.
// Reusing one scratch across the segments of a pass keeps a full-store
// replay at O(segments) allocations; a nil scratch means "allocate
// fresh", which is what the one-shot DecodeFrames path uses.
//
// arena is deliberately opt-in: with it set, every decoded event's
// inline strings (and the segment dictionary's entries) live in arena
// chunks instead of individual heap allocations. The arena is
// append-only (see trace.Arena), so decoded strings stay valid even
// after the scratch is recycled for the next segment — recycling
// reuses the *containers* (buffers, slices), never string bytes.
type decodeScratch struct {
	frames   seglog.Scratch
	dict     []string
	verdicts []verdict // verdicts[i] is the push-down filter's on dict[i]
	arena    *trace.Arena
}

// lookup resolves a reference to the dictionary of the segment being
// decoded.
func (sc *decodeScratch) lookup(ref uint64) (string, bool) {
	if ref >= uint64(len(sc.dict)) {
		return "", false
	}
	return sc.dict[ref], true
}

// str builds a header string from what trace.PeekBinaryString found,
// its reference already checked against the dictionary.
func (sc *decodeScratch) str(v uint64, inline []byte) string {
	switch {
	case v > 0:
		return sc.dict[v-1]
	case sc.arena != nil:
		return sc.arena.String(inline)
	}
	return string(inline)
}

// passes reports whether a header string, as trace.PeekBinaryString
// found it, passes facet of push: by the verdict taken on its
// dictionary entry, or on the inline bytes themselves.
func (sc *decodeScratch) passes(push *Filter, v uint64, inline []byte, facet verdict) bool {
	if v > 0 {
		return sc.verdicts[v-1]&facet != 0
	}
	return push.judge(inline)&facet != 0
}

// decodeFrames is DecodeFrames plus header push-down, scratch reuse and
// a caller-chosen destination. push, when non-nil, is a filter with a
// kind or actor facet (see Filter.pushDown): an event frame whose
// header kind or actor fails it is dropped after the checksum verifies
// and its header parses, before the body decodes or either header
// string is built. The verdict on a dictionary string is taken once,
// when its entry is read; an inline one is compared where it lies in
// the payload. sc may be nil.
//
// take lends the zero event the next frame decodes into, given the
// frame header's actor key, which is the actor key of every event fn
// gets; this is how Replay decodes each event straight into the slot of
// the worker that delivers it. A slot whose payload is not an event of
// that actor is cleared here; fn gets every other one and clears it if
// it does not keep it, so whatever take hands out is zero. A nil take decodes every frame into one
// scratch event, zeroed first, which fn borrows for the call.
func decodeFrames(r io.Reader, size int64, push *Filter, sc *decodeScratch, take func(actor string) *trace.Event, fn func(*trace.Event) error) (DecodeResult, error) {
	var res DecodeResult
	if sc == nil {
		sc = &decodeScratch{}
	}
	if take == nil {
		scratch := new(trace.Event)
		take = func(string) *trace.Event {
			*scratch = trace.Event{}
			return scratch
		}
	}
	lookup := sc.lookup
	// Decoded events copy whatever they keep (into sc.arena when set),
	// so the payload never outlives the callback and the hot replay path
	// stays allocation-free per event.
	var err error
	res.ScanResult, err = format.ReadFrames(r, size, &sc.frames, func(payload []byte) (string, error) {
		if payload[0] == frameDict {
			// Materialized exactly once per segment; every event that
			// cites the entry shares this string by reference. With an
			// arena the copy out of the read window lands in a chunk
			// instead of its own allocation.
			if push != nil {
				sc.verdicts = append(sc.verdicts, push.judge(payload[1:]))
			}
			sc.dict = append(sc.dict, sc.str(0, payload[1:]))
			return "", nil
		}
		if payload[0] != frameEvent {
			return "unknown frame type", nil
		}
		kv, kin, n1, err := trace.PeekBinaryString(payload[1:])
		if err != nil || kv > uint64(len(sc.dict)) {
			return "frame not an event", nil
		}
		av, ain, n2, err := trace.PeekBinaryString(payload[1+n1:])
		if err != nil || av > uint64(len(sc.dict)) {
			return "frame not an event", nil
		}
		if push != nil && !(sc.passes(push, kv, kin, kindPasses) && sc.passes(push, av, ain, actorPasses)) {
			res.Skipped++
			return "", nil
		}
		kind, actor := trace.Kind(sc.str(kv, kin)), sc.str(av, ain)
		e := take(actor)
		if e.DecodeBinary(payload[1+n1+n2:], kind, lookup, sc.arena) != nil {
			*e = trace.Event{}
			return "frame not an event", nil
		}
		// The header is what push-down and Replay's sharding trust; a
		// body that names another actor makes both wrong.
		if e.ActorKey() != actor {
			*e = trace.Event{}
			return "event actor not its header's", nil
		}
		res.Events++
		return "", fn(e)
	})
	// Hand grown capacity back so the next segment reuses it, emptied: a
	// scratch at rest must not pin the arena chunks of its last segment.
	clear(sc.dict)
	sc.dict, sc.verdicts = sc.dict[:0], sc.verdicts[:0]
	return res, err
}

// scanSegment is decodeFrames over a segment file on disk — the replay
// paths thread one scratch (and its arena) across all the segments
// they visit.
func scanSegment(path string, push *Filter, sc *decodeScratch, take func(actor string) *trace.Event, fn func(*trace.Event) error) (DecodeResult, error) {
	f, size, err := seglog.OpenData(path)
	if err != nil {
		return DecodeResult{}, err
	}
	defer f.Close()
	return decodeFrames(f, size, push, sc, take, fn)
}

// rebuild reconstructs a sidecar by scanning the segment data — the
// recovery path for a segment whose writer died before sealing.
func (o Options) rebuild(path string) (Index, seglog.ScanResult, error) {
	ix := Index{Version: IndexVersion}
	actors := map[string]struct{}{}
	res, err := scanSegment(path, nil, nil, nil, func(e *trace.Event) error {
		// Bytes is re-derived from the valid prefix below.
		ix.observe(e, e.ActorKey(), 0, actors, o.MaxActors)
		return nil
	})
	if err != nil {
		return Index{}, res.ScanResult, err
	}
	ix.seal(actors)
	ix.Bytes = res.ValidBytes
	return ix, res.ScanResult, nil
}
