package evstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// mkEvent builds a deterministic test event; seq doubles as payload
// variation so frames differ.
func mkEvent(seq uint64, kind trace.Kind, user string, t time.Time) trace.Event {
	return trace.Event{
		Seq: seq, Time: t, Kind: kind, User: user,
		Op: "write", Target: fmt.Sprintf("notebooks/n%d.ipynb", seq), Bytes: int64(seq),
	}
}

func fillStore(t *testing.T, dir string, opts Options, n int) []trace.Event {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	var events []trace.Event
	for i := 0; i < n; i++ {
		e := mkEvent(uint64(i+1), trace.KindFileOp, fmt.Sprintf("user%d", i%7), base.Add(time.Duration(i)*time.Second))
		events = append(events, e)
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return events
}

func readAll(t *testing.T, dir string) []trace.Event {
	t.Helper()
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []trace.Event
	if _, err := s.Scan(Filter{}, func(e trace.Event) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force many rotations.
	want := fillStore(t, dir, Options{SegmentBytes: 2048, FlushEvery: 3}, 500)
	got := readAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("read %d events, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].User != want[i].User || !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("event %d diverged: got %+v want %+v", i, got[i], want[i])
		}
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) < 4 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	total := 0
	var lastMax uint64
	for _, seg := range segs {
		ix := seg.Index
		total += ix.Events
		if ix.Events == 0 {
			t.Fatalf("segment %s indexed empty", seg.Path)
		}
		if ix.MinSeq <= lastMax && lastMax != 0 {
			t.Fatalf("segment %s seq range [%d,%d] overlaps previous max %d", seg.Path, ix.MinSeq, ix.MaxSeq, lastMax)
		}
		lastMax = ix.MaxSeq
		if ix.Kinds[trace.KindFileOp] != ix.Events {
			t.Fatalf("segment %s kind histogram %v != events %d", seg.Path, ix.Kinds, ix.Events)
		}
		if ix.ActorsOverflow || len(ix.Actors) == 0 {
			t.Fatalf("segment %s actor index unexpectedly %+v", seg.Path, ix)
		}
	}
	if total != len(want) {
		t.Fatalf("indexes count %d events, wrote %d", total, len(want))
	}
}

func TestReopenAppendsFreshSegment(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Options{}, 10)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		if err := s.Append(mkEvent(uint64(i+1), trace.KindExec, "late", time.Date(2026, 6, 2, 0, 0, 0, 0, time.UTC))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, dir)
	if len(got) != 20 {
		t.Fatalf("read %d events, want 20", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("order broken at %d: seq %d", i, e.Seq)
		}
	}
}

func TestCorruptTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Options{}, 50)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	last := segs[len(segs)-1]

	// Simulate a crash mid-append: garbage after the last frame and no
	// sidecar (the sidecar is only written at seal time).
	if err := os.Remove(indexPath(last.Path)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(last.Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("\x99\x99\x99\x99 torn half-frame from a dead writer")
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := re.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %v, want one tail loss", rec)
	}
	if rec[0].LostBytes != int64(len(garbage)) {
		t.Fatalf("lost %d bytes, want %d (%s)", rec[0].LostBytes, len(garbage), rec[0].Reason)
	}
	st, err := os.Stat(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != last.Index.Bytes {
		t.Fatalf("file not truncated back to %d bytes (got %d)", last.Index.Bytes, st.Size())
	}
	if got := readAll(t, dir); len(got) != 50 {
		t.Fatalf("read %d events after recovery, want all 50", len(got))
	}
}

func TestTruncatedFrameRecovery(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Options{}, 30)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	last := segs[len(segs)-1]
	if err := os.Remove(indexPath(last.Path)); err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-frame: the last event must be dropped cleanly.
	if err := os.Truncate(last.Path, last.Index.Bytes-5); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec := re.Recovered(); len(rec) != 1 {
		t.Fatalf("recovered %v, want one entry", rec)
	}
	got := readAll(t, dir)
	if len(got) != 29 {
		t.Fatalf("read %d events, want 29 (one torn frame dropped)", len(got))
	}
}

func TestCompactRetention(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Options{SegmentBytes: 2048}, 300)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments for the test, got %d", len(segs))
	}
	keep := 2
	kept := segs[len(segs)-keep:]
	wantEvents := 0
	for _, seg := range kept {
		wantEvents += seg.Index.Events
	}

	removed, err := s.Compact(keep)
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(segs)-keep {
		t.Fatalf("removed %d segments, want %d", removed, len(segs)-keep)
	}
	if got := s.Events(); got != wantEvents {
		t.Fatalf("events after compact = %d, want %d", got, wantEvents)
	}
	for _, seg := range segs[:removed] {
		if _, err := os.Stat(seg.Path); !os.IsNotExist(err) {
			t.Fatalf("compacted segment %s still on disk", seg.Path)
		}
		if _, err := os.Stat(indexPath(seg.Path)); !os.IsNotExist(err) {
			t.Fatalf("compacted sidecar for %s still on disk", seg.Path)
		}
	}
	// Survivors replay intact, oldest-first.
	got := readAll(t, dir)
	if len(got) != wantEvents {
		t.Fatalf("replay after compact read %d events, want %d", len(got), wantEvents)
	}
	if got[0].Seq != kept[0].Index.MinSeq {
		t.Fatalf("replay starts at seq %d, want %d", got[0].Seq, kept[0].Index.MinSeq)
	}
	if _, err := s.Compact(-1); err == nil {
		t.Fatal("negative retention accepted")
	}
}

func TestEmitStickyError(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Yank the directory out from under the writer: the next append
	// cannot create a segment and must surface through Err, not panic.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.Emit(mkEvent(1, trace.KindExec, "u", time.Now()))
	if s.Err() == nil {
		t.Fatal("append into removed directory reported no error")
	}
	s.Emit(mkEvent(2, trace.KindExec, "u", time.Now()))
	if s.Err() == nil {
		t.Fatal("sticky error cleared")
	}
}

func TestConcurrentEmit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 250
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Emit(mkEvent(uint64(g*per+i+1), trace.KindExec, fmt.Sprintf("g%d", g),
					time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC)))
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(readAll(t, dir)); got != goroutines*per {
		t.Fatalf("read %d events, want %d", got, goroutines*per)
	}
}

// TestOpenReadNeverMutates pins the reader/writer split: a read-only
// open of a store with a torn, unsealed tail must report the loss but
// leave the file and the missing sidecar exactly as found — a reader
// that truncated or wrote a sidecar for a live writer's active
// segment would freeze a stale index and mask the writer's own crash
// recovery.
func TestOpenReadNeverMutates(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Options{}, 40)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	last := s.Segments()[len(s.Segments())-1]
	if err := os.Remove(indexPath(last.Path)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(last.Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("torn-by-a-live-writer")
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	tornSize := last.Index.Bytes + int64(len(garbage))

	ro, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec := ro.Recovered(); len(rec) != 1 || rec[0].LostBytes != int64(len(garbage)) {
		t.Fatalf("read-only open reported %v, want one %d-byte loss", rec, len(garbage))
	}
	if st, _ := os.Stat(last.Path); st.Size() != tornSize {
		t.Fatalf("read-only open truncated the segment to %d bytes", st.Size())
	}
	if _, err := os.Stat(indexPath(last.Path)); !os.IsNotExist(err) {
		t.Fatal("read-only open wrote a sidecar for the unsealed segment")
	}
	var n int
	if _, err := ro.Scan(Filter{}, func(trace.Event) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("read %d events, want 40", n)
	}
	if err := ro.Append(mkEvent(99, trace.KindExec, "u", time.Now())); err == nil {
		t.Fatal("append on read-only store accepted")
	}
	if _, err := ro.Compact(1); err == nil {
		t.Fatal("compact on read-only store accepted")
	}

	// A writer's Open afterwards performs the real recovery.
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Recovered()) != 1 {
		t.Fatalf("writer open recovered %v", w.Recovered())
	}
	if st, _ := os.Stat(last.Path); st.Size() != last.Index.Bytes {
		t.Fatalf("writer open left the torn tail (size %d)", st.Size())
	}

	// OpenRead also refuses a nonexistent path rather than creating it.
	missing := filepath.Join(t.TempDir(), "nope")
	if _, err := OpenRead(missing); err == nil {
		t.Fatal("OpenRead accepted a missing directory")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("OpenRead created the directory")
	}
}

// TestOpenSinkDispatch pins the CLI path convention: .jsonl paths
// truncate into flat JSONL; anything else appends to a store and
// reports what was already there.
func TestOpenSinkDispatch(t *testing.T) {
	dir := t.TempDir()

	jsonlPath := filepath.Join(dir, "events.jsonl")
	h, err := OpenSink(jsonlPath, SinkFresh, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	h.Emit(mkEvent(1, trace.KindExec, "u", time.Now()))
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid([]byte(strings.TrimSpace(string(data)))) {
		t.Fatalf("jsonl sink wrote non-JSON: %q", data)
	}

	storePath := filepath.Join(dir, "store")
	h, err = OpenSink(storePath, SinkFresh, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if h.ExistingEvents != 0 {
		t.Fatalf("fresh store reports %d existing events", h.ExistingEvents)
	}
	for i := 0; i < 5; i++ {
		h.Emit(mkEvent(uint64(i+1), trace.KindExec, "u", time.Now()))
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSink(storePath, SinkFresh, CodecBinary); err == nil {
		t.Fatal("SinkFresh open of a non-empty store accepted")
	}
	h, err = OpenSink(storePath, SinkAppend, "")
	if err != nil {
		t.Fatal(err)
	}
	if h.ExistingEvents != 5 {
		t.Fatalf("append-mode open reports %d existing events, want 5", h.ExistingEvents)
	}
	h.Emit(mkEvent(6, trace.KindExec, "u", time.Now()))
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(readAll(t, storePath)); got != 6 {
		t.Fatalf("append mode holds %d events, want 6", got)
	}
	if _, err := OpenSink(storePath, SinkAppend, "json"); err == nil {
		t.Fatal("a json codec was accepted for new segments")
	}

	// Append mode continues a v1 store in v2 segments.
	v1Path := copyV1Store(t)
	h, err = OpenSink(v1Path, SinkAppend, "")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v1Events()); h.ExistingEvents != n {
		t.Fatalf("append-mode open of the v1 store reports %d existing events, want %d", h.ExistingEvents, n)
	}
	h.Emit(mkEvent(1000, trace.KindExec, "u", time.Now()))
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	vs, err := OpenRead(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if st := vs.Stats(); st.Events != len(v1Events())+1 || st.Codecs["binary"] != 1 {
		t.Fatalf("continued v1 store stats %+v, want one more event in one binary segment", st)
	}

	// Replace mode drops the old recording — the store analogue of
	// os.Create truncation, used by resumed sweeps that re-emit the
	// complete stream.
	h, err = OpenSink(storePath, SinkReplace, CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	if h.ExistingEvents != 0 {
		t.Fatalf("replace-mode open reports %d existing events, want 0", h.ExistingEvents)
	}
	h.Emit(mkEvent(1, trace.KindAuth, "", time.Now()))
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(readAll(t, storePath)); got != 1 {
		t.Fatalf("replace mode holds %d events, want 1", got)
	}
}
