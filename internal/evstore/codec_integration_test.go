package evstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// v1Store is a store of v1 (JSON) segments written by the last build
// that could still write them, so v1 reading is tested on real bytes:
// workload.StandardMix(11, 100).Events (226 events) appended in one
// AppendBatch to Open(dir, Options{Codec: CodecJSON, SegmentBytes:
// 2048}) and closed — 19 sealed segments with their sidecars. It is
// read-only input; tests work on a copy (copyV1Store).
const v1Store = "testdata/v1-store"

// v1Events is the stream v1Store holds, in append order.
func v1Events() []trace.Event { return attackTrace(100) }

// copyV1Store copies v1Store into a fresh temp dir and returns it.
func copyV1Store(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range dirFiles(t, v1Store) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeStore appends evs to the store at dir in one batch and closes it.
func writeStore(t *testing.T, dir string, opts Options, evs []trace.Event) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentMagicFollowsCodec pins the on-disk dispatch byte: a store
// writes v2 segments whose sidecars say "binary", and the v1 store's
// segments carry the v1 magic and a "json" sidecar.
func TestSegmentMagicFollowsCodec(t *testing.T) {
	written := t.TempDir()
	fillStore(t, written, Options{}, 3)
	for _, tc := range []struct {
		dir, magic, codec string
	}{
		{written, segMagicV2, string(CodecBinary)},
		{v1Store, segMagic, "json"},
	} {
		s, err := OpenRead(tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range s.Segments() {
			head := make([]byte, len(segMagic))
			f, err := os.Open(seg.Path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Read(head); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if string(head) != tc.magic {
				t.Fatalf("%s has magic %q, want %q", seg.Path, head, tc.magic)
			}
			if seg.Index.Codec != tc.codec {
				t.Fatalf("%s sidecar codec %q, want %q", seg.Path, seg.Index.Codec, tc.codec)
			}
		}
	}
}

// TestJSONCodecRoundTrip keeps the v1 read path honest: the v1 store
// reads back exactly the stream that was written into it, segment by
// segment.
func TestJSONCodecRoundTrip(t *testing.T) {
	dir := copyV1Store(t)
	want := v1Events()
	got := readAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("read %d events, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].User != want[i].User || !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("event %d diverged: got %+v want %+v", i, got[i], want[i])
		}
	}
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments != 19 || st.Codecs["json"] != 19 || st.RecoveredLossBytes != 0 {
		t.Fatalf("v1 store stats %+v, want 19 clean json segments", st)
	}
}

// TestPushDownSkipsBodyDecode pins the v2 header filter: a kind or
// actor filter must discard non-matching frames before the body
// decode (Skipped > 0), deliver exactly the events per-event filtering
// of the same stream in v1 segments delivers, and report identical
// frame-level loss accounting whether or not frames were skipped.
func TestPushDownSkipsBodyDecode(t *testing.T) {
	binDir := t.TempDir()
	writeStore(t, binDir, Options{SegmentBytes: 4096, FlushEvery: 16}, readAll(t, v1Store))
	bin, err := OpenRead(binDir)
	if err != nil {
		t.Fatal(err)
	}
	jsn, err := OpenRead(copyV1Store(t))
	if err != nil {
		t.Fatal(err)
	}

	for name, f := range map[string]Filter{
		"kind":       {Kinds: []trace.Kind{trace.KindAuth}},
		"actor":      {Actor: "mallory-ex"},
		"kind+actor": {Kinds: []trace.Kind{trace.KindExec, trace.KindFileOp}, Actor: "mallory-rw"},
	} {
		want := scanFiltered(t, jsn, f)
		if len(want) == 0 {
			t.Fatalf("%s: the v1 store holds no matching event", name)
		}
		var got []trace.Event
		stats, err := bin.Scan(f, func(e trace.Event) error {
			got = append(got, e)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: binary delivered %d events, json %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("%s: event %d is seq %d, want %d", name, i, got[i].Seq, want[i].Seq)
			}
		}
		if stats.Skipped == 0 {
			t.Fatalf("%s: push-down skipped nothing; every frame was body-decoded", name)
		}
		// Every selected segment's frame is either decoded or skipped;
		// push-down must never lose one silently.
		if stats.Decoded+stats.Skipped < stats.Events {
			t.Fatalf("%s: decoded %d + skipped %d < delivered %d", name, stats.Decoded, stats.Skipped, stats.Events)
		}

		// A time-only filter has no header facet to push into.
		tstats, err := bin.Scan(Filter{Until: want[len(want)-1].Time}, func(trace.Event) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if tstats.Skipped != 0 {
			t.Fatalf("time-only filter skipped %d frames; push-down misfired", tstats.Skipped)
		}
	}
}

// TestPushDownLossAccountingFilterIndependent pins that a corrupt
// tail is measured identically with and without push-down: the CRC
// runs on every frame regardless, so a filtered replay warns about
// exactly the same loss as a full one.
func TestPushDownLossAccountingFilterIndependent(t *testing.T) {
	dir := t.TempDir()
	writeMixedOpts(t, dir, Options{SegmentBytes: 4096, FlushEvery: 16}, 200)
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	victim := segs[len(segs)/2]
	f, err := os.OpenFile(victim.Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("XXXXXXXXXXXXXXXX")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	full, err := s.Scan(Filter{}, func(trace.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// An actor filter that selects the victim segment but skips most of
	// its frames. user0 appears in every segment (i%5 cycling).
	filtered, err := s.Scan(Filter{Actor: "user0"}, func(trace.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if full.TailLossBytes != 16 || filtered.TailLossBytes != 16 {
		t.Fatalf("tail loss full=%d filtered=%d, want 16 on both: push-down must not change loss accounting",
			full.TailLossBytes, filtered.TailLossBytes)
	}
	if filtered.Skipped == 0 {
		t.Fatal("actor filter skipped nothing; the independence claim went untested")
	}
}

// TestV2CorruptTailRecovery mirrors the v1 torn-tail tests on binary
// segments: truncating mid-frame loses exactly the torn frame, Open
// truncates it away with exact accounting, and the store accepts
// appends cleanly afterwards.
func TestV2CorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Options{}, 50)
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	seg := s.Segments()[0]
	st, err := os.Stat(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg.Path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	// The sidecar now overstates the segment; remove it so open-time
	// recovery rebuilds from the data, as after a crash mid-seal.
	os.Remove(indexPath(seg.Path))

	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := w.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %d segments, want 1: %+v", len(rec), rec)
	}
	if rec[0].LostBytes <= 0 {
		t.Fatalf("recovery reported %d lost bytes", rec[0].LostBytes)
	}
	after, err := os.Stat(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != st.Size()-5-rec[0].LostBytes {
		t.Fatalf("truncated to %d bytes; want torn size %d minus reported loss %d",
			after.Size(), st.Size()-5, rec[0].LostBytes)
	}
	if err := w.Append(mkEvent(999, trace.KindExec, "post-recovery", time.Now())); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := readAll(t, dir)
	for _, e := range got {
		if e.User == "post-recovery" {
			return
		}
	}
	t.Fatal("post-recovery append not readable")
}

// attackTrace is a deterministic workload slice with real attack
// actors, so the core engine raises incidents worth comparing.
func attackTrace(n int) []trace.Event {
	return workload.StandardMix(11, n).Events
}

// incidentTable replays a store through the full core engine and
// renders the top-incidents table — the end-to-end artifact the
// mixed-codec guarantee is stated in terms of.
func incidentTable(t *testing.T, dir string, workers int) string {
	t.Helper()
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.MustEngine()
	var mu sync.Mutex
	if _, err := s.Replay(Filter{}, workers, 256, func(b []trace.Event) {
		mu.Lock()
		eng.ProcessBatch(b)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return core.RenderTopIncidents(eng.Incidents(), 10)
}

// TestMixedCodecStoreReplaysIdentically is the mixed-store guarantee:
// the v1 store with v2 segments appended after a reopen — the shape a
// store recorded by an older build takes — replays to a byte-identical
// top-incidents table as an all-v2 recording of the same stream, at
// worker counts 1 and 8, surviving Compact and a crash-torn v2 tail
// along the way.
func TestMixedCodecStoreReplaysIdentically(t *testing.T) {
	old := v1Events()
	more := workload.StandardMix(37, 100).Events
	for i := range more {
		more[i].Seq = old[len(old)-1].Seq + uint64(i+1)
	}
	opts := Options{SegmentBytes: 2048, FlushEvery: 32}

	binDir, mixedDir := t.TempDir(), copyV1Store(t)
	// Reference: the whole stream as v2.
	writeStore(t, binDir, opts, append(append([]trace.Event(nil), old...), more...))
	// Mixed: the v1 store, continued in v2.
	writeStore(t, mixedDir, opts, more)

	var codecs []string
	ms, err := OpenRead(mixedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range ms.Segments() {
		codecs = append(codecs, seg.Index.Codec)
	}
	joined := strings.Join(codecs, ",")
	if !strings.Contains(joined, "json") || !strings.Contains(joined, "binary") {
		t.Fatalf("store not actually mixed: segment codecs %v", codecs)
	}

	want := incidentTable(t, binDir, 1)
	if !strings.Contains(want, "mallory-rw") {
		t.Fatalf("reference incident table raised nothing:\n%s", want)
	}
	for _, workers := range []int{1, 8} {
		if got := incidentTable(t, mixedDir, workers); got != want {
			t.Fatalf("mixed store at workers=%d diverged from all-v2 table:\n--- got ---\n%s--- want ---\n%s", workers, got, want)
		}
	}

	// Crash recovery on the mixed store: tear the final (v2) segment's
	// tail; the incident table from the surviving prefix must again be
	// worker-count-independent.
	segs := ms.Segments()
	last := segs[len(segs)-1]
	st, err := os.Stat(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last.Path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	os.Remove(indexPath(last.Path))
	w, err := Open(mixedDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Recovered()) != 1 {
		t.Fatalf("expected one recovered segment, got %+v", w.Recovered())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	torn1 := incidentTable(t, mixedDir, 1)
	torn8 := incidentTable(t, mixedDir, 8)
	if torn1 != torn8 {
		t.Fatalf("post-recovery tables diverge across workers:\n--- w1 ---\n%s--- w8 ---\n%s", torn1, torn8)
	}

	// Compact must honor retention identically across codecs: drop the
	// oldest (v1) segments and keep replaying the survivors cleanly.
	w, err = Open(mixedDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := len(w.Segments())
	dropped, err := w.Compact(3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped == 0 || len(w.Segments()) != 3 {
		t.Fatalf("Compact(3) dropped %d, kept %d of %d", dropped, len(w.Segments()), before)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c1 := incidentTable(t, mixedDir, 1)
	c8 := incidentTable(t, mixedDir, 8)
	if c1 != c8 {
		t.Fatalf("post-compact tables diverge across workers:\n--- w1 ---\n%s--- w8 ---\n%s", c1, c8)
	}
}
