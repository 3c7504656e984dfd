package evstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seglog"
	"repro/internal/trace"
	"repro/internal/workload"
)

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

// TestSegmentMagicFollowsCodec pins the on-disk dispatch byte: every
// segment a store writes opens with the one magic readers accept.
func TestSegmentMagicFollowsCodec(t *testing.T) {
	dir := t.TempDir()
	fillStore(t, dir, Options{}, 3)
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range s.Segments() {
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		if head := string(data[:seglog.MagicLen]); head != segMagicV2 {
			t.Fatalf("%s has magic %q, want %q", seg.Path, head, segMagicV2)
		}
	}
}

// TestOpenRefusesV1Segment: a store holding a segment of the retired v1
// format — the magic EVSEG001, JSON payloads under CRC32-IEEE — with
// the version-1 sidecar it was sealed with fails Open and OpenRead with
// an error naming the file, and neither open changes a byte of the
// directory. The sidecar alone would be trusted; only the magic tells
// the file apart.
func TestOpenRefusesV1Segment(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000001.ev")
	payload, err := json.Marshal(mkEvent(1, trace.KindExec, "alice", time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)))
	if err != nil {
		t.Fatal(err)
	}
	data := binary.LittleEndian.AppendUint32([]byte("EVSEG001"), uint32(len(payload)))
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
	data = append(data, payload...)
	sidecar := fmt.Sprintf(`{"version":1,"events":1,"bytes":%d,"codec":"json","min_seq":1,"max_seq":1,`+
		`"min_time":"2026-06-01T09:00:00Z","max_time":"2026-06-01T09:00:00Z","kinds":{"exec":1},"actors":["alice"]}`, len(data))
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath(seg), []byte(sidecar), 0o644); err != nil {
		t.Fatal(err)
	}
	before, _ := dirDigest(t, dir)
	for name, open := range map[string]func() error{
		"Open":     func() error { _, err := Open(dir, Options{}); return err },
		"OpenRead": func() error { _, err := OpenRead(dir); return err },
	} {
		t.Run(name, func(t *testing.T) {
			err := open()
			if err == nil || !strings.Contains(err.Error(), "unsupported segment magic") || !strings.Contains(err.Error(), seg) {
				t.Fatalf("%v; want an unsupported segment magic error naming %s", err, seg)
			}
			if after, files := dirDigest(t, dir); after != before {
				t.Fatalf("the open changed the directory:\n%s", strings.Join(files, "\n"))
			}
		})
	}
}

// TestPushDownSkipsBodyDecode pins the header filter: a kind or actor
// filter must discard non-matching frames before the body decode
// (Skipped > 0) and deliver exactly the events per-event filtering of
// the unfiltered scan delivers.
func TestPushDownSkipsBodyDecode(t *testing.T) {
	binDir := t.TempDir()
	writeStore(t, binDir, Options{SegmentBytes: 4096, FlushEvery: 16}, attackTrace(100))
	bin, err := OpenRead(binDir)
	if err != nil {
		t.Fatal(err)
	}
	all := scanFiltered(t, bin, Filter{})

	for name, f := range map[string]Filter{
		"kind":       {Kinds: []trace.Kind{trace.KindAuth}},
		"actor":      {Actor: "mallory-ex"},
		"kind+actor": {Kinds: []trace.Kind{trace.KindExec, trace.KindFileOp}, Actor: "mallory-rw"},
	} {
		var want []trace.Event
		for _, e := range all {
			if f.Match(e) {
				want = append(want, e)
			}
		}
		if len(want) == 0 {
			t.Fatalf("%s: the store holds no matching event", name)
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
			t.Fatalf("%s: push-down delivered %d events, per-event filtering %d", name, len(got), len(want))
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

// TestPushDownVerdicts drives header push-down over a hand-built
// segment with every shape of header string: one string under two
// dictionary references (each reference carries its own verdict), an
// inline kind and an inline actor longer than maxInternLen (judged on
// the bytes in the frame). A dangling actor reference, or an inline
// actor that overruns its frame, ends the valid prefix there whatever
// the filter — also when the kind already rules the frame out.
func TestPushDownVerdicts(t *testing.T) {
	longKind := trace.Kind(strings.Repeat("k", maxInternLen+1))
	longActor := strings.Repeat("a", maxInternLen+1)
	ref := func(r uint64) trace.Intern { return func(string) (uint64, bool) { return r, true } }
	event := func(data []byte, seq uint64, kind trace.Kind, kindRef trace.Intern, user string, actorRef trace.Intern) []byte {
		p := trace.AppendBinaryString([]byte{frameEvent}, string(kind), kindRef)
		p = trace.AppendBinaryString(p, user, actorRef)
		e := trace.Event{Seq: seq, Kind: kind, User: user}
		return seglog.AppendFrame(data, e.AppendBinary(p, trace.InternNone))
	}
	prefix := []byte(segMagicV2)
	for _, s := range []string{"alice", string(trace.KindExec), "alice"} { // refs 0, 1, 2
		prefix = seglog.AppendFrame(prefix, append([]byte{frameDict}, s...))
	}
	prefix = event(prefix, 1, trace.KindExec, ref(1), "alice", ref(0))
	prefix = event(prefix, 2, trace.KindExec, ref(1), "alice", ref(2))
	prefix = event(prefix, 3, longKind, trace.InternNone, "alice", ref(0))
	prefix = event(prefix, 4, trace.KindExec, ref(1), longActor, trace.InternNone)
	// Kind exec, then an inline actor claiming 200 bytes of the 5 left.
	overrun := []byte{frameEvent, 2, 0, 200, 1, 'm', 'a', 'l', 'l', 'o'}
	tails := map[string][]byte{
		"dangling": event(nil, 5, trace.KindExec, ref(1), "mallory", ref(9)), // no entry 9
		"overrun":  seglog.AppendFrame(nil, overrun),
	}

	for tail, bad := range tails {
		data := append(append(bytes.Clone(prefix), bad...), event(nil, 6, trace.KindExec, ref(1), "alice", ref(0))...) // never reached
		for _, c := range []struct {
			name string
			f    Filter
			want []uint64
		}{
			{"none", Filter{}, []uint64{1, 2, 3, 4}},
			{"actor under both refs", Filter{Actor: "alice"}, []uint64{1, 2, 3}},
			{"kind and actor", Filter{Kinds: []trace.Kind{trace.KindExec}, Actor: "alice"}, []uint64{1, 2}},
			{"inline kind", Filter{Kinds: []trace.Kind{longKind}}, []uint64{3}},
			{"inline actor", Filter{Actor: longActor}, []uint64{4}},
			{"nothing", Filter{Kinds: []trace.Kind{trace.KindAuth}}, nil},
		} {
			var got []uint64
			res, err := decodeFrames(bytes.NewReader(data), int64(len(data)), c.f.pushDown(), &decodeScratch{arena: &trace.Arena{}}, nil, func(e *trace.Event) error {
				if c.f.match(e) {
					got = append(got, e.Seq)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s, %s: delivered seqs %v, want %v", tail, c.name, got, c.want)
			}
			if res.Events+res.Skipped != 4 || (c.f.pushDown() != nil && res.Events != len(c.want)) {
				t.Errorf("%s, %s: %d decoded + %d skipped; want the 4 event frames before the cut, %d decoded", tail, c.name, res.Events, res.Skipped, len(c.want))
			}
			if !res.Truncated || res.ValidBytes != int64(len(prefix)) || res.TailLossBytes != int64(len(data)-len(prefix)) || res.Reason != "frame not an event" {
				t.Errorf("%s, %s: %+v; want the prefix to end at byte %d", tail, c.name, res.ScanResult, len(prefix))
			}
		}
	}
}

// TestSkippedFramesCopyNoStrings: a replay that matches nothing builds
// no string from a frame header it skips, so over events whose actor
// key is inline (longer than maxInternLen) the arena receives the
// dictionary's entries and nothing else.
func TestSkippedFramesCopyNoStrings(t *testing.T) {
	dir := t.TempDir()
	// One actor per sidecar at most: every segment's actor list
	// overflows, so the index cannot rule out an absent actor and each
	// frame reaches push-down.
	s, err := Open(dir, Options{SegmentBytes: 256 << 10, MaxActors: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		user := fmt.Sprintf("%s-%d", strings.Repeat("u", maxInternLen), i%5)
		if err := s.Append(trace.Event{Seq: uint64(i + 1), Kind: trace.KindExec, User: user}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dictBytes := 0
	for _, seg := range s.Segments() {
		f, size, err := seglog.OpenData(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = format.ReadFrames(f, size, nil, func(payload []byte) (string, error) {
			if payload[0] == frameDict {
				dictBytes += len(payload) - 1
			}
			return "", nil
		})
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	rs, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sc := &decodeScratch{arena: &trace.Arena{}}
	stats, err := rs.scan(Filter{Actor: "nobody"}, sc, nil, func(*trace.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != n || stats.Events != 0 {
		t.Fatalf("skipped %d frames and delivered %d events; want all %d skipped", stats.Skipped, stats.Events, n)
	}
	if _, copied, chunks := sc.arena.Stats(); copied != dictBytes || chunks > 1 {
		t.Fatalf("arena took %d bytes in %d chunks; want only the dictionary's %d bytes, in one chunk", copied, chunks, dictBytes)
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

// TestV2CorruptTailRecovery: truncating a segment mid-frame loses
// exactly the torn frame, Open truncates it away with exact accounting,
// and the store accepts appends cleanly afterwards.
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
// renders the top-incidents table — the end-to-end artifact the replay
// guarantees are stated in terms of.
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

// TestRecoveredStoreReplaysIdentically: a store replays to a
// worker-count-independent top-incidents table after a crash-torn tail
// is recovered and again after Compact.
func TestRecoveredStoreReplaysIdentically(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, Options{SegmentBytes: 2048, FlushEvery: 32}, attackTrace(200))
	tables := func(stage string) string {
		t.Helper()
		w1 := incidentTable(t, dir, 1)
		if w8 := incidentTable(t, dir, 8); w8 != w1 {
			t.Fatalf("%s: tables diverge across workers:\n--- w1 ---\n%s--- w8 ---\n%s", stage, w1, w8)
		}
		return w1
	}
	if want := tables("written"); !strings.Contains(want, "mallory-rw") {
		t.Fatalf("the incident table raised nothing:\n%s", want)
	}

	// Tear the final segment's tail and drop its sidecar, as a crash
	// mid-seal leaves it.
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	last := segs[len(segs)-1]
	st, err := os.Stat(last.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last.Path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	os.Remove(indexPath(last.Path))
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Recovered()) != 1 {
		t.Fatalf("expected one recovered segment, got %+v", w.Recovered())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tables("recovered")

	w, err = Open(dir, Options{})
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
	tables("compacted")
}
