package evstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// batchTestEvents is a stream that makes the writer do everything it
// can do mid-batch: grow the dictionary, rotate (with the small
// SegmentBytes the tests set), and — at index oversizedAt — refuse an
// event past the frame limit whose new dictionary entries must be
// rolled back.
const oversizedAt = 700

func batchTestEvents() []trace.Event {
	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	kinds := trace.KnownKinds()
	events := make([]trace.Event, 0, 800)
	for i := 0; i < 800; i++ {
		e := mkEvent(uint64(i+1), kinds[i%len(kinds)], fmt.Sprintf("user%d", i%11), base.Add(time.Duration(i)*time.Second))
		e.SrcIP = fmt.Sprintf("10.0.%d.%d", i%3, i%17)
		if i%5 == 0 {
			e.Fields = map[string]string{"rule": fmt.Sprintf("R-%d", i%4), "note": "n"}
		}
		events = append(events, e)
	}
	events[oversizedAt].User = "whale" // a new dictionary entry staged, then rolled back
	events[oversizedAt].Code = strings.Repeat("x", maxFrame+1)
	return events
}

// dirFiles reads a store directory into name -> contents.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = data
	}
	return out
}

func requireSameFiles(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	names := func(m map[string][]byte) []string {
		var out []string
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	if w, g := names(want), names(got); strings.Join(w, ",") != strings.Join(g, ",") {
		t.Fatalf("%s: files %v, want %v", label, g, w)
	}
	for name, data := range want {
		if !bytes.Equal(data, got[name]) {
			t.Fatalf("%s: %s differs (%d vs %d bytes)", label, name, len(got[name]), len(data))
		}
	}
}

// TestEmitBatchWritesTheSameBytes holds EmitBatch to "the same bytes
// on disk": for one event order, segment files and sidecars are
// byte-identical to per-event Emit whatever the batch boundaries — the
// flush cadence, the rotation check and the oversized-event rollback
// all stay per event inside a batch — and the sticky error stops both
// at the same event.
func TestEmitBatchWritesTheSameBytes(t *testing.T) {
	events := batchTestEvents()
	opts := Options{SegmentBytes: 16 << 10, FlushEvery: 16}
	write := func(feed func(*Store)) (map[string][]byte, string) {
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		feed(s)
		cerr := s.Close()
		if cerr == nil || s.Err() == nil {
			t.Fatal("the oversized event left no sticky error")
		}
		return dirFiles(t, dir), cerr.Error()
	}
	want, wantErr := write(func(s *Store) {
		for _, e := range events {
			s.Emit(e)
		}
	})
	segments := 0
	for name := range want {
		if strings.HasSuffix(name, ".ev") {
			segments++
		}
	}
	if segments < 3 {
		t.Fatalf("%d segments; the stream must rotate inside a batch", segments)
	}
	for _, sizes := range [][]int{{1}, {3, 64, 1, 128}, {len(events)}} {
		got, gotErr := write(func(s *Store) {
			for i, k := 0, 0; i < len(events); k++ {
				n := min(sizes[k%len(sizes)], len(events)-i)
				s.EmitBatch(events[i : i+n])
				i += n
			}
		})
		label := fmt.Sprintf("batches %v", sizes)
		requireSameFiles(t, label, want, got)
		if gotErr != wantErr {
			t.Fatalf("%s: error %q, want %q", label, gotErr, wantErr)
		}
	}
	// What is on disk is exactly the events before the refused one.
	dir := t.TempDir()
	for name, data := range want {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	back := readAll(t, dir)
	if len(back) != oversizedAt {
		t.Fatalf("%d events on disk, want the %d before the oversized one", len(back), oversizedAt)
	}
	for i, e := range back {
		if e.Seq != events[i].Seq || e.User == "whale" {
			t.Fatalf("event %d on disk is seq %d user %q", i, e.Seq, e.User)
		}
	}
}

// TestSinkHandleEmitBatch covers both recording forms behind OpenSink:
// a store directory takes the batch in one locked append, a .jsonl
// path has no batch form and gets it line by line.
func TestSinkHandleEmitBatch(t *testing.T) {
	events := batchTestEvents()[:300]
	for _, name := range []string{"store", "flat.jsonl"} {
		record := func(feed func(*SinkHandle)) map[string][]byte {
			root := t.TempDir()
			h, err := OpenSink(filepath.Join(root, name), SinkFresh, CodecBinary)
			if err != nil {
				t.Fatal(err)
			}
			feed(h)
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			if name == "store" {
				return dirFiles(t, filepath.Join(root, name))
			}
			return dirFiles(t, root)
		}
		want := record(func(h *SinkHandle) {
			for _, e := range events {
				h.Emit(e)
			}
		})
		got := record(func(h *SinkHandle) {
			var _ trace.BatchSink = h
			h.EmitBatch(events[:100])
			h.EmitBatch(events[100:])
		})
		requireSameFiles(t, name, want, got)
	}
}
