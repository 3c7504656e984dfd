package histstore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rules"
)

// fillHist writes n alert records, sealing segments per opts, and
// returns the sealed store.
func fillHist(t *testing.T, dir string, opts Options, n int) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.AppendAlert(mkAlert("actor", rules.SevMedium, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return s
}

func countRecords(t *testing.T, dir string) int {
	t.Helper()
	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, seg := range r.Segments() {
		n += seg.Index.Records
	}
	return n
}

// TestTornTailExactLossAccounting cuts a crashed writer's segment mid-
// frame and checks the reopen truncates exactly the torn suffix: the
// reported loss plus the surviving file size must equal the original
// size, and every intact record must survive.
func TestTornTailExactLossAccounting(t *testing.T) {
	dir := t.TempDir()
	s := fillHist(t, dir, Options{}, 30)
	seg := s.Segments()[0]
	if err := os.Remove(indexPath(seg.Path)); err != nil {
		t.Fatal(err)
	}
	const chop = 5 // mid-frame: the last record's tail is cut off
	if err := os.Truncate(seg.Path, seg.Index.Bytes-chop); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := re.Recovered()
	if len(rec) != 1 {
		t.Fatalf("recovered %v, want one tail loss", rec)
	}
	st, err := os.Stat(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size()+rec[0].LostBytes != seg.Index.Bytes-chop {
		t.Fatalf("accounting broken: %d surviving + %d lost != %d on disk pre-recovery",
			st.Size(), rec[0].LostBytes, seg.Index.Bytes-chop)
	}
	if got := countRecords(t, dir); got != 29 {
		t.Fatalf("%d records after recovery, want 29 (only the chopped one lost)", got)
	}

	// Recovery is idempotent: a second open finds a clean store.
	re2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(re2.Recovered()) != 0 {
		t.Fatalf("second open still recovering: %v", re2.Recovered())
	}
}

// TestCrashMidCompactionRecovery kills a compaction between the
// sidecar removal and the data removal — the only window the
// sidecar-before-data discipline allows — and checks the next open
// re-indexes the orphan data file instead of losing or double-freeing
// it.
func TestCrashMidCompactionRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 3; seg++ {
		if err := s.AppendIncident(mkIncident("m", "c", seg, seg+1, rules.SevHigh, 60,
			t0, t0.Add(time.Duration(seg)*time.Second))); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	oldest := s.Segments()[0]
	// Simulate the crash: sidecar gone, data still present.
	if err := os.Remove(indexPath(oldest.Path)); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(re.Segments()); got != 3 {
		t.Fatalf("%d segments after reopen, want 3 (orphan re-indexed)", got)
	}
	if _, err := os.Stat(indexPath(oldest.Path)); err != nil {
		t.Fatalf("sidecar not rebuilt: %v", err)
	}
	incs, _, err := QueryIncidents(re, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 3 {
		t.Fatalf("%d incidents after recovery, want all 3 generations", len(incs))
	}

	// The interrupted retention pass can simply run again.
	if _, err := re.Compact(1); err != nil {
		t.Fatal(err)
	}
	if got := len(re.Segments()); got != 1 {
		t.Fatalf("%d segments after re-run compaction, want 1", got)
	}
}

// TestOpenReadNeverWrites opens a store with a missing sidecar and a
// torn tail read-only and checks no file changes: no sidecar appears,
// no truncation happens.
func TestOpenReadNeverWrites(t *testing.T) {
	dir := t.TempDir()
	s := fillHist(t, dir, Options{}, 10)
	seg := s.Segments()[0]
	if err := os.Remove(indexPath(seg.Path)); err != nil {
		t.Fatal(err)
	}
	garbage := []byte("\xff\xff torn tail")
	f, err := os.OpenFile(seg.Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := seg.Index.Bytes + int64(len(garbage))

	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Recovered()) != 1 {
		t.Fatalf("reader did not report the torn tail: %v", r.Recovered())
	}
	if _, err := os.Stat(indexPath(seg.Path)); !os.IsNotExist(err) {
		t.Fatal("read-only open wrote a sidecar")
	}
	st, err := os.Stat(seg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != sizeBefore {
		t.Fatalf("read-only open truncated the segment: %d bytes, want %d", st.Size(), sizeBefore)
	}
	// The flushed prefix still reads fully.
	incsAlerts, _, err := QueryAlerts(r, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(incsAlerts) != 10 {
		t.Fatalf("reader saw %d records, want 10", len(incsAlerts))
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("read-only open created files: %v", files)
	}
}

// TestOpenRefusesForeignSegment: a data file under another magic —
// here an event-store segment misfiled into the history — fails Open
// and OpenRead with an error naming it, and neither open changes the
// directory: the foreign file is not cut back as a torn tail, and no
// sidecar is written for it.
func TestOpenRefusesForeignSegment(t *testing.T) {
	dir := t.TempDir()
	fillHist(t, dir, Options{}, 10)
	foreign := filepath.Join(dir, "hist-00000002.hr")
	if err := os.WriteFile(foreign, []byte("EVSEG002\x05\x00\x00\x00\x00\x00\x00\x00hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := func() map[string]string {
		files := map[string]string{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(data)
		}
		return files
	}
	before := snapshot()
	for name, open := range map[string]func() error{
		"Open":     func() error { _, err := Open(dir, Options{}); return err },
		"OpenRead": func() error { _, err := OpenRead(dir); return err },
	} {
		t.Run(name, func(t *testing.T) {
			err := open()
			if err == nil || !strings.Contains(err.Error(), "unsupported segment magic") || !strings.Contains(err.Error(), foreign) {
				t.Fatalf("%v; want an unsupported segment magic error naming %s", err, foreign)
			}
			if after := snapshot(); !reflect.DeepEqual(after, before) {
				t.Fatalf("the open changed the directory:\nbefore %q\n after %q", before, after)
			}
		})
	}
}
