package evstore

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/trace"
)

// writeMixed fills a store with a deterministic multi-actor,
// multi-kind stream in two time phases: phase one is exec/file_op
// traffic, phase two is auth/scan_finding traffic, so kind and time
// filters can each prune whole segments.
func writeMixed(t *testing.T, dir string, perPhase int) {
	t.Helper()
	writeMixedOpts(t, dir, Options{SegmentBytes: 4096, FlushEvery: 16}, perPhase)
}

// writeMixedOpts is writeMixed with explicit store options, so codec
// variants can reuse the same stream shape.
func writeMixedOpts(t *testing.T, dir string, opts Options, perPhase int) {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	seq := uint64(0)
	stamp := func(e trace.Event, at time.Time) trace.Event {
		seq++
		e.Seq = seq
		e.Time = at
		return e
	}
	for i := 0; i < perPhase; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		kind := trace.KindExec
		if i%3 == 0 {
			kind = trace.KindFileOp
		}
		if err := s.Append(stamp(trace.Event{
			Kind: kind, User: fmt.Sprintf("user%d", i%5), Op: "write",
		}, at)); err != nil {
			t.Fatal(err)
		}
	}
	phase2 := base.Add(24 * time.Hour)
	for i := 0; i < perPhase; i++ {
		at := phase2.Add(time.Duration(i) * time.Second)
		e := trace.Event{Kind: trace.KindAuth, SrcIP: fmt.Sprintf("10.0.0.%d", i%5), Op: "deny"}
		if i%4 == 0 {
			e = trace.Event{Kind: trace.KindScanFinding, User: fmt.Sprintf("target%d", i%5),
				Fields: map[string]string{"check": "JPY-001"}}
		}
		if err := s.Append(stamp(e, at)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanFiltered(t *testing.T, s *Store, f Filter) []trace.Event {
	t.Helper()
	var out []trace.Event
	if _, err := s.Scan(f, func(e trace.Event) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFilterMatch(t *testing.T) {
	at := time.Date(2026, 6, 1, 12, 0, 0, 0, time.UTC)
	e := trace.Event{Kind: trace.KindAuth, SrcIP: "10.0.0.9", User: "alice", Time: at}
	cases := []struct {
		name string
		f    Filter
		want bool
	}{
		{"zero filter", Filter{}, true},
		{"kind hit", Filter{Kinds: []trace.Kind{trace.KindExec, trace.KindAuth}}, true},
		{"kind miss", Filter{Kinds: []trace.Kind{trace.KindExec}}, false},
		// Auth events shard by source address, not user — the actor
		// filter must agree with trace.ActorKey.
		{"actor hit", Filter{Actor: "10.0.0.9"}, true},
		{"actor miss", Filter{Actor: "alice"}, false},
		{"since inclusive", Filter{Since: at}, true},
		{"since after", Filter{Since: at.Add(time.Second)}, false},
		{"until inclusive", Filter{Until: at}, true},
		{"until before", Filter{Until: at.Add(-time.Second)}, false},
	}
	for _, tc := range cases {
		if got := tc.f.Match(e); got != tc.want {
			t.Errorf("%s: Match = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestIndexPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	writeMixed(t, dir, 400)
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := len(s.Segments())
	if total < 4 {
		t.Fatalf("need several segments, got %d", total)
	}

	// Phase-two kinds live only in later segments: the index must rule
	// the phase-one segments out without decoding them.
	var n int
	stats, err := s.Scan(Filter{Kinds: []trace.Kind{trace.KindScanFinding}}, func(trace.Event) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("kind filter matched %d events, want 100", n)
	}
	if stats.SegmentsSelected >= total {
		t.Fatalf("kind filter selected all %d segments; index pruned nothing", total)
	}
	if stats.Decoded >= 800 {
		t.Fatalf("kind filter decoded %d of 800 frames; segment skip ineffective", stats.Decoded)
	}

	// A time window over phase one only must skip phase-two segments.
	stats, err = s.Scan(Filter{
		Until: time.Date(2026, 6, 1, 23, 0, 0, 0, time.UTC),
	}, func(trace.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 400 {
		t.Fatalf("time filter matched %d, want 400", stats.Events)
	}
	if stats.SegmentsSelected >= total {
		t.Fatal("time filter selected every segment; index pruned nothing")
	}

	// An actor filter prunes segments whose actor index misses it.
	stats, err = s.Scan(Filter{Actor: "10.0.0.1"}, func(trace.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events == 0 {
		t.Fatal("actor filter matched nothing")
	}
	if stats.SegmentsSelected >= total {
		t.Fatal("actor filter selected every segment; index pruned nothing")
	}
}

// TestReplayShardedMatchesScan pins the replay contract: any worker
// count delivers exactly the filtered event set, and each actor's
// events arrive at one worker in append order.
func TestReplayShardedMatchesScan(t *testing.T) {
	dir := t.TempDir()
	writeMixed(t, dir, 500)
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	filters := []Filter{
		{},
		{Kinds: []trace.Kind{trace.KindAuth, trace.KindScanFinding}},
		{Actor: "user2"},
		{Since: time.Date(2026, 6, 2, 0, 0, 0, 0, time.UTC)},
	}
	for fi, f := range filters {
		want := scanFiltered(t, s, f)
		for _, workers := range []int{2, 4, 8} {
			var mu sync.Mutex
			perActor := map[string][]uint64{}
			total := 0
			stats, err := s.Replay(f, workers, 64, func(batch []trace.Event) {
				mu.Lock()
				defer mu.Unlock()
				total += len(batch)
				for _, e := range batch {
					a := trace.ActorKey(e)
					perActor[a] = append(perActor[a], e.Seq)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if total != len(want) {
				t.Fatalf("filter %d workers=%d: replayed %d events, scan found %d", fi, workers, total, len(want))
			}
			if stats.Events != int64(len(want)) {
				t.Fatalf("filter %d workers=%d: stats.Events=%d, want %d", fi, workers, stats.Events, len(want))
			}
			for actor, seqs := range perActor {
				for i := 1; i < len(seqs); i++ {
					if seqs[i] <= seqs[i-1] {
						t.Fatalf("filter %d workers=%d: actor %s replayed out of order: %v", fi, workers, actor, seqs)
					}
				}
			}
		}
	}
}

func TestReplayReportsTailLoss(t *testing.T) {
	dir := t.TempDir()
	writeMixed(t, dir, 200)
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	// Graft garbage onto a sealed middle segment: replay must still
	// deliver every indexed event and report the corrupt tail instead
	// of erroring out or looping.
	victim := segs[len(segs)/2]
	f, err := os.OpenFile(victim.Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("XXXXXXXXXXXXXXXX")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, workers := range []int{1, 4} {
		n := 0
		var mu sync.Mutex
		stats, err := s.Replay(Filter{}, workers, 64, func(b []trace.Event) {
			mu.Lock()
			n += len(b)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 400 {
			t.Fatalf("workers=%d: replayed %d events, want 400", workers, n)
		}
		if stats.TailLossBytes != 16 {
			t.Fatalf("workers=%d: tail loss %d bytes, want 16", workers, stats.TailLossBytes)
		}
	}
}

// writeExecStore fills a binary store with n exec events spread evenly
// over `users` actors: repeated strings engage the dictionary, and each
// event carries a unique code string with pad in it — a dictionary
// entry of its own up to maxInternLen, inline in the frame (and so
// decoded only when the frame is) past it.
func writeExecStore(t *testing.T, dir string, n, users int, segmentBytes int64, pad string) {
	t.Helper()
	s, err := Open(dir, Options{SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 6, 2, 8, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if err := s.Append(trace.Event{
			Seq: uint64(i + 1), Time: base.Add(time.Duration(i) * time.Second),
			Kind: trace.KindExec, User: fmt.Sprintf("user%d", i%users),
			Path: fmt.Sprintf("/nb/%d.ipynb", i%11),
			Code: fmt.Sprintf("print(%d) # %s%d", i, pad, i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayArenaAllocationsScaleWithSegments pins the tentpole perf
// claim at the store layer: a serial binary-store replay performs
// O(segments) heap allocations, not O(events × string fields). The
// bound is generous (64 allocations per segment) so the test survives
// runtime-version drift while still failing loudly if per-event
// string allocations ever creep back into the decode path.
func TestReplayArenaAllocationsScaleWithSegments(t *testing.T) {
	dir := t.TempDir()
	// Small segments force a real multi-segment pass; 4000 events with
	// repeated strings engage the dictionary, unique suffixes keep the
	// arena busy.
	writeExecStore(t, dir, 4000, 7, 32<<10, "unique-inline-padding-")
	rs, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	segs := len(rs.Segments())
	if segs < 3 {
		t.Fatalf("want a multi-segment store, got %d segments", segs)
	}

	var events int64
	replay := func() {
		events = 0
		if _, err := rs.Replay(Filter{}, 1, 256, func(b []trace.Event) {
			events += int64(len(b))
		}); err != nil {
			t.Fatal(err)
		}
	}
	replay() // warm OS/file caches and the testing runtime
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	replay()
	runtime.ReadMemStats(&m1)
	if events != 4000 {
		t.Fatalf("replayed %d events, want 4000", events)
	}
	allocs := m1.Mallocs - m0.Mallocs
	if allocs > uint64(64*segs) {
		t.Fatalf("serial replay allocated %d times for %d segments (%d events); want O(segments)",
			allocs, segs, events)
	}
}

// TestFilteredReplayAllocatesWhatItMatches pins the sizing of the
// sharded path: once the store's free list is warm, a question that
// matches 5% of the events allocates less than the event array of one
// full segment — where sizing every buffer by Index.Events allocated one
// such array per selected segment, whatever the filter.
func TestFilteredReplayAllocatesWhatItMatches(t *testing.T) {
	dir := t.TempDir()
	writeExecStore(t, dir, 60000, 20, 2<<20, strings.Repeat("x", maxInternLen))
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("want a multi-segment store, got %d segments", len(segs))
	}
	fullArray := uint64(segs[0].Index.Events) * uint64(unsafe.Sizeof(trace.Event{}))

	var events atomic.Int64
	replay := func() {
		events.Store(0)
		stats, err := s.Replay(Filter{Actor: "user3"}, 2, 64, func(b []trace.Event) {
			events.Add(int64(len(b)))
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.SegmentsSelected != len(segs) {
			t.Fatalf("actor filter selected %d of %d segments; the test needs all of them read", stats.SegmentsSelected, len(segs))
		}
	}
	replay() // warm the store's free list
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	replay()
	runtime.ReadMemStats(&m1)
	if events.Load() != 3000 {
		t.Fatalf("replayed %d events, want 3000", events.Load())
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= fullArray {
		t.Fatalf("warm filtered replay of %d segments allocated %d bytes; one segment's full event array is %d",
			len(segs), got, fullArray)
	}
}

// parked lists the buffers on the store's free list without removing
// any.
func parked(s *Store) map[*segBuf]bool {
	out := map[*segBuf]bool{}
	for n := len(s.free); n > 0; n-- {
		sb := <-s.free
		out[sb] = true
		s.free <- sb
	}
	return out
}

// TestReplayRecyclingNeverRewritesStrings is the borrow contract across
// calls: strings a consumer kept by reference from pass 1 read the same
// after passes 2 and 3 have decoded other events into the same buffers.
// Containers recycle; arena bytes never do.
func TestReplayRecyclingNeverRewritesStrings(t *testing.T) {
	dir := t.TempDir()
	writeExecStore(t, dir, 4000, 7, 64<<10, strings.Repeat("x", maxInternLen))
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type kept struct{ ref, copy string }
	var mu sync.Mutex
	keep := map[uint64]kept{}
	if _, err := s.Replay(Filter{}, 4, 64, func(b []trace.Event) {
		mu.Lock()
		defer mu.Unlock()
		for i := range b {
			keep[b[i].Seq] = kept{ref: b[i].Code, copy: strings.Clone(b[i].Code)}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(keep) != 4000 {
		t.Fatalf("pass 1 delivered %d events, want 4000", len(keep))
	}
	first := parked(s)
	if len(first) == 0 {
		t.Fatal("pass 1 parked no buffer on the store")
	}
	for _, f := range []Filter{{Actor: "user5"}, {Kinds: []trace.Kind{trace.KindExec}}} {
		if _, err := s.Replay(f, 4, 64, func([]trace.Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	reused := 0
	for sb := range parked(s) {
		if first[sb] {
			reused++
		}
		if len(sb.events) != 0 || len(sb.shard) != 0 {
			t.Fatalf("parked buffer holds %d events, %d tags; want it empty", len(sb.events), len(sb.shard))
		}
		for i, e := range sb.events[:cap(sb.events)] {
			if e.Code != "" || e.User != "" {
				t.Fatalf("parked buffer still references event strings at slot %d", i)
			}
		}
	}
	if reused == 0 {
		t.Fatal("passes 2 and 3 reused none of pass 1's buffers")
	}
	for seq, k := range keep {
		if k.ref != k.copy {
			t.Fatalf("seq %d: string kept from pass 1 now reads %q, was %q", seq, k.ref, k.copy)
		}
	}
}

// TestConcurrentReplaysShareTheFreeList runs two sessions against one
// open store at once — different filters, one free list — and each
// must still deliver exactly what Scan delivers. Run under -race.
func TestConcurrentReplaysShareTheFreeList(t *testing.T) {
	dir := t.TempDir()
	writeMixed(t, dir, 500)
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	filters := []Filter{{Actor: "user2"}, {Kinds: []trace.Kind{trace.KindAuth, trace.KindScanFinding}}}
	var wg sync.WaitGroup
	for _, f := range filters {
		want := map[uint64]string{}
		for _, e := range scanFiltered(t, s, f) {
			j, _ := json.Marshal(e)
			want[e.Seq] = string(j)
		}
		wg.Add(1)
		go func(f Filter) {
			defer wg.Done()
			for pass := 0; pass < 8; pass++ {
				var mu sync.Mutex
				got := map[uint64]string{}
				if _, err := s.Replay(f, 3, 32, func(b []trace.Event) {
					mu.Lock()
					defer mu.Unlock()
					for _, e := range b {
						j, _ := json.Marshal(e)
						got[e.Seq] = string(j)
					}
				}); err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("filter %+v pass %d: %d events, scan found %d", f, pass, len(got), len(want))
					return
				}
				for seq, j := range want {
					if got[seq] != j {
						t.Errorf("filter %+v pass %d seq %d:\n got %s\nwant %s", f, pass, seq, got[seq], j)
						return
					}
				}
			}
		}(f)
	}
	wg.Wait()
}

// TestCloseDropsParkedBuffers: the free list belongs to the open store.
// Close empties it, and a store reopened on the same directory starts
// with none and replays the same events.
func TestCloseDropsParkedBuffers(t *testing.T) {
	dir := t.TempDir()
	writeMixed(t, dir, 300)
	count := func(s *Store) int64 {
		t.Helper()
		stats, err := s.Replay(Filter{}, 4, 64, func([]trace.Event) {})
		if err != nil {
			t.Fatal(err)
		}
		return stats.Events
	}
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := count(s); n != 600 {
		t.Fatalf("replayed %d events, want 600", n)
	}
	if len(s.free) == 0 || len(s.free) > cap(s.free) {
		t.Fatalf("after a replay the store parks %d buffers, want 1..%d", len(s.free), cap(s.free))
	}
	s.Close()
	if len(s.free) != 0 {
		t.Fatalf("Close left %d buffers parked", len(s.free))
	}
	again, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if len(again.free) != 0 {
		t.Fatalf("a reopened store starts with %d parked buffers", len(again.free))
	}
	if n := count(again); n != 600 {
		t.Fatalf("reopened store replayed %d events, want 600", n)
	}
}

// TestReplayArenaMatchesScanExactly is the store-layer differential:
// the arena-backed Replay (serial and sharded) must deliver exactly
// the events the copying Scan delivers, byte-identical under JSON
// re-encoding, on v2 segments and on the v1 store, and on a filtered
// pass.
func TestReplayArenaMatchesScanExactly(t *testing.T) {
	binDir := t.TempDir()
	writeMixedOpts(t, binDir, Options{SegmentBytes: 4096, FlushEvery: 16}, 300)
	for codec, dir := range map[Codec]string{CodecBinary: binDir, "json": copyV1Store(t)} {
		s, err := OpenRead(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []Filter{{}, {Kinds: []trace.Kind{trace.KindAuth}}} {
			want := map[uint64]string{}
			for _, e := range scanFiltered(t, s, f) {
				j, _ := json.Marshal(e)
				want[e.Seq] = string(j)
			}
			for _, workers := range []int{1, 8} {
				got := map[uint64]string{}
				var mu sync.Mutex
				if _, err := s.Replay(f, workers, 64, func(b []trace.Event) {
					mu.Lock()
					for _, e := range b {
						j, _ := json.Marshal(e)
						got[e.Seq] = string(j)
					}
					mu.Unlock()
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("codec=%s workers=%d: got %d events, want %d", codec, workers, len(got), len(want))
				}
				for seq, j := range want {
					if got[seq] != j {
						t.Fatalf("codec=%s workers=%d seq=%d:\n got %s\nwant %s", codec, workers, seq, got[seq], j)
					}
				}
			}
		}
		s.Close()
	}
}
