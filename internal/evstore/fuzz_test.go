package evstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/seglog"
	"repro/internal/trace"
)

// buildSegment assembles valid segment bytes — dictionary frames
// interleaved before their first use, exactly as the writer emits them.
func buildSegment(events ...trace.Event) []byte {
	out := []byte(segMagicV2)
	enc := newBinEncoder()
	for _, e := range events {
		var err error
		out, err = enc.appendEvent(out, &e, e.ActorKey())
		if err != nil {
			panic(err)
		}
	}
	return out
}

// FuzzReadSegment feeds arbitrary bytes through the frame decoder.
// The contract under attack: never panic, never report more valid
// bytes than exist, always cut cleanly at the first bad frame (the
// valid prefix must re-decode without truncation), and account for
// every lost tail byte. The CI fuzz-smoke step picks this target up
// automatically alongside the other parsers' fuzzers.
func FuzzReadSegment(f *testing.F) {
	at := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	valid := buildSegment(
		trace.Event{Seq: 1, Time: at, Kind: trace.KindExec, User: "alice", Code: "print(1)"},
		trace.Event{Seq: 2, Time: at.Add(time.Second), Kind: trace.KindExec, User: "alice", Op: "run"},
		trace.Event{Seq: 3, Time: at.Add(2 * time.Second), Kind: trace.KindAuth, SrcIP: "10.0.0.1"},
	)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])            // torn final frame
	f.Add(append(valid, 0xde, 0xad, 0xbe)) // trailing garbage
	corrupt := bytes.Clone(valid)
	corrupt[len(segMagicV2)+frameHeaderLen+4] ^= 0xff // flip a payload byte: CRC must catch it
	f.Add(corrupt)
	corrupt = bytes.Clone(valid)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	corrupt = bytes.Clone(valid)
	corrupt[len(segMagicV2)+4] ^= 0x01 // flip a checksum bit of the first frame header
	f.Add(corrupt)
	f.Add([]byte(segMagicV2))
	f.Add([]byte("not a segment at all"))
	f.Add(append([]byte(segMagicV2), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // implausible length
	// The frames under the retired v1 magic: no reader accepts it.
	f.Add(append([]byte("EVSEG001"), valid[len(segMagicV2):]...))

	// Frames whose checksum holds, so only the payload decode can
	// object: a dangling dictionary reference, an unknown frame type, an
	// empty dictionary entry, and an event whose header names another
	// actor than its body.
	dangling := seglog.AppendFrame([]byte(segMagicV2), []byte{frameEvent, 0x09}) // kind = dict ref 8, never defined
	f.Add(dangling)
	f.Add(seglog.AppendFrame([]byte(segMagicV2), []byte{0x7f, 1, 2, 3})) // unknown frame type
	f.Add(seglog.AppendFrame([]byte(segMagicV2), []byte{frameDict}))     // empty dictionary entry
	mismatch, err := newBinEncoder().appendEvent([]byte(segMagicV2), &trace.Event{Seq: 1, Kind: trace.KindExec, User: "alice"}, "mallory")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mismatch)

	// Arena edge cases. Inline strings near and past the arena chunk
	// size: two near-chunk values force a value to span a chunk
	// rollover, the oversized one takes the dedicated-chunk path; the
	// torn variant cuts the stream mid-frame — i.e. mid-arena-chunk on
	// the decode side — so recovery runs with a partially filled arena.
	bigV2 := buildSegment(
		trace.Event{Seq: 1, Kind: trace.KindExec, User: "alice", Code: string(bytes.Repeat([]byte("A"), 60<<10))},
		trace.Event{Seq: 2, Kind: trace.KindExec, User: "alice", Code: string(bytes.Repeat([]byte("B"), 60<<10))},
		trace.Event{Seq: 3, Kind: trace.KindExec, User: "alice", Code: string(bytes.Repeat([]byte("C"), 70<<10))},
	)
	f.Add(bigV2)
	f.Add(bigV2[:len(bigV2)-(30<<10)]) // torn tail mid-arena-chunk

	f.Fuzz(func(t *testing.T, data []byte) {
		var events int
		var plainJSON [][]byte
		res, err := DecodeFrames(bytes.NewReader(data), int64(len(data)), func(e trace.Event) error {
			events++
			j, jerr := json.Marshal(e)
			if jerr != nil {
				return jerr
			}
			plainJSON = append(plainJSON, j)
			return nil
		})
		if err != nil {
			t.Fatalf("decode with nil-erroring fn returned %v", err)
		}
		if res.Events != events {
			t.Fatalf("result counts %d events, fn saw %d", res.Events, events)
		}
		if res.ValidBytes < 0 || res.ValidBytes > int64(len(data)) {
			t.Fatalf("valid bytes %d out of range [0,%d]", res.ValidBytes, len(data))
		}
		if res.Truncated {
			if res.ValidBytes+res.TailLossBytes != int64(len(data)) {
				t.Fatalf("valid %d + lost %d != total %d", res.ValidBytes, res.TailLossBytes, len(data))
			}
		} else if res.TailLossBytes != 0 {
			t.Fatalf("clean decode reported %d lost bytes", res.TailLossBytes)
		}
		// The valid prefix is self-consistent: re-decoding it yields
		// the same events with no truncation — the invariant Open's
		// truncate-at-first-bad-frame recovery relies on.
		if res.Truncated && res.ValidBytes >= int64(len(segMagicV2)) {
			again, err := DecodeFrames(bytes.NewReader(data[:res.ValidBytes]), res.ValidBytes, func(trace.Event) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if again.Truncated || again.Events != res.Events {
				t.Fatalf("valid prefix re-decode: %+v, want clean %d events", again, res.Events)
			}
		}
		// Arena differential: the arena-backed decode must agree with
		// the copying decode byte-for-byte (JSON re-encoding) on every
		// input, including every corruption the fuzzer invents — same
		// events, same truncation verdict, same loss accounting.
		var arenaEvents int
		sc := &decodeScratch{arena: &trace.Arena{}}
		resA, err := decodeFrames(bytes.NewReader(data), int64(len(data)), nil, sc, nil, func(e *trace.Event) error {
			if arenaEvents >= len(plainJSON) {
				t.Fatalf("arena decode produced extra event %d", arenaEvents)
			}
			j, jerr := json.Marshal(e)
			if jerr != nil {
				return jerr
			}
			if !bytes.Equal(j, plainJSON[arenaEvents]) {
				t.Fatalf("arena decode diverged at event %d:\nplain %s\narena %s",
					arenaEvents, plainJSON[arenaEvents], j)
			}
			arenaEvents++
			return nil
		})
		if err != nil {
			t.Fatalf("arena decode returned %v", err)
		}
		if arenaEvents != events || resA != res {
			t.Fatalf("arena decode result diverged: %+v (%d events), plain %+v (%d events)",
				resA, arenaEvents, res, events)
		}

		// Replay differential: the bytes as the one segment of a store,
		// replayed serially and sharded, deliver exactly what DecodeFrames
		// delivers, each actor's events in decode order.
		want := map[string][]string{}
		i := 0
		if _, err := DecodeFrames(bytes.NewReader(data), int64(len(data)), func(e trace.Event) error {
			want[e.ActorKey()] = append(want[e.ActorKey()], string(plainJSON[i]))
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.ev"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenRead(dir)
		if len(data) >= seglog.MagicLen && !bytes.HasPrefix(data, []byte(segMagicV2)) {
			if err == nil || !strings.Contains(err.Error(), "unsupported segment magic") {
				t.Fatalf("a segment under magic %q opened: %v", data[:seglog.MagicLen], err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, workers := range []int{1, 3} {
			var mu sync.Mutex
			got := map[string][]string{}
			stats, err := s.Replay(Filter{}, workers, 2, func(b []trace.Event) {
				mu.Lock()
				defer mu.Unlock()
				for _, e := range b {
					j, _ := json.Marshal(e)
					got[e.ActorKey()] = append(got[e.ActorKey()], string(j))
				}
			})
			if err != nil {
				t.Fatalf("workers=%d: replay returned %v", workers, err)
			}
			if stats.Events != int64(events) || stats.Decoded != int64(events) || stats.TailLossBytes != res.TailLossBytes {
				t.Fatalf("workers=%d: replay stats %+v, decode found %d events and %d lost bytes", workers, stats, events, res.TailLossBytes)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: replay per actor\n got %q\nwant %q", workers, got, want)
			}
		}
		filteredParity(t, data, res)
	})
}

// filteredParity is FuzzReadSegment's push-down leg. For each kind and
// actor the bytes decode to, and one actor they do not, a filtered
// replay of them as a store's one segment delivers exactly the events
// of the unfiltered decode that pass Filter.Match, loses the same tail,
// and either decodes or skips every event frame the unfiltered decode
// delivered. The sidecar written beside the segment rules nothing out,
// so every filter reaches the frames.
func filteredParity(t *testing.T, data []byte, res DecodeResult) {
	var events []trace.Event
	takes := 0
	slot := new(trace.Event)
	if _, err := decodeFrames(bytes.NewReader(data), int64(len(data)), nil, nil, func(string) *trace.Event {
		takes++
		*slot = trace.Event{}
		return slot
	}, func(e *trace.Event) error {
		events = append(events, *e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if takes > len(events) {
		// The valid prefix ends at an event frame whose checksum holds
		// and whose header parses but whose body does not decode, or
		// names another actor than the header — only a hand-built frame
		// can be that. A filter that skips the frame never reads its
		// body and reads on; that is push-down's contract, not a
		// difference to test.
		return
	}

	dir := t.TempDir()
	seg := filepath.Join(dir, "seg-00000001.ev")
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath(seg), []byte(`{"version":1,"actors_overflow":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var filters []Filter
	seen := map[string]bool{}
	for _, e := range events {
		if !seen["kind:"+string(e.Kind)] {
			seen["kind:"+string(e.Kind)] = true
			filters = append(filters, Filter{Kinds: []trace.Kind{e.Kind}})
		}
		if a := e.ActorKey(); a != "" && !seen["actor:"+a] {
			seen["actor:"+a] = true
			filters = append(filters, Filter{Actor: a})
		}
	}
	absent := "absent"
	for seen["actor:"+absent] {
		absent += "!"
	}
	filters = append(filters, Filter{Actor: absent})

	for _, f := range filters {
		want := map[string][]string{}
		n := 0
		for i := range events {
			e := &events[i]
			if f.match(e) {
				j, _ := json.Marshal(e)
				want[e.ActorKey()] = append(want[e.ActorKey()], string(j))
				n++
			}
		}
		for _, workers := range []int{1, 3} {
			var mu sync.Mutex
			got := map[string][]string{}
			stats, err := s.Replay(f, workers, 2, func(b []trace.Event) {
				mu.Lock()
				defer mu.Unlock()
				for _, e := range b {
					j, _ := json.Marshal(e)
					got[e.ActorKey()] = append(got[e.ActorKey()], string(j))
				}
			})
			if err != nil {
				t.Fatalf("%+v, workers=%d: replay returned %v", f, workers, err)
			}
			if stats.Events != int64(n) || stats.Decoded+stats.Skipped != int64(len(events)) || stats.TailLossBytes != res.TailLossBytes {
				t.Fatalf("%+v, workers=%d: stats %+v; want %d events, %d frames decoded or skipped, %d lost bytes",
					f, workers, stats, n, len(events), res.TailLossBytes)
			}
			if n > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v, workers=%d: filtered replay per actor\n got %q\nwant %q", f, workers, got, want)
			}
		}
	}
}
