package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestArenaStringCopiesAndSurvivesSourceReuse pins the core arena
// contract: the returned string is a copy, so the caller may reuse
// its input buffer immediately, and the string stays stable across
// later arena activity (append-only, never rewound).
func TestArenaStringCopiesAndSurvivesSourceReuse(t *testing.T) {
	var a Arena
	buf := []byte("first-value")
	s1 := a.String(buf)
	copy(buf, []byte("xxxxxxxxxxx"))
	if s1 != "first-value" {
		t.Fatalf("arena string mutated by source reuse: %q", s1)
	}
	var got []string
	for i := 0; i < 50000; i++ { // force several chunk rollovers
		got = append(got, a.String([]byte(fmt.Sprintf("value-%05d", i))))
	}
	if s1 != "first-value" {
		t.Fatalf("arena string mutated by later appends: %q", s1)
	}
	for i, s := range got {
		if want := fmt.Sprintf("value-%05d", i); s != want {
			t.Fatalf("string %d: got %q want %q", i, s, want)
		}
	}
	strs, bytes, chunks := a.Stats()
	if strs != 50001 {
		t.Fatalf("strings stat = %d", strs)
	}
	if bytes == 0 || chunks == 0 {
		t.Fatalf("stats not tracked: bytes=%d chunks=%d", bytes, chunks)
	}
	if chunks >= strs/100 {
		t.Fatalf("arena not amortizing: %d chunks for %d strings", chunks, strs)
	}
}

// TestArenaOversizedValueSpansDedicatedChunk covers values larger
// than the standard chunk: they get an exact-size chunk and the next
// small value does not land in it wastefully.
func TestArenaOversizedValueSpansDedicatedChunk(t *testing.T) {
	var a Arena
	small := a.String([]byte("small"))
	big := a.String([]byte(strings.Repeat("B", arenaChunkSize*2+17)))
	after := a.String([]byte("after"))
	if small != "small" || after != "after" {
		t.Fatalf("small strings corrupted around oversized value")
	}
	if len(big) != arenaChunkSize*2+17 || big[0] != 'B' || big[len(big)-1] != 'B' {
		t.Fatalf("oversized value corrupted: len=%d", len(big))
	}
}

// TestArenaResetKeepsOldStrings: Reset drops the chunk reference but
// never reuses memory, so strings handed out before Reset stay valid.
func TestArenaResetKeepsOldStrings(t *testing.T) {
	var a Arena
	s := a.String([]byte("keep-me"))
	a.Reset()
	for i := 0; i < 1000; i++ {
		a.String([]byte("overwrite-attempt"))
	}
	if s != "keep-me" {
		t.Fatalf("Reset invalidated prior string: %q", s)
	}
}

// TestBytesToStringFallback proves the safe fallback is behaviorally
// identical to the unsafe.String fast path.
func TestBytesToStringFallback(t *testing.T) {
	defer func() { zeroCopyStrings = true }()
	for _, mode := range []bool{true, false} {
		zeroCopyStrings = mode
		if got := bytesToString(nil); got != "" {
			t.Fatalf("mode=%v: nil -> %q", mode, got)
		}
		if got := bytesToString([]byte{}); got != "" {
			t.Fatalf("mode=%v: empty -> %q", mode, got)
		}
		if got := bytesToString([]byte("hello")); got != "hello" {
			t.Fatalf("mode=%v: got %q", mode, got)
		}
	}
}

// TestDecodeBinaryEventArenaMatchesPlainDecode is the trace-layer
// differential: for every sample event, with and without dictionary,
// the arena decode yields JSON byte-identical to the plain decode.
func TestDecodeBinaryEventArenaMatchesPlainDecode(t *testing.T) {
	for _, withDict := range []bool{false, true} {
		intern, lookup := InternNone, Lookup(nil)
		if withDict {
			d := newTestDict()
			intern, lookup = d.intern, d.lookup
		}
		var arena Arena
		for i, e := range sampleEvents() {
			body := AppendBinaryEvent(nil, e, intern)
			plain, err := DecodeBinaryEvent(body, e.Kind, lookup)
			if err != nil {
				t.Fatalf("dict=%v event %d: plain decode: %v", withDict, i, err)
			}
			var viaArena Event
			if err := viaArena.DecodeBinary(body, e.Kind, lookup, &arena); err != nil {
				t.Fatalf("dict=%v event %d: arena decode: %v", withDict, i, err)
			}
			pj, _ := json.Marshal(plain)
			aj, _ := json.Marshal(viaArena)
			if string(pj) != string(aj) {
				t.Fatalf("dict=%v event %d: arena decode diverged:\nplain %s\narena %s",
					withDict, i, pj, aj)
			}
		}
	}
}

// TestDecodeBinaryEventArenaAllocs pins the tentpole claim at the
// codec layer: decoding an inline-string-heavy event in place with an
// arena performs zero per-event heap allocations once the arena's
// chunk exists.
func TestDecodeBinaryEventArenaAllocs(t *testing.T) {
	e := Event{
		Seq: 7, Kind: KindExec, SrcIP: "198.51.100.7", User: "mallory",
		Session: "sess-0123456789", Path: "/api/kernels/abcdef", Method: "POST",
		Code: strings.Repeat("import os; os.system('id'); ", 12), // > maxInternLen, always inline
		Op:   "execute", Target: "kernel", Detail: "suspicious exec",
	}
	body := AppendBinaryEvent(nil, e, InternNone)
	var arena Arena
	arena.String(make([]byte, 1)) // pre-create the chunk
	var sink Event
	allocs := testing.AllocsPerRun(200, func() {
		sink = Event{}
		if err := sink.DecodeBinary(body, KindExec, nil, &arena); err != nil {
			t.Fatal(err)
		}
	})
	// Chunk rollovers amortize to well under one allocation per event;
	// anything ≥1 means a per-string allocation crept back in.
	if allocs >= 1 {
		t.Fatalf("arena decode allocates %.1f/op; want amortized <1", allocs)
	}
	plainAllocs := testing.AllocsPerRun(200, func() {
		ev, err := DecodeBinaryEvent(body, KindExec, nil)
		if err != nil {
			t.Fatal(err)
		}
		sink = ev
	})
	if plainAllocs <= allocs {
		t.Fatalf("expected plain decode (%.1f allocs/op) to exceed arena decode (%.1f)",
			plainAllocs, allocs)
	}
}
