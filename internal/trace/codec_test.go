package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// testDict is a minimal intern/lookup pair mirroring evstore's
// per-segment dictionary: sequential references, everything eligible.
type testDict struct {
	refs  map[string]uint64
	names []string
}

func newTestDict() *testDict { return &testDict{refs: map[string]uint64{}} }

func (d *testDict) intern(s string) (uint64, bool) {
	if ref, ok := d.refs[s]; ok {
		return ref, true
	}
	if len(s) == 0 || len(s) > 128 {
		return 0, false
	}
	ref := uint64(len(d.names))
	d.refs[s] = ref
	d.names = append(d.names, s)
	return ref, true
}

func (d *testDict) lookup(ref uint64) (string, bool) {
	if ref >= uint64(len(d.names)) {
		return "", false
	}
	return d.names[ref], true
}

func sampleEvents() []Event {
	at := time.Date(2026, 6, 1, 9, 30, 0, 123456789, time.UTC)
	return []Event{
		{},
		{Seq: 1, Time: at, Kind: KindAuth, SrcIP: "10.0.0.1", SrcPort: 53211, Op: "deny"},
		{Seq: 2, Time: at.In(time.FixedZone("", -7*3600)), Kind: KindExec, User: "alice", Code: "print(1)", Success: true},
		{Seq: 3, Kind: KindFileOp, User: "bob", Op: "write", Target: "notebooks/x.ipynb", Bytes: -42, Entropy: 7.99},
		{Seq: 1 << 62, Kind: KindHTTP, Method: "GET", Path: "/api/contents", Status: 403, Detail: "token missing"},
		{Kind: KindConn, DstIP: "203.0.113.5", DstPort: 443, CPUMillis: 1500,
			Fields: map[string]string{"tenant": "acme", "rule": "SC-01", "": "empty-key"}},
		{Kind: KindSysRes, KernelID: "k-1", Session: "s-1", MsgType: "execute_request",
			Channel: "shell", WSOpcode: "text"},
	}
}

// TestBinaryEventRoundTrip pins the codec's core contract: decoding
// an encoded event yields an event whose JSON form is byte-identical
// to the original's — with and without a dictionary, so interning is
// provably transparent.
func TestBinaryEventRoundTrip(t *testing.T) {
	for i, e := range sampleEvents() {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}

		// Dictionary-free encoding.
		body := AppendBinaryEvent(nil, e, InternNone)
		got, err := DecodeBinaryEvent(body, e.Kind, nil)
		if err != nil {
			t.Fatalf("event %d: decode: %v", i, err)
		}
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(gotJSON, want) {
			t.Fatalf("event %d inline round trip:\n got %s\nwant %s", i, gotJSON, want)
		}

		// Dictionary encoding must decode to the same event.
		d := newTestDict()
		body = AppendBinaryEvent(nil, e, d.intern)
		got, err = DecodeBinaryEvent(body, e.Kind, d.lookup)
		if err != nil {
			t.Fatalf("event %d: dict decode: %v", i, err)
		}
		gotJSON, _ = json.Marshal(got)
		if !bytes.Equal(gotJSON, want) {
			t.Fatalf("event %d dict round trip:\n got %s\nwant %s", i, gotJSON, want)
		}
	}
}

// TestBinaryEventDictEngages pins that string values actually hit
// the dictionary: a dict-encoded body replaces every eligible string
// with a small reference (so it is smaller than the inline body), and
// re-encoding the same event yields identical bytes — references are
// stable, which is what makes a segment's dictionary reusable.
func TestBinaryEventDictEngages(t *testing.T) {
	e := Event{Seq: 9, Kind: KindFileOp, User: "mallory-rw", Op: "write", Target: "notebooks/exfil.ipynb"}
	d := newTestDict()
	first := AppendBinaryEvent(nil, e, d.intern)
	second := AppendBinaryEvent(nil, e, d.intern)
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encoding with a warm dictionary changed the bytes:\n%x\n%x", first, second)
	}
	inline := AppendBinaryEvent(nil, e, InternNone)
	if len(first) >= len(inline) {
		t.Fatalf("dict body %dB not smaller than inline body %dB; dictionary not engaged", len(first), len(inline))
	}
	if len(d.names) != 3 {
		t.Fatalf("dictionary holds %d entries %v, want the 3 string values", len(d.names), d.names)
	}
}

// TestBinaryStringRoundTrip covers the header helper pair directly,
// including the consumed-byte count the segment reader depends on to
// find the body after peeking kind and actor.
func TestBinaryStringRoundTrip(t *testing.T) {
	d := newTestDict()
	for _, s := range []string{"", "exec", "mallory-rw", string(bytes.Repeat([]byte("x"), 300))} {
		buf := AppendBinaryString(nil, s, d.intern)
		buf = append(buf, "trailing body bytes"...)
		v, inline, n, err := PeekBinaryString(buf)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		got := string(inline)
		if v > 0 {
			if inline != nil {
				t.Fatalf("%q: a dictionary reference also returned inline bytes", s)
			}
			got, _ = d.lookup(v - 1)
		}
		if got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
		if string(buf[n:]) != "trailing body bytes" {
			t.Fatalf("%q: consumed %d bytes, remainder misaligned", s, n)
		}
	}
}

// TestBinaryEventSkipsUnknownFields pins forward compatibility: a
// body carrying field numbers this build has never heard of decodes
// cleanly, with the known fields intact.
func TestBinaryEventSkipsUnknownFields(t *testing.T) {
	e := Event{Seq: 7, Kind: KindExec, User: "alice"}
	body := AppendBinaryEvent(nil, e, InternNone)

	// Splice in future fields of every skippable wire type, then the
	// real tail, so skipping must land exactly on the next tag.
	var future []byte
	future = append(future, byte(29<<3|wireUvarint))
	future = binary.AppendUvarint(future, 12345)
	future = append(future, byte(30<<3|wireString))
	future = AppendBinaryString(future, "from-the-future", InternNone)
	future = append(future, byte(31<<3|wireFlag))
	full := append(future, body...)

	got, err := DecodeBinaryEvent(full, e.Kind, nil)
	if err != nil {
		t.Fatalf("decode with unknown fields: %v", err)
	}
	if got.Seq != 7 || got.User != "alice" {
		t.Fatalf("known fields lost around unknown ones: %+v", got)
	}
}

// TestBinaryEventCorruptInputs pins the error contract: corrupt
// bodies return an error — never a panic, never a partial event.
func TestBinaryEventCorruptInputs(t *testing.T) {
	e := Event{Seq: 5, Kind: KindExec, User: "alice", Target: "t", Fields: map[string]string{"a": "b"}}
	body := AppendBinaryEvent(nil, e, InternNone)
	cases := map[string][]byte{
		"truncated body":    body[:len(body)-2],
		"dangling dict ref": {byte(fUser<<3 | wireString), 0x05},
		"string overrun":    {byte(fUser<<3 | wireString), 0x00, 0xff},
		"huge map count":    {byte(fFields<<3 | wireMap), 0xff, 0xff, 0x03},
		"bad wire type":     {byte(28<<3 | 7)},
		"nanos overflow":    {byte(fTime<<3 | wireTime), 0x00, 0xff, 0xff, 0xff, 0xff, 0x07, 0x00},
	}
	for name, data := range cases {
		if _, err := DecodeBinaryEvent(data, KindExec, nil); err == nil {
			t.Fatalf("%s: corrupt body decoded cleanly", name)
		}
	}
}

// FuzzBinaryCodec is the differential fuzz target: for any event the
// fuzzer can express, the binary round trip must agree byte-for-byte
// (in JSON form) with the JSON round trip — the property that lets v1
// and v2 segments replay identically. Both the dictionary-free and
// dictionary encodings are checked against the same oracle.
func FuzzBinaryCodec(f *testing.F) {
	f.Add(uint64(1), int64(1748768400), int64(123456789), 0, "exec", "10.0.0.1", "alice", "GET", "/api", 403, "print(1)", "write", "nb.ipynb", int64(-9), 3.14, true, "detail", int64(7), "k", "v")
	f.Add(uint64(0), int64(0), int64(0), 0, "", "", "", "", "", 0, "", "", "", int64(0), 0.0, false, "", int64(0), "", "")
	f.Add(^uint64(0), int64(-62135596800), int64(999999999), -7*60, "auth", "::1", "müller", "POST", "/p", -1, "x", "y", "z", int64(1<<40), -0.0, true, "", int64(-5), "key", "")

	f.Fuzz(func(t *testing.T, seq uint64, sec, nanos int64, offMin int,
		kind, srcIP, user, method, path string, status int,
		code, op, target string, byteCount int64, entropy float64, success bool,
		detail string, cpu int64, fieldK, fieldV string) {
		// JSON is lossy on invalid UTF-8 (bytes collapse to U+FFFD on
		// marshal) where the binary codec is byte-faithful; sanitize the
		// inputs so both codecs see what JSON can express and the
		// differential property is exact.
		for _, p := range []*string{&kind, &srcIP, &user, &method, &path, &code, &op, &target, &detail, &fieldK, &fieldV} {
			*p = strings.ToValidUTF8(*p, "�")
		}
		// Constrain the time to what RFC3339 JSON can express: years in
		// range and a whole-minute zone offset (the binary codec keeps
		// second-granularity offsets, JSON cannot).
		sec %= 4_000_000_000
		if sec < 0 {
			sec = -sec
		}
		if nanos < 0 {
			nanos = -nanos
		}
		loc := time.UTC
		if offMin %= 18 * 60; offMin != 0 {
			loc = time.FixedZone("", offMin*60)
		}
		e := Event{
			Seq: seq, Time: time.Unix(sec, nanos%1e9).In(loc), Kind: Kind(kind),
			SrcIP: srcIP, User: user, Method: method, Path: path, Status: status,
			Code: code, Op: op, Target: target, Bytes: byteCount, Entropy: entropy,
			Success: success, Detail: detail, CPUMillis: cpu,
		}
		if fieldK != "" || fieldV != "" {
			e.Fields = map[string]string{fieldK: fieldV}
		}

		// Oracle: the JSON round trip.
		jsonBytes, err := json.Marshal(e)
		if err != nil {
			t.Skip("event not JSON-expressible")
		}
		var viaJSON Event
		if err := json.Unmarshal(jsonBytes, &viaJSON); err != nil {
			t.Fatalf("json round trip: %v", err)
		}
		want, _ := json.Marshal(viaJSON)

		check := func(label string, intern Intern, lookup Lookup) {
			body := AppendBinaryEvent(nil, e, intern)
			viaBinary, err := DecodeBinaryEvent(body, e.Kind, lookup)
			if err != nil {
				t.Fatalf("%s: decode: %v", label, err)
			}
			got, _ := json.Marshal(viaBinary)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round trip diverged from JSON:\n got %s\nwant %s", label, got, want)
			}
		}
		check("inline", InternNone, nil)
		d := newTestDict()
		check("dict", d.intern, d.lookup)
	})
}
