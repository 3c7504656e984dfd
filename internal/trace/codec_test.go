package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
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
	future = append(future, byte(25<<3|wireZigzag))
	future = binary.AppendVarint(future, -98765)
	future = append(future, byte(26<<3|wireFixed64))
	future = binary.LittleEndian.AppendUint64(future, math.Float64bits(2.5))
	future = append(future, byte(27<<3|wireTime))
	future = binary.AppendVarint(future, 1780304400)
	future = binary.AppendUvarint(future, 123456789)
	future = binary.AppendVarint(future, -7*3600)
	future = append(future, byte(28<<3|wireMap))
	future = binary.AppendUvarint(future, 2)
	for _, s := range []string{"k1", "v1", "k2", ""} {
		future = AppendBinaryString(future, s, InternNone)
	}
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

// bodyCase is a hand-made body and what it must decode to; a nil want
// means the body must be rejected.
type bodyCase struct {
	name string
	body []byte
	want *Event
}

// bodyCases are corrupt bodies, and bodies one step inside and one step
// outside each bound the decoder checks. They decode with no
// dictionary, as KindExec.
func bodyCases() []bodyCase {
	e := Event{Seq: 5, Kind: KindExec, User: "alice", Target: "t", Fields: map[string]string{"a": "b"}}
	body := AppendBinaryEvent(nil, e, InternNone)
	field := func(field, wire int, parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{{tag(field, wire)}}, parts...), nil)
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	zz := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	at := func(sec, nsec int64, off int) *Event {
		loc := time.UTC
		if off != 0 {
			loc = time.FixedZone("", off)
		}
		return &Event{Kind: KindExec, Time: time.Unix(sec, nsec).In(loc)}
	}
	seq := func(v uint64) *Event { return &Event{Kind: KindExec, Seq: v} }
	ones := func(n int) []byte { return bytes.Repeat([]byte{0xff}, n) }
	nonMinimal := []byte{0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00} // 5 in 9 bytes
	alice := field(fUser, wireString, AppendBinaryString(nil, "alice", InternNone))
	return []bodyCase{
		{"truncated body", body[:len(body)-2], nil},
		{"dangling dict ref", []byte{tag(fUser, wireString), 0x05}, nil},
		{"string overrun", []byte{tag(fUser, wireString), 0x00, 0xff}, nil},
		{"huge map count", []byte{tag(fFields, wireMap), 0xff, 0xff, 0x03}, nil},
		{"bad wire type", []byte{byte(28<<3 | 7)}, nil},
		{"nanos overflow", []byte{tag(fTime, wireTime), 0x00, 0xff, 0xff, 0xff, 0xff, 0x07, 0x00}, nil},

		{"nanos 999999999", field(fTime, wireTime, zz(0), uv(1e9-1), zz(0)), at(0, 1e9-1, 0)},
		{"nanos 1e9", field(fTime, wireTime, zz(0), uv(1e9), zz(0)), nil},
		{"zone +64800", field(fTime, wireTime, zz(60), uv(0), zz(64800)), at(60, 0, 64800)},
		{"zone -64800", field(fTime, wireTime, zz(60), uv(0), zz(-64800)), at(60, 0, -64800)},
		{"zone +64801", field(fTime, wireTime, zz(60), uv(0), zz(64801)), nil},
		{"zone -64801", field(fTime, wireTime, zz(60), uv(0), zz(-64801)), nil},

		// A map entry takes at least two bytes, so only an empty map
		// meets the count bound exactly; a count at the bound with
		// entries missing fails on the entries instead.
		{"map count equal to bytes left", field(fFields, wireMap, uv(0)), &Event{Kind: KindExec, Fields: map[string]string{}}},
		{"map count one past bytes left", field(fFields, wireMap, uv(1)), nil},
		{"map entries short of their count", field(fFields, wireMap, uv(4), []byte{0, 0, 0, 0}), nil},
		{"map of one entry", field(fFields, wireMap, uv(1), []byte{0, 0, 0, 0}), &Event{Kind: KindExec, Fields: map[string]string{"": ""}}},

		{"seq 9-byte varint", field(fSeq, wireUvarint, uv(1<<56)), seq(1 << 56)},
		{"seq 10-byte varint", field(fSeq, wireUvarint, uv(math.MaxUint64)), seq(math.MaxUint64)},
		{"seq non-minimal varint", field(fSeq, wireUvarint, nonMinimal), seq(5)},
		{"seq non-minimal varint on the 8-byte load", field(fSeq, wireUvarint, []byte{0x85, 0x80, 0x00}, alice),
			&Event{Kind: KindExec, Seq: 5, User: "alice"}},
		{"seq 10-byte varint overflow", field(fSeq, wireUvarint, ones(9), []byte{0x02}), nil},
		{"seq 11-byte varint", field(fSeq, wireUvarint, bytes.Repeat([]byte{0x80}, 10), []byte{0x00}), nil},

		{"unknown fixed64", field(29, wireFixed64, ones(8)), &Event{Kind: KindExec}},
		{"unknown fixed64 truncated", field(29, wireFixed64, ones(7)), nil},
		{"unknown time", field(29, wireTime, zz(0), uv(0), zz(0)), &Event{Kind: KindExec}},
		{"unknown time truncated", field(29, wireTime, zz(0), uv(0)), nil},
	}
}

// TestBinaryEventCorruptInputs pins the error contract: corrupt
// bodies return an error and the zero Event — never a panic, never a
// partial event — and a body one step inside a bound decodes to
// exactly what it encodes.
func TestBinaryEventCorruptInputs(t *testing.T) {
	for _, c := range bodyCases() {
		got, err := DecodeBinaryEvent(c.body, KindExec, nil)
		switch {
		case c.want == nil && err == nil:
			t.Errorf("%s: corrupt body decoded cleanly: %+v", c.name, got)
		case c.want == nil && !reflect.DeepEqual(got, Event{}):
			t.Errorf("%s: error %v came with a partial event %+v", c.name, err, got)
		case c.want != nil && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != nil && !sameEvent(got, *c.want):
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, *c.want)
		}
	}
}

// sameEvent compares two events on every field: times by instant and
// zone offset, Entropy by its bits so a NaN read from a body equals
// itself, and the rest, Fields included, with reflect.DeepEqual.
func sameEvent(a, b Event) bool {
	_, aOff := a.Time.Zone()
	_, bOff := b.Time.Zone()
	if !a.Time.Equal(b.Time) || aOff != bOff || math.Float64bits(a.Entropy) != math.Float64bits(b.Entropy) {
		return false
	}
	a.Time, b.Time, a.Entropy, b.Entropy = time.Time{}, time.Time{}, 0, 0
	return reflect.DeepEqual(a, b)
}

// fuzzDict is FuzzBinaryDecode's fixed dictionary; fuzzIntern
// references exactly its entries and inlines every other string.
var fuzzDict = []string{"alice", "10.0.0.1", "shell"}

func fuzzIntern(s string) (uint64, bool) {
	for i, d := range fuzzDict {
		if s == d {
			return uint64(i), true
		}
	}
	return 0, false
}

func fuzzLookup(ref uint64) (string, bool) {
	if ref >= uint64(len(fuzzDict)) {
		return "", false
	}
	return fuzzDict[ref], true
}

// FuzzBinaryDecode holds DecodeBinary to refDecodeBinary, the
// pointer-and-sticky-error walk it replaced, on arbitrary bodies: with
// and without an arena, both must accept the same bodies and, when both
// accept, agree on every field.
func FuzzBinaryDecode(f *testing.F) {
	for _, e := range sampleEvents() {
		f.Add(AppendBinaryEvent(nil, e, InternNone))
		f.Add(AppendBinaryEvent(nil, e, fuzzIntern))
	}
	for _, c := range bodyCases() {
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, arena := range []*Arena{nil, new(Arena)} {
			var got, want Event
			err := got.DecodeBinary(body, KindExec, fuzzLookup, arena)
			refErr := refDecodeBinary(&want, body, KindExec, fuzzLookup, arena)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("arena %v: DecodeBinary err %v, reference err %v, body %x", arena != nil, err, refErr, body)
			}
			if err == nil && !sameEvent(got, want) {
				t.Fatalf("arena %v: DecodeBinary and reference disagree on %x:\n got %+v\nwant %+v", arena != nil, body, got, want)
			}
		}
	})
}

// FuzzBinaryCodec is the differential fuzz target: for any event the
// fuzzer can express, the binary round trip must agree byte-for-byte
// (in JSON form) with the JSON round trip. Both the dictionary-free
// and dictionary encodings are checked against the same oracle.
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

// refDecodeBinary is the reference body decoder: each value is read by
// a method of a reader holding the offset and a sticky error, and an
// unknown field is skipped by a switch on its wire type.
func refDecodeBinary(e *Event, data []byte, kind Kind, lookup Lookup, arena *Arena) error {
	if lookup == nil {
		lookup = func(uint64) (string, bool) { return "", false }
	}
	e.Kind = kind
	r := &refReader{data: data, arena: arena}
	for !r.done() {
		t := r.byte()
		field, wire := int(t>>3), int(t&7)
		switch field {
		case fSeq:
			e.Seq = r.uvarint()
		case fTime:
			e.Time = r.time()
		case fSrcIP:
			e.SrcIP = r.string(lookup)
		case fSrcPort:
			e.SrcPort = int(r.zigzag())
		case fDstIP:
			e.DstIP = r.string(lookup)
		case fDstPort:
			e.DstPort = int(r.zigzag())
		case fUser:
			e.User = r.string(lookup)
		case fSession:
			e.Session = r.string(lookup)
		case fMethod:
			e.Method = r.string(lookup)
		case fPath:
			e.Path = r.string(lookup)
		case fStatus:
			e.Status = int(r.zigzag())
		case fWSOpcode:
			e.WSOpcode = r.string(lookup)
		case fMsgType:
			e.MsgType = r.string(lookup)
		case fChannel:
			e.Channel = r.string(lookup)
		case fKernelID:
			e.KernelID = r.string(lookup)
		case fCode:
			e.Code = r.string(lookup)
		case fOp:
			e.Op = r.string(lookup)
		case fTarget:
			e.Target = r.string(lookup)
		case fBytes:
			e.Bytes = r.zigzag()
		case fEntropy:
			e.Entropy = math.Float64frombits(r.fixed64())
		case fSuccess:
			e.Success = true
		case fDetail:
			e.Detail = r.string(lookup)
		case fCPUMillis:
			e.CPUMillis = r.zigzag()
		case fFields:
			n := r.uvarint()
			if r.err != nil {
				break
			}
			if n > uint64(len(r.data)-r.pos) {
				r.fail("map of %d entries overruns body", n)
				break
			}
			m := make(map[string]string, n)
			for i := uint64(0); i < n && r.err == nil; i++ {
				k := r.string(lookup)
				m[k] = r.string(lookup)
			}
			if r.err == nil {
				e.Fields = m
			}
		default:
			r.skip(wire, lookup)
		}
	}
	return r.err
}

type refReader struct {
	data  []byte
	pos   int
	err   error
	arena *Arena
}

func (r *refReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *refReader) done() bool { return r.err != nil || r.pos >= len(r.data) }

func (r *refReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("binary event truncated")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *refReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *refReader) zigzag() int64 {
	v := r.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *refReader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.fail("binary event truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *refReader) string(lookup Lookup) string {
	v := r.uvarint()
	if r.err != nil {
		return ""
	}
	if v > 0 {
		s, ok := lookup(v - 1)
		if !ok {
			r.fail("dangling dictionary reference %d", v-1)
			return ""
		}
		return s
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail("string of %d bytes overruns body", n)
		return ""
	}
	var s string
	if r.arena != nil {
		s = r.arena.String(r.data[r.pos : r.pos+int(n)])
	} else {
		s = string(r.data[r.pos : r.pos+int(n)])
	}
	r.pos += int(n)
	return s
}

func (r *refReader) time() time.Time {
	sec := r.zigzag()
	nanos := r.uvarint()
	off := r.zigzag()
	if r.err != nil {
		return time.Time{}
	}
	if nanos >= 1e9 {
		r.fail("nanoseconds %d out of range", nanos)
		return time.Time{}
	}
	loc := time.UTC
	if off != 0 {
		if off < -18*3600 || off > 18*3600 {
			r.fail("zone offset %d out of range", off)
			return time.Time{}
		}
		loc = time.FixedZone("", int(off))
	}
	return time.Unix(sec, int64(nanos)).In(loc)
}

func (r *refReader) skip(wire int, lookup Lookup) {
	switch wire {
	case wireUvarint, wireZigzag:
		r.uvarint()
	case wireString:
		r.string(lookup)
	case wireFixed64:
		r.fixed64()
	case wireTime:
		r.uvarint()
		r.uvarint()
		r.uvarint()
	case wireMap:
		n := r.uvarint()
		if n > uint64(len(r.data)-r.pos) {
			r.fail("map of %d entries overruns body", n)
			return
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			r.string(lookup)
			r.string(lookup)
		}
	case wireFlag:
		// no payload
	default:
		r.fail("unknown wire type %d", wire)
	}
}
