package histstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/rules"
)

// FuzzHistRecord checks the codec's canonical-form contract: any
// payload that decodes must re-encode to a stable byte string —
// decode(encode(decode(input))) is a fixed point. A violation means
// two different byte strings claim the same record (or a decoded
// record that cannot be re-persisted), which would break the
// dedup-by-content reasoning the query layer depends on. It also holds
// DecodeRecord to refDecode, a plain field-by-field walk of the same
// format: both must accept the same payloads and agree on every field.
func FuzzHistRecord(f *testing.F) {
	seed := []Record{
		{Kind: KindAlert, Alert: AlertRecord{
			Time:  time.Date(2026, 6, 1, 9, 0, 0, 123456789, time.UTC),
			Actor: "mallory-rw", Class: "ransomware.encrypt",
			RuleID: "SC-014", Severity: rules.SevCritical, Count: 12,
		}},
		{Kind: KindAlert, Alert: AlertRecord{}},
		{Kind: KindIncident, Incident: IncidentRecord{
			Actor: "203.0.113.66", Class: "auth.bruteforce", Gen: 3,
			Opened:    time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC),
			LastAlert: time.Date(2026, 6, 1, 9, 30, 0, 500, time.UTC),
			Alerts:    40, Severity: rules.SevHigh, RiskScore: 87.25,
		}},
		{Kind: KindIncident, Incident: IncidentRecord{Actor: "a", Class: "c"}},
	}
	for _, r := range seed {
		enc, err := AppendRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{KindAlert, RecordVersion})
	f.Add([]byte{KindIncident, RecordVersion + 1, 0xff})
	for _, p := range varintEdgePayloads() {
		f.Add(p)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		ref, refErr := refDecode(payload)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeRecord err %v, reference err %v, payload %x", err, refErr, payload)
		}
		if err != nil {
			return // rejected input: fine, as long as it never panics
		}
		if !sameRecord(rec, ref) {
			t.Fatalf("DecodeRecord and reference disagree on %x:\n got %+v\nwant %+v", payload, rec, ref)
		}
		enc1, err := AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v (%+v)", err, rec)
		}
		rec2, err := DecodeRecord(enc1)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v (%+v)", err, rec)
		}
		enc2, err := AppendRecord(nil, rec2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encoding not canonical:\nfirst  %x\nsecond %x\nrecord %+v", enc1, enc2, rec)
		}
	})
}

// sameRecord compares two records field by field, times with ==, and
// the risk score by its bits so a NaN read from the payload equals
// itself.
func sameRecord(a, b Record) bool {
	if math.Float64bits(a.Incident.RiskScore) != math.Float64bits(b.Incident.RiskScore) {
		return false
	}
	a.Incident.RiskScore, b.Incident.RiskScore = 0, 0
	return a == b
}

// Payload builders for hand-made records: each field is given as its
// encoded bytes, so a test can place any varint, valid or not.
func uvBytes(x uint64) []byte { return binary.AppendUvarint(nil, x) }

func timeBytes(sec int64, nsec uint64) []byte {
	return binary.AppendUvarint(binary.AppendVarint([]byte{1}, sec), nsec)
}

func appendStr(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func alertPayload(tm, count []byte) []byte {
	p := append([]byte{KindAlert, RecordVersion}, tm...)
	for _, s := range []string{"actor", "class", "rule", "high"} {
		p = appendStr(p, s)
	}
	return append(p, count...)
}

func incidentPayload(gen, count []byte) []byte {
	p := appendStr(appendStr([]byte{KindIncident, RecordVersion}, "actor"), "class")
	p = append(append(p, gen...), 0, 0)
	p = appendStr(append(p, count...), "low")
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(12.5))
}

// zeroUnix is the zero time.Time's Unix second.
const zeroUnix = -62135596800

// overflowVarint is ten bytes whose last holds more than the 64th bit.
var overflowVarint = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}

// varintEdgePayloads are records whose varints sit at the edges of the
// decoder's paths: one byte, the 8-byte load, the binary.Uvarint
// fallback for 9- and 10-byte values and for values ending within the
// last 8 bytes of the payload, overflow, and the count, gen, nanosecond
// and zero-time bounds.
func varintEdgePayloads() [][]byte {
	nonMinimal := []byte{0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00} // 5 in 9 bytes
	none := []byte{0}
	return [][]byte{
		alertPayload(none, uvBytes(1<<56)),          // 9 bytes, ends the payload
		alertPayload(none, uvBytes(math.MaxUint64)), // 10 bytes
		alertPayload(none, overflowVarint),
		alertPayload(none, nonMinimal),
		alertPayload(timeBytes(1<<55, 5), uvBytes(1)), // 9-byte seconds
		alertPayload(none, uvBytes(maxCount-1)),       // 5 bytes within the last 8
		alertPayload(none, uvBytes(maxCount)),
		incidentPayload(uvBytes(maxCount-1), uvBytes(1)), // on the 8-byte load
		incidentPayload(uvBytes(maxCount), uvBytes(1)),
		incidentPayload(uvBytes(1), uvBytes(maxCount-1)),
		incidentPayload(uvBytes(1), uvBytes(maxCount)),
		alertPayload(timeBytes(1780304400, 1e9-1), uvBytes(3)),
		alertPayload(timeBytes(1780304400, 1e9), uvBytes(3)),
		alertPayload(timeBytes(zeroUnix, 0), uvBytes(3)), // the zero instant, presence 1
		alertPayload(timeBytes(zeroUnix, 1), uvBytes(3)),
		alertPayload(timeBytes(math.MinInt64, 0), uvBytes(3)),
		alertPayload(timeBytes(1780304400, 127), uvBytes(16383)),
		alertPayload(timeBytes(1780304400, 128), uvBytes(16384)),
	}
}

// refDecode is the reference decoder: each field is read by a method of
// a reader holding the offset and a sticky error, in the order
// AppendRecord writes them, with every check stated where the field is
// read.
func refDecode(payload []byte) (Record, error) {
	if len(payload) < 2 {
		return Record{}, fmt.Errorf("record too short")
	}
	kind, version := payload[0], payload[1]
	if version != RecordVersion {
		return Record{}, fmt.Errorf("unknown record version %d", version)
	}
	rd := recReader{buf: payload, off: 2}
	var r Record
	switch kind {
	case KindAlert:
		r = Record{Kind: KindAlert, Alert: AlertRecord{
			Time: rd.time(), Actor: rd.str(), Class: rd.str(), RuleID: rd.str(),
			Severity: rules.Severity(rd.str()), Count: rd.count(),
		}}
	case KindIncident:
		r = Record{Kind: KindIncident, Incident: IncidentRecord{
			Actor: rd.str(), Class: rd.str(), Gen: rd.count(),
			Opened: rd.time(), LastAlert: rd.time(), Alerts: rd.count(),
			Severity: rules.Severity(rd.str()), RiskScore: math.Float64frombits(rd.u64()),
		}}
	default:
		return Record{}, fmt.Errorf("unknown record kind %d", kind)
	}
	if rd.err != nil {
		return Record{}, rd.err
	}
	if rd.off != len(payload) {
		return Record{}, fmt.Errorf("%d trailing bytes after record", len(payload)-rd.off)
	}
	return r, nil
}

type recReader struct {
	buf []byte
	off int
	err error
}

func (rd *recReader) fail(msg string) {
	if rd.err == nil {
		rd.err = fmt.Errorf("%s", msg)
	}
}

func (rd *recReader) uvarint() uint64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Uvarint(rd.buf[rd.off:])
	if n <= 0 {
		rd.fail("bad uvarint")
		return 0
	}
	rd.off += n
	return v
}

func (rd *recReader) varint() int64 {
	if rd.err != nil {
		return 0
	}
	v, n := binary.Varint(rd.buf[rd.off:])
	if n <= 0 {
		rd.fail("bad varint")
		return 0
	}
	rd.off += n
	return v
}

func (rd *recReader) str() string {
	n := rd.uvarint()
	if rd.err != nil {
		return ""
	}
	if n > uint64(len(rd.buf)-rd.off) {
		rd.fail("string length past end of record")
		return ""
	}
	s := string(rd.buf[rd.off : rd.off+int(n)])
	rd.off += int(n)
	return s
}

func (rd *recReader) count() int {
	v := rd.uvarint()
	if rd.err == nil && v >= maxCount {
		rd.fail("implausible count")
	}
	return int(v)
}

func (rd *recReader) u64() uint64 {
	if rd.err != nil {
		return 0
	}
	if len(rd.buf)-rd.off < 8 {
		rd.fail("short fixed64")
		return 0
	}
	v := binary.LittleEndian.Uint64(rd.buf[rd.off:])
	rd.off += 8
	return v
}

func (rd *recReader) time() time.Time {
	if rd.err != nil {
		return time.Time{}
	}
	if rd.off >= len(rd.buf) {
		rd.fail("missing time presence byte")
		return time.Time{}
	}
	presence := rd.buf[rd.off]
	rd.off++
	switch presence {
	case 0:
		return time.Time{}
	case 1:
		sec := rd.varint()
		nsec := rd.uvarint()
		if rd.err != nil {
			return time.Time{}
		}
		if nsec >= 1e9 {
			rd.fail("nanoseconds out of range")
			return time.Time{}
		}
		t := time.Unix(sec, int64(nsec)).UTC()
		if t.IsZero() {
			rd.fail("non-canonical zero time")
			return time.Time{}
		}
		return t
	}
	rd.fail("bad time presence byte")
	return time.Time{}
}
