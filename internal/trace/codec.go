package trace

// Binary event codec: the compact tagged encoding evstore's v2
// segment format carries instead of JSON. JSON stays the interchange
// format everywhere a human or another tool reads the bytes (.jsonl
// files, sidecar indexes, /stats); this codec exists purely so the hot
// append/replay paths stop paying json.Marshal/Unmarshal per event.
//
// Layout: a sequence of (tag, value) pairs, one per populated field,
// terminated by the end of the (length-delimited) buffer. A tag byte
// is fieldNum<<3 | wireType, protobuf-style, so a reader that knows
// the wire types can skip fields it has no name for — the schema can
// grow without a new segment version. Zero-valued fields are omitted,
// mirroring the JSON encoding's omitempty semantics: an event decoded
// from its binary form marshals to the same JSON as one decoded from
// its JSON form.
//
// String values go through an Intern hook so a per-segment dictionary
// (owned by evstore) can replace high-repetition values — users,
// paths, IPs, opcodes — with small references:
//
//	uvarint v:  v == 0 → inline: uvarint length, then raw bytes
//	            v >= 1 → dictionary reference v-1
//
// The event's Kind is NOT part of the body: the segment frame header
// carries it (with the actor key) so a filtered replay can skip the
// body decode entirely for non-matching events.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"
)

// Wire types, in the low 3 bits of every tag byte. A decoder can skip
// any (even unknown-field) value from the wire type alone.
const (
	wireUvarint = 0 // uvarint
	wireZigzag  = 1 // zigzag-encoded varint (signed)
	wireString  = 2 // uvarint ref-or-0, then inline uvarint len + bytes
	wireFixed64 = 3 // 8 bytes little-endian
	wireTime    = 4 // zigzag seconds, uvarint nanos, zigzag zone offset
	wireMap     = 5 // uvarint count, then count × (string key, string value)
	wireFlag    = 6 // no payload; presence means true
)

// Field numbers. Append-only: a number is never reused or retyped, so
// old readers skip fields added by newer writers.
const (
	fSeq       = 1  // uvarint
	fTime      = 2  // time
	fSrcIP     = 3  // string
	fSrcPort   = 4  // zigzag
	fDstIP     = 5  // string
	fDstPort   = 6  // zigzag
	fUser      = 7  // string
	fSession   = 8  // string
	fMethod    = 9  // string
	fPath      = 10 // string
	fStatus    = 11 // zigzag
	fWSOpcode  = 12 // string
	fMsgType   = 13 // string
	fChannel   = 14 // string
	fKernelID  = 15 // string
	fCode      = 16 // string
	fOp        = 17 // string
	fTarget    = 18 // string
	fBytes     = 19 // zigzag
	fEntropy   = 20 // fixed64
	fSuccess   = 21 // flag
	fDetail    = 22 // string
	fCPUMillis = 23 // zigzag
	fFields    = 24 // map
)

// Intern maps a string value to a dictionary reference. ok == false
// means "encode inline" — the callback owns the policy (too long, too
// rare, dictionary full). The zero-alloc fast path is ok == true for
// a string the dictionary already holds.
type Intern func(s string) (ref uint64, ok bool)

// Lookup resolves a dictionary reference written by the matching
// Intern. ok == false marks the reference dangling, which a decoder
// must treat as corruption, never as an empty string.
type Lookup func(ref uint64) (s string, ok bool)

// InternNone inlines every string — the dictionary-free encoding.
var InternNone Intern = func(string) (uint64, bool) { return 0, false }

func tag(field, wire int) byte { return byte(field<<3 | wire) }

func appendZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// AppendBinaryString appends one ref-or-inline string value — the
// same encoding string fields use inside a body. Exported because the
// v2 frame header (kind + actor key) is built from it too.
func AppendBinaryString(dst []byte, s string, intern Intern) []byte {
	if ref, ok := intern(s); ok {
		return binary.AppendUvarint(dst, ref+1)
	}
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// PeekBinaryString reads the ref-or-inline string value at the front
// of data without resolving or copying it: v is the value's leading
// uvarint — 0 for an inline string, whose bytes come back as a slice of
// data, or v-1 for a dictionary reference — and n how many bytes it
// took. The counterpart of AppendBinaryString, used by the segment
// reader to judge a v2 frame's kind and actor key before it builds a
// string from either.
func PeekBinaryString(data []byte) (v uint64, inline []byte, n int, err error) {
	if v, n = binary.Uvarint(data); n > 0 && v > 0 {
		return v, nil, n, nil
	}
	r := binReader{data: data}
	r.uvarint() // 0, or a bad varint
	l := r.uvarint()
	if r.err == nil && l > uint64(len(data)-r.pos) {
		r.fail("trace: string of %d bytes overruns body", l)
	}
	if r.err != nil {
		return 0, nil, 0, r.err
	}
	return 0, data[r.pos : r.pos+int(l)], r.pos + int(l), nil
}

// appendStringField emits nothing for "", matching JSON omitempty.
func appendStringField(dst []byte, field int, s string, intern Intern) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, tag(field, wireString))
	return AppendBinaryString(dst, s, intern)
}

func appendZigzagField(dst []byte, field int, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, tag(field, wireZigzag))
	return appendZigzag(dst, v)
}

// AppendBinaryEvent appends the binary body of e to dst and returns
// the extended slice. The Kind is deliberately excluded — the caller
// (the segment writer) stores it in the frame header for push-down.
// Encoding is deterministic: map fields are emitted in sorted key
// order, so identical events produce identical bytes.
func AppendBinaryEvent(dst []byte, e Event, intern Intern) []byte {
	return e.AppendBinary(dst, intern)
}

// AppendBinary is AppendBinaryEvent without the copy of the event —
// the form the segment writer calls once per appended event.
func (e *Event) AppendBinary(dst []byte, intern Intern) []byte {
	if intern == nil {
		intern = InternNone
	}
	if e.Seq != 0 {
		dst = append(dst, tag(fSeq, wireUvarint))
		dst = binary.AppendUvarint(dst, e.Seq)
	}
	if !e.Time.IsZero() {
		_, off := e.Time.Zone()
		dst = append(dst, tag(fTime, wireTime))
		dst = appendZigzag(dst, e.Time.Unix())
		dst = binary.AppendUvarint(dst, uint64(e.Time.Nanosecond()))
		dst = appendZigzag(dst, int64(off))
	}
	dst = appendStringField(dst, fSrcIP, e.SrcIP, intern)
	dst = appendZigzagField(dst, fSrcPort, int64(e.SrcPort))
	dst = appendStringField(dst, fDstIP, e.DstIP, intern)
	dst = appendZigzagField(dst, fDstPort, int64(e.DstPort))
	dst = appendStringField(dst, fUser, e.User, intern)
	dst = appendStringField(dst, fSession, e.Session, intern)
	dst = appendStringField(dst, fMethod, e.Method, intern)
	dst = appendStringField(dst, fPath, e.Path, intern)
	dst = appendZigzagField(dst, fStatus, int64(e.Status))
	dst = appendStringField(dst, fWSOpcode, e.WSOpcode, intern)
	dst = appendStringField(dst, fMsgType, e.MsgType, intern)
	dst = appendStringField(dst, fChannel, e.Channel, intern)
	dst = appendStringField(dst, fKernelID, e.KernelID, intern)
	dst = appendStringField(dst, fCode, e.Code, intern)
	dst = appendStringField(dst, fOp, e.Op, intern)
	dst = appendStringField(dst, fTarget, e.Target, intern)
	dst = appendZigzagField(dst, fBytes, e.Bytes)
	if e.Entropy != 0 {
		dst = append(dst, tag(fEntropy, wireFixed64))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Entropy))
	}
	if e.Success {
		dst = append(dst, tag(fSuccess, wireFlag))
	}
	dst = appendStringField(dst, fDetail, e.Detail, intern)
	dst = appendZigzagField(dst, fCPUMillis, e.CPUMillis)
	if len(e.Fields) > 0 {
		dst = append(dst, tag(fFields, wireMap))
		dst = binary.AppendUvarint(dst, uint64(len(e.Fields)))
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dst = AppendBinaryString(dst, k, intern)
			dst = AppendBinaryString(dst, e.Fields[k], intern)
		}
	}
	return dst
}

// binReader walks a binary body with explicit bounds checks; every
// read either succeeds or latches an error, so corrupt input can
// never panic or over-read. When arena is non-nil, inline strings are
// copied into it instead of individually heap-allocated.
type binReader struct {
	data  []byte
	pos   int
	err   error
	arena *Arena
}

func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *binReader) done() bool { return r.err != nil || r.pos >= len(r.data) }

func (r *binReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("trace: binary event truncated")
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *binReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("trace: bad varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *binReader) zigzag() int64 {
	v := r.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *binReader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.data) {
		r.fail("trace: binary event truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

// string reads and resolves a ref-or-inline string value. It repeats
// PeekBinaryString's walk rather than calling it, which would cost the
// body decode one more call per string field.
func (r *binReader) string(lookup Lookup) string {
	v := r.uvarint()
	if r.err != nil {
		return ""
	}
	if v > 0 {
		s, ok := lookup(v - 1)
		if !ok {
			r.fail("trace: dangling dictionary reference %d", v-1)
			return ""
		}
		return s
	}
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.pos) {
		r.fail("trace: string of %d bytes overruns body", n)
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

func (r *binReader) time() time.Time {
	sec := r.zigzag()
	nanos := r.uvarint()
	off := r.zigzag()
	if r.err != nil {
		return time.Time{}
	}
	if nanos >= 1e9 {
		r.fail("trace: nanoseconds %d out of range", nanos)
		return time.Time{}
	}
	loc := time.UTC
	if off != 0 {
		if off < -18*3600 || off > 18*3600 {
			r.fail("trace: zone offset %d out of range", off)
			return time.Time{}
		}
		loc = time.FixedZone("", int(off))
	}
	return time.Unix(sec, int64(nanos)).In(loc)
}

// skip consumes one value of the given wire type without interpreting
// it — the forward-compatibility path for field numbers this build
// does not know.
func (r *binReader) skip(wire int, lookup Lookup) {
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
			r.fail("trace: map of %d entries overruns body", n)
			return
		}
		for i := uint64(0); i < n && r.err == nil; i++ {
			r.string(lookup)
			r.string(lookup)
		}
	case wireFlag:
		// no payload
	default:
		r.fail("trace: unknown wire type %d", wire)
	}
}

// DecodeBinaryEvent decodes a body produced by AppendBinaryEvent. The
// kind comes from the frame header; lookup resolves dictionary
// references (nil is valid only for bodies encoded with InternNone).
// Corrupt input returns an error — never a panic, never a partial
// event presented as complete.
func DecodeBinaryEvent(data []byte, kind Kind, lookup Lookup) (Event, error) {
	var e Event
	if err := e.DecodeBinary(data, kind, lookup, nil); err != nil {
		return Event{}, err
	}
	return e, nil
}

// DecodeBinary is DecodeBinaryEvent in place, with an optional arena:
// the body decodes straight into e, which must be the zero Event — a
// field the body omits is left as it is. With a non-nil arena every
// inline string field (including map keys and values) is copied into
// the arena instead of individually heap-allocated, so decoding a
// segment's worth of events costs O(chunks) string allocations.
// Strings resolved through lookup are shared by reference, not
// re-copied — the segment dictionary already materialized them once.
// On error e holds whatever decoded before the corruption; the caller
// clears it.
func (e *Event) DecodeBinary(data []byte, kind Kind, lookup Lookup, arena *Arena) error {
	if lookup == nil {
		lookup = func(uint64) (string, bool) { return "", false }
	}
	e.Kind = kind
	r := &binReader{data: data, arena: arena}
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
			// Each entry needs at least two bytes on the wire; a count
			// beyond that is corruption, not a huge map.
			if n > uint64(len(r.data)-r.pos) {
				r.fail("trace: map of %d entries overruns body", n)
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
			// A field this build predates: skip by wire type so the
			// schema can grow without a new segment version.
			r.skip(wire, lookup)
		}
	}
	return r.err
}
