package trace

// Binary event codec: the compact tagged encoding evstore's
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
	"errors"
	"math"
	"math/bits"
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

// AppendBinaryString appends one ref-or-inline string value — the
// same encoding string fields use inside a body. Exported because the
// event frame header (kind + actor key) is built from it too.
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
// reader to judge an event frame's kind and actor key before it builds
// a string from either.
func PeekBinaryString(data []byte) (v uint64, inline []byte, n int, err error) {
	if v, n = ReadUvarint(data, 0); v == 0 {
		inline, n = ReadBytes(data, n)
	}
	if n < 0 {
		return 0, nil, 0, errBadBody
	}
	return v, inline, n, nil
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
	return binary.AppendVarint(dst, v)
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
		dst = binary.AppendVarint(dst, e.Time.Unix())
		dst = binary.AppendUvarint(dst, uint64(e.Time.Nanosecond()))
		dst = binary.AppendVarint(dst, int64(off))
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

// errBadBody is every body decode failure: a bad varint, a string,
// map or fixed64 past the end, a dangling dictionary reference, a time
// out of range or an unknown wire type. Callers only test it for nil.
var errBadBody = errors.New("trace: malformed binary event body")

// The readers below are the payload primitives of both binary codecs,
// this one and histstore's records. Each takes the payload and an
// offset and returns the value and the next offset, or a negative
// offset once the value is malformed. A reader given a negative offset
// returns one, so a walk keeps its offset in a local and tests it once
// per field, or once per record.

// ReadUvarint reads a uvarint with binary.Uvarint's accept set,
// non-minimal encodings included. A one-byte value is read directly; a
// longer one with 8 bytes of payload left is decoded from one
// little-endian load: the first byte with its high bit clear ends the
// value, and its 7-bit groups are packed pairwise, then by fours, then
// by eights. A value longer than 8 bytes or too near the end of p goes
// to the standard library.
func ReadUvarint(p []byte, i int) (uint64, int) {
	if uint(i) >= uint(len(p)) {
		return 0, -1
	}
	if b := p[i]; b < 0x80 {
		return uint64(b), i + 1
	}
	if len(p)-i >= 8 {
		w := binary.LittleEndian.Uint64(p[i:])
		if stop := ^w & 0x8080808080808080; stop != 0 {
			end := bits.TrailingZeros64(stop) + 1 // bits up to and including the last byte
			x := w & 0x7f7f7f7f7f7f7f7f & (1<<end - 1)
			x = x&0x007f007f007f007f | x&0x7f007f007f007f00>>1
			x = x&0x00003fff00003fff | x&0x3fff00003fff0000>>2
			x = x&0x000000000fffffff | x&0x0fffffff00000000>>4
			return x, i + end/8
		}
	}
	v, n := binary.Uvarint(p[i:])
	if n <= 0 {
		return 0, -1
	}
	return v, i + n
}

// ReadVarint reads a zigzag-encoded signed varint, as
// binary.AppendVarint writes it.
func ReadVarint(p []byte, i int) (int64, int) {
	u, i := ReadUvarint(p, i)
	return int64(u>>1) ^ -int64(u&1), i
}

// ReadBytes reads a uvarint length and returns that many bytes in
// place, not a copy.
func ReadBytes(p []byte, i int) ([]byte, int) {
	n, i := ReadUvarint(p, i)
	if i < 0 || n > uint64(len(p)-i) {
		return nil, -1
	}
	j := i + int(n)
	return p[i:j], j
}

// ReadU64 reads 8 bytes little-endian.
func ReadU64(p []byte, i int) (uint64, int) {
	if i < 0 || len(p)-i < 8 {
		return 0, -1
	}
	return binary.LittleEndian.Uint64(p[i:]), i + 8
}

// readString reads and resolves a ref-or-inline string value. With a
// non-nil arena an inline string is copied into it instead of being
// heap-allocated on its own.
func readString(p []byte, i int, lookup Lookup, arena *Arena) (string, int) {
	v, i := ReadUvarint(p, i)
	if v > 0 {
		s, ok := lookup(v - 1)
		if !ok {
			return "", -1
		}
		return s, i
	}
	b, i := ReadBytes(p, i)
	if arena != nil {
		return arena.String(b), i
	}
	return string(b), i
}

// readTime reads zigzag seconds, uvarint nanoseconds below 1e9 and a
// zigzag zone offset within ±18h; offset 0 is UTC.
func readTime(p []byte, i int) (time.Time, int) {
	sec, i := ReadVarint(p, i)
	nanos, i := ReadUvarint(p, i)
	off, i := ReadVarint(p, i)
	if i < 0 || nanos >= 1e9 || off < -18*3600 || off > 18*3600 {
		return time.Time{}, -1
	}
	loc := time.UTC
	if off != 0 {
		loc = time.FixedZone("", int(off))
	}
	return time.Unix(sec, int64(nanos)).In(loc), i
}

// readMap reads a uvarint count, then that many (key, value) string
// pairs. Each entry needs at least two bytes on the wire, so a count
// beyond the bytes left is corruption, not a huge map.
func readMap(p []byte, i int, lookup Lookup, arena *Arena) (map[string]string, int) {
	n, i := ReadUvarint(p, i)
	if i < 0 || n > uint64(len(p)-i) {
		return nil, -1
	}
	m := make(map[string]string, n)
	for ; n > 0 && i >= 0; n-- {
		var k, v string
		k, i = readString(p, i, lookup, arena)
		v, i = readString(p, i, lookup, arena)
		m[k] = v
	}
	if i < 0 {
		return nil, -1
	}
	return m, i
}

// skipValue steps over one value of the given wire type without
// keeping it — the forward-compatibility path for field numbers this
// build does not know. Strings are still resolved, so a dangling
// reference is corruption here too; a time's parts are not range
// checked.
func skipValue(p []byte, i, wire int, lookup Lookup, arena *Arena) int {
	switch wire {
	case wireUvarint, wireZigzag:
		_, i = ReadUvarint(p, i)
	case wireString:
		_, i = readString(p, i, lookup, arena)
	case wireFixed64:
		_, i = ReadU64(p, i)
	case wireTime:
		_, i = ReadUvarint(p, i)
		_, i = ReadUvarint(p, i)
		_, i = ReadUvarint(p, i)
	case wireMap:
		_, i = readMap(p, i, lookup, arena)
	case wireFlag:
		// no payload
	default:
		return -1
	}
	return i
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
// The offset stays in a local and each field is one call to a reader
// above. On error e holds whatever decoded before the corruption; the
// caller clears it.
func (e *Event) DecodeBinary(data []byte, kind Kind, lookup Lookup, arena *Arena) error {
	if lookup == nil {
		lookup = func(uint64) (string, bool) { return "", false }
	}
	e.Kind = kind
	var n int64
	var u uint64
	for i := 0; i < len(data); {
		t := data[i]
		i++
		switch int(t >> 3) {
		case fSeq:
			e.Seq, i = ReadUvarint(data, i)
		case fTime:
			e.Time, i = readTime(data, i)
		case fSrcIP:
			e.SrcIP, i = readString(data, i, lookup, arena)
		case fSrcPort:
			n, i = ReadVarint(data, i)
			e.SrcPort = int(n)
		case fDstIP:
			e.DstIP, i = readString(data, i, lookup, arena)
		case fDstPort:
			n, i = ReadVarint(data, i)
			e.DstPort = int(n)
		case fUser:
			e.User, i = readString(data, i, lookup, arena)
		case fSession:
			e.Session, i = readString(data, i, lookup, arena)
		case fMethod:
			e.Method, i = readString(data, i, lookup, arena)
		case fPath:
			e.Path, i = readString(data, i, lookup, arena)
		case fStatus:
			n, i = ReadVarint(data, i)
			e.Status = int(n)
		case fWSOpcode:
			e.WSOpcode, i = readString(data, i, lookup, arena)
		case fMsgType:
			e.MsgType, i = readString(data, i, lookup, arena)
		case fChannel:
			e.Channel, i = readString(data, i, lookup, arena)
		case fKernelID:
			e.KernelID, i = readString(data, i, lookup, arena)
		case fCode:
			e.Code, i = readString(data, i, lookup, arena)
		case fOp:
			e.Op, i = readString(data, i, lookup, arena)
		case fTarget:
			e.Target, i = readString(data, i, lookup, arena)
		case fBytes:
			e.Bytes, i = ReadVarint(data, i)
		case fEntropy:
			u, i = ReadU64(data, i)
			e.Entropy = math.Float64frombits(u)
		case fSuccess:
			e.Success = true
		case fDetail:
			e.Detail, i = readString(data, i, lookup, arena)
		case fCPUMillis:
			e.CPUMillis, i = ReadVarint(data, i)
		case fFields:
			e.Fields, i = readMap(data, i, lookup, arena)
		default:
			// A field this build predates: skip by wire type so the
			// schema can grow without a new segment version.
			i = skipValue(data, i, int(t&7), lookup, arena)
		}
		if i < 0 {
			return errBadBody
		}
	}
	return nil
}
