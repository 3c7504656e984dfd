// Package histstore persists what detection found — alert records and
// incident snapshots — as an append-only, CRC-framed, schema-versioned
// history next to the raw event store, so "show me the critical
// incidents for actor X last week" is an index probe over per-segment
// sidecars instead of an O(store) re-detection replay.
//
// The layout is internal/evstore's because both are internal/seglog's:
// segment-rotated files of length+CRC32C frames behind an 8-byte magic,
// JSON sidecar indexes written only after the segment data is flushed
// (a present sidecar certifies a cleanly sealed segment), torn tails
// truncated by the next writer Open and surfaced via Recovered, and an
// OpenRead path that never mutates so queries run safely under a live
// writer. What is the history's own is the payload: typed history
// records with their own version byte (the segment magic stays fixed;
// schema evolution is per-record), and index facets chosen for the
// query predicates — severity, risk band, class, actor, and the
// incident time interval.
//
// Query soundness under segment pruning rests on the monotonicity of
// incident aggregates (see core.IncidentUpdate): severity and risk
// only ever rise, the alert count strictly grows, and the
// [Opened, LastAlert] interval only widens. Filters are therefore
// minimum thresholds (--severity/--risk) or interval overlap
// (--since/--until) — upward-closed predicates, so an incident's
// final record matches whenever any earlier record does, and the
// final record's segment is never pruned for an incident that belongs
// in the result. Reconstruction keeps the highest-count record per
// (actor, class, generation), which is exactly the engine's final
// state for that incident.
package histstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/rules"
	"repro/internal/trace"
)

// Record kinds — the first payload byte of every frame.
const (
	// KindAlert frames carry one AlertRecord.
	KindAlert = 1
	// KindIncident frames carry one IncidentRecord snapshot.
	KindIncident = 2
)

// RecordVersion is the record schema version this build writes, as the
// second payload byte. Migration rule: adding fields bumps the
// version, the decoder gains a case for the new layout, and every
// older version stays decodable forever — history written by any past
// build must always be readable. An unknown (newer) version is a
// decode error, never a guess.
const RecordVersion = 1

// AlertRecord is the persisted form of one fired alert: the fields a
// history query filters and displays, without the triggering event
// payload (the raw event store keeps those; history is the compact
// tier that outlives them).
type AlertRecord struct {
	Time     time.Time
	Actor    string
	Class    string
	RuleID   string
	Severity rules.Severity
	// Count is the alert's aggregated trigger count (rules.Alert.Count),
	// zero when the rule fired on a single event.
	Count int
}

// IncidentRecord is one incident snapshot: the post-fold aggregate
// state after an alert joined the incident (core.IncidentUpdate,
// persisted). Every aggregate is monotone across the records of one
// (Actor, Class, Gen) incident — Alerts strictly grows, Severity rank
// and RiskScore never decrease, Opened is fixed, LastAlert only moves
// later — which is what makes minimum-threshold index pruning sound.
type IncidentRecord struct {
	Actor string
	Class string
	// Gen distinguishes successive incidents of the same (actor,
	// class) pair across quiet-gap close/reopen cycles.
	Gen       int
	Opened    time.Time
	LastAlert time.Time
	Alerts    int
	Severity  rules.Severity
	RiskScore float64
}

// Record is the sum type a frame decodes to: Kind selects which of
// the two bodies is populated.
type Record struct {
	Kind     byte
	Alert    AlertRecord
	Incident IncidentRecord
}

// Band names a risk band over the 0–100 OSCRP score — the coarse
// facet the per-segment index tracks so a --risk query can prune
// segments without decoding them.
type Band string

const (
	BandLow      Band = "low"      // score < 25
	BandModerate Band = "moderate" // 25 ≤ score < 50
	BandElevated Band = "elevated" // 50 ≤ score < 75
	BandCritical Band = "critical" // score ≥ 75
)

// KnownBands lists the bands in ascending rank order, for usage
// messages.
func KnownBands() []Band {
	return []Band{BandLow, BandModerate, BandElevated, BandCritical}
}

// RiskBandOf maps an OSCRP risk score to its band.
func RiskBandOf(score float64) Band {
	switch {
	case score < 25:
		return BandLow
	case score < 50:
		return BandModerate
	case score < 75:
		return BandElevated
	default:
		return BandCritical
	}
}

// BandRank orders bands for minimum-threshold filtering; unknown
// bands rank -1, below every real one.
func BandRank(b Band) int {
	switch b {
	case BandLow:
		return 0
	case BandModerate:
		return 1
	case BandElevated:
		return 2
	case BandCritical:
		return 3
	}
	return -1
}

// ParseBand validates a --risk flag value.
func ParseBand(s string) (Band, bool) {
	switch Band(s) {
	case BandLow, BandModerate, BandElevated, BandCritical:
		return Band(s), true
	}
	return "", false
}

// maxCount bounds decoded count/gen fields; a larger value is
// corruption, not a real incident.
const maxCount = 1 << 31

// AppendRecord appends the encoded payload for r to dst and returns
// the extended slice. The payload is [kind][version][fields]; framing
// (length + CRC) is the segment writer's job. Encoding is a pure
// function of the record value, so any two equal records produce
// identical bytes — the canonical-form property the fuzz round-trip
// target checks.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	switch r.Kind {
	case KindAlert:
		a := &r.Alert
		dst = append(dst, KindAlert, RecordVersion)
		dst = appendTime(dst, a.Time)
		dst = appendString(dst, a.Actor)
		dst = appendString(dst, a.Class)
		dst = appendString(dst, a.RuleID)
		dst = appendString(dst, string(a.Severity))
		dst = binary.AppendUvarint(dst, uint64(a.Count))
		return dst, nil
	case KindIncident:
		in := &r.Incident
		dst = append(dst, KindIncident, RecordVersion)
		dst = appendString(dst, in.Actor)
		dst = appendString(dst, in.Class)
		dst = binary.AppendUvarint(dst, uint64(in.Gen))
		dst = appendTime(dst, in.Opened)
		dst = appendTime(dst, in.LastAlert)
		dst = binary.AppendUvarint(dst, uint64(in.Alerts))
		dst = appendString(dst, string(in.Severity))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(in.RiskScore))
		return dst, nil
	}
	return dst, fmt.Errorf("histstore: unknown record kind %d", r.Kind)
}

// view is one decoded record that borrows: its string fields alias the
// payload decode was given, so a view is valid only until that buffer is
// reused — inside the scan callback that receives it, no longer. What
// outlives the callback is copied out (record, or the query's interner).
// One struct serves both kinds: count is an alert's Count or an
// incident's Alerts, and an alert's Time is the interval's both ends,
// opened == last, so one window predicate reads either kind.
type view struct {
	kind                    byte
	actor, class, rule, sev []byte
	gen, count              int
	opened, last            time.Time
	risk                    float64
}

// decode is the one record decoder. It is strict: an unknown kind or
// version, an implausible count, a non-canonical time, or trailing
// bytes after the last field are all errors — a corrupt frame must
// terminate the valid prefix, never half-decode — and it walks every
// field whether or not the caller wants the record.
//
// The walk keeps its offset in a local and reads each field with one
// of trace's payload readers (ReadUvarint, ReadBytes, ReadU64) or a
// record-level reader built on them: each returns the value and the
// next offset, or a negative offset once a field is malformed. A
// reader given a negative offset returns one, so decode tests for it
// once, after the last field. A scan decodes every record it visits,
// so this loop is the query's hot path.
func (v *view) decode(p []byte) error {
	if len(p) < 2 {
		return fmt.Errorf("histstore: record too short")
	}
	kind, version := p[0], p[1]
	if version != RecordVersion {
		// v1 is the only version ever written so far; when v2 lands
		// this becomes a switch and v1 stays decodable.
		return fmt.Errorf("histstore: unknown record version %d", version)
	}
	*v = view{kind: kind}
	i := 2
	switch kind {
	case KindAlert:
		v.opened, i = readTime(p, i)
		v.last = v.opened
		v.actor, i = trace.ReadBytes(p, i)
		v.class, i = trace.ReadBytes(p, i)
		v.rule, i = trace.ReadBytes(p, i)
		v.sev, i = trace.ReadBytes(p, i)
		v.count, i = readCount(p, i)
	case KindIncident:
		v.actor, i = trace.ReadBytes(p, i)
		v.class, i = trace.ReadBytes(p, i)
		v.gen, i = readCount(p, i)
		v.opened, i = readTime(p, i)
		v.last, i = readTime(p, i)
		v.count, i = readCount(p, i)
		v.sev, i = trace.ReadBytes(p, i)
		var risk uint64
		risk, i = trace.ReadU64(p, i)
		v.risk = math.Float64frombits(risk)
	default:
		return fmt.Errorf("histstore: unknown record kind %d", kind)
	}
	if i < 0 {
		return errBadField
	}
	if i != len(p) {
		return fmt.Errorf("histstore: %d trailing bytes after record", len(p)-i)
	}
	return nil
}

// record materialises the view as an owning Record.
func (v *view) record() Record {
	if v.kind == KindAlert {
		return Record{Kind: KindAlert, Alert: AlertRecord{
			Time: v.last, Actor: string(v.actor), Class: string(v.class),
			RuleID: string(v.rule), Severity: rules.Severity(v.sev), Count: v.count,
		}}
	}
	return Record{Kind: KindIncident, Incident: IncidentRecord{
		Actor: string(v.actor), Class: string(v.class), Gen: v.gen,
		Opened: v.opened, LastAlert: v.last, Alerts: v.count,
		Severity: rules.Severity(v.sev), RiskScore: v.risk,
	}}
}

// DecodeRecord decodes one frame payload into a Record that owns its
// strings; strictness is decode's.
func DecodeRecord(payload []byte) (Record, error) {
	var v view
	if err := v.decode(payload); err != nil {
		return Record{}, err
	}
	return v.record(), nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTime encodes a time as a presence byte, then (when present)
// zigzag Unix seconds and a sub-second nanosecond count. Only the
// instant survives — locations don't round-trip, and both sides of
// every query comparison go through the same encoding.
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

// errBadField is every field-level decode failure: a bad varint, a
// string past the end, an implausible count, a bad time or a short
// fixed64. Callers only test decode's error for nil.
var errBadField = errors.New("histstore: malformed record field")

// readCount reads a count or gen field below maxCount, the bound that
// is the record format's own.
func readCount(p []byte, i int) (int, int) {
	n, i := trace.ReadUvarint(p, i)
	if n >= maxCount {
		return 0, -1
	}
	return int(n), i
}

// readTime reads appendTime's encoding: presence 0 is the zero time;
// presence 1 is zigzag seconds and nanoseconds below 1e9 naming any
// instant but the zero one, which would not round-trip byte-identically.
func readTime(p []byte, i int) (time.Time, int) {
	if uint(i) >= uint(len(p)) {
		return time.Time{}, -1
	}
	switch p[i] {
	case 0:
		return time.Time{}, i + 1
	case 1:
	default:
		return time.Time{}, -1
	}
	sec, i := trace.ReadVarint(p, i+1)
	nsec, i := trace.ReadUvarint(p, i)
	if i < 0 || nsec >= 1e9 {
		return time.Time{}, -1
	}
	t := time.Unix(sec, int64(nsec)).UTC()
	if t.IsZero() {
		return time.Time{}, -1
	}
	return t, i
}
