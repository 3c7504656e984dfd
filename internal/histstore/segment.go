package histstore

import (
	"io"
	"sort"
	"time"

	"repro/internal/seglog"
)

// Segment files are internal/seglog's: an 8-byte magic followed by
// length+CRC32C framed payloads, where every payload is one history
// record ([kind][version][fields], see AppendRecord). The magic never
// changes across schema revisions: evolution happens at the record
// version byte, so one segment may legally mix record versions and old
// segments stay readable forever. A payload failing the strict record
// decode marks the end of the valid prefix just as a bad length or
// checksum does.
const (
	segMagic = "HSEG0001"
	// maxFrame bounds a frame payload; history records are a few
	// hundred bytes, so anything near a megabyte is corruption.
	maxFrame = 1 << 20
)

// format is the history's file family: hist-%08d.hr data files with
// .hx sidecars. The read window is a quarter of evstore's: every query
// allocates one (and one only, see Query.scan), and segments are 1 MiB.
var format = seglog.Format{
	Name: "histstore", Noun: "history",
	Prefix: "hist-", DataExt: ".hr", IndexExt: ".hx",
	Magic:    segMagic,
	MaxFrame: maxFrame,
	ReadBuf:  64 << 10,
}

// IndexVersion is the sidecar schema version this build writes.
// Unknown versions are rebuilt from the segment data, never trusted.
const IndexVersion = 1

// Index is the per-segment sidecar: enough metadata to decide,
// without touching the segment data, whether a filtered query can
// skip the segment entirely. The facets mirror the Query predicates:
//
//   - Severities/Bands carry per-value record counts; a minimum-
//     threshold filter skips the segment when no value at or above
//     the threshold appears. Sound because incident severity and risk
//     are monotone, so a qualifying incident's final record carries a
//     qualifying value into its segment's facet.
//   - Actors/Classes are exact distinct lists up to a cap, past which
//     the overflow flag means "could contain anyone" (fail-open).
//   - MinTime/MaxTime span every record's time extent (alert times
//     and incident [Opened, LastAlert] intervals), so a since/until
//     window skips segments it cannot overlap.
//
// Invariants (seglog's): the sidecar is written only after the
// segment's frames are flushed, and counts cover exactly the valid
// frame prefix.
type Index struct {
	Version         int            `json:"version"`
	Records         int            `json:"records"`
	AlertRecords    int            `json:"alert_records"`
	IncidentRecords int            `json:"incident_records"`
	Bytes           int64          `json:"bytes"` // valid file length including magic
	MinTime         time.Time      `json:"min_time"`
	MaxTime         time.Time      `json:"max_time"`
	Severities      map[string]int `json:"severities,omitempty"`
	Bands           map[string]int `json:"bands,omitempty"`
	Actors          []string       `json:"actors,omitempty"`
	ActorsOverflow  bool           `json:"actors_overflow,omitempty"`
	Classes         []string       `json:"classes,omitempty"`
	ClassesOverflow bool           `json:"classes_overflow,omitempty"`
}

// Trusted implements seglog.Index: a sidecar of another schema version
// is rebuilt from the segment data, never trusted.
func (ix Index) Trusted() bool { return ix.Version == IndexVersion }

// indexBuilder accumulates the distinct-value sets an Index seals.
type indexBuilder struct {
	actors  map[string]struct{}
	classes map[string]struct{}
}

func newIndexBuilder() *indexBuilder {
	return &indexBuilder{actors: map[string]struct{}{}, classes: map[string]struct{}{}}
}

// observe folds one record into the index.
func (ix *Index) observe(r Record, frameBytes int64, b *indexBuilder, maxActors, maxClasses int) {
	var actor, class string
	var sev string
	var times [2]time.Time
	switch r.Kind {
	case KindAlert:
		ix.AlertRecords++
		actor, class, sev = r.Alert.Actor, r.Alert.Class, string(r.Alert.Severity)
		times[0], times[1] = r.Alert.Time, r.Alert.Time
	case KindIncident:
		ix.IncidentRecords++
		actor, class, sev = r.Incident.Actor, r.Incident.Class, string(r.Incident.Severity)
		times[0], times[1] = r.Incident.Opened, r.Incident.LastAlert
		if ix.Bands == nil {
			ix.Bands = map[string]int{}
		}
		ix.Bands[string(RiskBandOf(r.Incident.RiskScore))]++
	}
	for _, t := range times {
		if t.IsZero() {
			continue
		}
		if ix.MinTime.IsZero() || t.Before(ix.MinTime) {
			ix.MinTime = t
		}
		if t.After(ix.MaxTime) {
			ix.MaxTime = t
		}
	}
	if ix.Severities == nil {
		ix.Severities = map[string]int{}
	}
	ix.Severities[sev]++
	ix.Records++
	ix.Bytes += frameBytes
	if !ix.ActorsOverflow {
		b.actors[actor] = struct{}{}
		if len(b.actors) > maxActors {
			ix.ActorsOverflow = true
			clear(b.actors)
		}
	}
	if !ix.ClassesOverflow {
		b.classes[class] = struct{}{}
		if len(b.classes) > maxClasses {
			ix.ClassesOverflow = true
			clear(b.classes)
		}
	}
}

// seal finalizes the distinct-value lists for writing.
func (ix *Index) seal(b *indexBuilder) {
	ix.Actors = sortedKeys(b.actors, ix.ActorsOverflow)
	ix.Classes = sortedKeys(b.classes, ix.ClassesOverflow)
}

func sortedKeys(set map[string]struct{}, overflow bool) []string {
	if overflow {
		return nil
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DecodeResult reports what a segment scan found: the frame reader's
// account of the valid prefix and any trailing corruption (ValidBytes,
// TailLossBytes, Truncated, Reason), plus the record count.
type DecodeResult struct {
	seglog.ScanResult
	Records int
}

// DecodeFrames scans a history segment byte stream, invoking fn for
// every valid record in order. Corruption — bad magic, an absurd
// length, a checksum or decode failure, a short final frame — never
// returns an error: the scan stops at the first bad frame and the
// result records the clean prefix and the reason. A non-nil error
// from fn aborts the scan and is returned as-is. size is the total
// stream length if known (for tail-loss accounting), or -1.
func DecodeFrames(r io.Reader, size int64, fn func(Record) error) (DecodeResult, error) {
	return decodeFrames(r, size, nil, func(v *view) error { return fn(v.record()) })
}

// decodeFrames is DecodeFrames through a reusable frame reader (a nil
// sc allocates a fresh one) and without the copy: fn borrows each
// record as a view, valid only during the call.
func decodeFrames(r io.Reader, size int64, sc *seglog.Scratch, fn func(*view) error) (DecodeResult, error) {
	var res DecodeResult
	var v view
	var err error
	res.ScanResult, err = format.ReadFrames(r, size, sc, func(payload []byte) (string, error) {
		if v.decode(payload) != nil {
			return "frame not a record", nil
		}
		res.Records++
		return "", fn(&v)
	})
	return res, err
}

// scanSegment decodes a segment file from disk; sc and fn as in
// decodeFrames.
func scanSegment(path string, sc *seglog.Scratch, fn func(*view) error) (DecodeResult, error) {
	f, size, err := seglog.OpenData(path)
	if err != nil {
		return DecodeResult{}, err
	}
	defer f.Close()
	return decodeFrames(f, size, sc, fn)
}

// rebuild reconstructs a sidecar by scanning the segment data — the
// recovery path for a segment whose writer died before sealing.
func (o Options) rebuild(path string) (Index, seglog.ScanResult, error) {
	ix := Index{Version: IndexVersion}
	b := newIndexBuilder()
	res, err := scanSegment(path, nil, func(v *view) error {
		// Bytes is re-derived from the valid prefix below.
		ix.observe(v.record(), 0, b, o.MaxActors, o.MaxClasses)
		return nil
	})
	if err != nil {
		return Index{}, res.ScanResult, err
	}
	ix.seal(b)
	ix.Bytes = res.ValidBytes
	return ix, res.ScanResult, nil
}
