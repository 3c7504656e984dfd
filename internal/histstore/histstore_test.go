package histstore

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rules"
)

var t0 = time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

func mkAlert(actor string, sev rules.Severity, at time.Time) AlertRecord {
	return AlertRecord{
		Time:     at,
		Actor:    actor,
		Class:    "test.class",
		RuleID:   "SC-001",
		Severity: sev,
		Count:    3,
	}
}

func mkIncident(actor, class string, gen, alerts int, sev rules.Severity, risk float64, opened, last time.Time) IncidentRecord {
	return IncidentRecord{
		Actor: actor, Class: class, Gen: gen,
		Opened: opened, LastAlert: last,
		Alerts: alerts, Severity: sev, RiskScore: risk,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindAlert, Alert: mkAlert("mallory", rules.SevHigh, t0)},
		{Kind: KindAlert, Alert: AlertRecord{}}, // all zero values
		{Kind: KindIncident, Incident: mkIncident("mallory", "ransomware", 2, 17, rules.SevCritical, 93.5, t0, t0.Add(time.Minute))},
		{Kind: KindIncident, Incident: IncidentRecord{Actor: "a", Class: "c"}},
	}
	for i, r := range recs {
		enc, err := AppendRecord(nil, r)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("record %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, r)
		}
	}
}

func TestDecodeRecordStrict(t *testing.T) {
	good, err := AppendRecord(nil, Record{Kind: KindIncident,
		Incident: mkIncident("a", "c", 0, 1, rules.SevLow, 10, t0, t0)})
	if err != nil {
		t.Fatal(err)
	}
	fullIncident := incidentPayload(uvBytes(1), uvBytes(1))
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{9, RecordVersion, 0}},
		{"unknown version", []byte{KindAlert, RecordVersion + 1}},
		{"trailing bytes", append(append([]byte(nil), good...), 0xff)},
		{"truncated", good[:len(good)-3]},
		{"bad time presence", []byte{KindAlert, RecordVersion, 7}},
		{"varint overflow", alertPayload([]byte{0}, overflowVarint)},
		{"string length past end", append([]byte{KindAlert, RecordVersion, 0, 200}, "actor"...)},
		{"implausible count", alertPayload([]byte{0}, uvBytes(maxCount))},
		{"implausible gen", incidentPayload(uvBytes(maxCount), uvBytes(1))},
		{"nanoseconds out of range", alertPayload(timeBytes(1780304400, 1e9), uvBytes(1))},
		{"non-canonical zero time", alertPayload(timeBytes(zeroUnix, 0), uvBytes(1))},
		{"short fixed64", fullIncident[:len(fullIncident)-1]},
	}
	for _, tc := range cases {
		if _, err := DecodeRecord(tc.payload); err == nil {
			t.Errorf("%s: decoded, want error", tc.name)
		}
	}
	// The same fields one step inside each bound decode.
	for name, p := range map[string][]byte{
		"10-byte seconds":    alertPayload(timeBytes(math.MinInt64, 0), uvBytes(1)),
		"count below bound":  alertPayload([]byte{0}, uvBytes(maxCount-1)),
		"gen below bound":    incidentPayload(uvBytes(maxCount-1), uvBytes(1)),
		"last nanosecond":    alertPayload(timeBytes(1780304400, 1e9-1), uvBytes(1)),
		"after zero instant": alertPayload(timeBytes(zeroUnix, 1), uvBytes(1)),
		"full fixed64":       fullIncident,
	} {
		if _, err := DecodeRecord(p); err != nil {
			t.Errorf("%s: %v, want a record", name, err)
		}
	}
}

func TestStoreRoundTripAndRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentBytes: 512, FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.AppendAlert(mkAlert("mallory", rules.SevMedium, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendIncident(mkIncident("mallory", "test.class", 0, i+1, rules.SevMedium, 40,
			t0, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Segments()); got < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", got)
	}

	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Records != 2*n || st.AlertRecords != n || st.IncidentRecords != n {
		t.Fatalf("stats %+v, want %d records (%d alerts, %d incidents)", st, 2*n, n, n)
	}
	alerts, _, err := QueryAlerts(r, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(alerts) != n {
		t.Fatalf("got %d alerts, want %d", len(alerts), n)
	}
	incs, _, err := QueryIncidents(r, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1 (all updates dedup to one)", len(incs))
	}
	if incs[0].AlertCount() != n {
		t.Fatalf("final incident has %d alerts, want %d (the max-count record)", incs[0].AlertCount(), n)
	}
	if !strings.Contains(st.Render(), "records=80") {
		t.Fatalf("stats render %q missing record count", st.Render())
	}
}

func TestQueryPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Segment 1: low-severity incidents for alice, early window.
	for i := 0; i < 5; i++ {
		if err := s.AppendIncident(mkIncident("alice", "benign.class", 0, i+1, rules.SevLow, 10,
			t0, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // seal segment 1
		t.Fatal(err)
	}
	// Segment 2: critical incidents for mallory, late window.
	late := t0.Add(time.Hour)
	for i := 0; i < 5; i++ {
		if err := s.AppendIncident(mkIncident("mallory", "ransomware", 0, i+1, rules.SevCritical, 90,
			late, late.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Segments()); got != 2 {
		t.Fatalf("got %d segments, want 2", got)
	}
	for _, tc := range []struct {
		name     string
		q        Query
		selected int
		actors   []string
	}{
		{"by actor", Query{Actor: "mallory"}, 1, []string{"mallory"}},
		{"by class", Query{Class: "benign.class"}, 1, []string{"alice"}},
		{"by min severity", Query{MinSeverity: rules.SevHigh}, 1, []string{"mallory"}},
		{"by min band", Query{MinBand: BandCritical}, 1, []string{"mallory"}},
		{"by window", Query{Until: t0.Add(30 * time.Minute)}, 1, []string{"alice"}},
		{"by late window", Query{Since: t0.Add(30 * time.Minute)}, 1, []string{"mallory"}},
		{"unfiltered", Query{}, 2, []string{"alice", "mallory"}},
	} {
		incs, st, err := QueryIncidents(r, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if st.SegmentsSelected != tc.selected {
			t.Errorf("%s: selected %d segments, want %d", tc.name, st.SegmentsSelected, tc.selected)
		}
		var actors []string
		for _, inc := range incs {
			actors = append(actors, inc.Actor)
		}
		if !reflect.DeepEqual(actors, tc.actors) {
			t.Errorf("%s: got actors %v, want %v", tc.name, actors, tc.actors)
		}
	}
}

func TestDedupAcrossGenerationsAndOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Gen 0 closed at 3 alerts; gen 1 reopened and reached 2. Updates
	// arrive out of order (concurrent engine workers may interleave),
	// but the per-gen max-count record must win regardless.
	updates := []IncidentRecord{
		mkIncident("m", "c", 0, 2, rules.SevMedium, 40, t0, t0.Add(2*time.Second)),
		mkIncident("m", "c", 0, 3, rules.SevHigh, 60, t0, t0.Add(3*time.Second)),
		mkIncident("m", "c", 0, 1, rules.SevLow, 20, t0, t0.Add(time.Second)),
		mkIncident("m", "c", 1, 2, rules.SevMedium, 40, t0.Add(time.Hour), t0.Add(time.Hour+time.Second)),
		mkIncident("m", "c", 1, 1, rules.SevLow, 20, t0.Add(time.Hour), t0.Add(time.Hour)),
	}
	for _, u := range updates {
		if err := s.AppendIncident(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	incs, _, err := QueryIncidents(s, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 2 {
		t.Fatalf("got %d incidents, want 2 (one per generation)", len(incs))
	}
	if incs[0].AlertCount() != 3 || incs[0].Severity != rules.SevHigh {
		t.Fatalf("gen 0 final state %+v, want 3 alerts at high", incs[0])
	}
	if incs[1].AlertCount() != 2 {
		t.Fatalf("gen 1 final state %+v, want 2 alerts", incs[1])
	}
}

// TestDedupKeyKeepsHostileActorsApart: actors are tenant input and may
// hold any byte, so two incidents whose (actor, class, generation)
// differ must stay two however their strings would concatenate — a
// key joined on NUL folded each of these pairs into one incident.
func TestDedupKeyKeepsHostileActorsApart(t *testing.T) {
	cases := []struct {
		name string
		a, b IncidentRecord
	}{
		{"NUL moves from actor to class",
			mkIncident("a\x00b", "c", 0, 1, rules.SevLow, 20, t0, t0),
			mkIncident("a", "b\x00c", 0, 2, rules.SevHigh, 60, t0, t0)},
		{"NUL moves from class to actor",
			mkIncident("a", "c\x001", 0, 1, rules.SevLow, 20, t0, t0),
			mkIncident("a\x00c", "1", 0, 2, rules.SevHigh, 60, t0, t0)},
		{"generations only",
			mkIncident("a", "c", 0, 1, rules.SevLow, 20, t0, t0),
			mkIncident("a", "c", 1, 2, rules.SevHigh, 60, t0.Add(time.Hour), t0.Add(time.Hour))},
	}
	for _, tc := range cases {
		s, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range []IncidentRecord{tc.a, tc.b} {
			if err := s.AppendIncident(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		incs, _, err := QueryIncidents(s, Query{})
		if err != nil {
			t.Fatal(err)
		}
		if len(incs) != 2 {
			t.Errorf("%s: query returned %d incidents, want both", tc.name, len(incs))
			continue
		}
		got := map[string]int{}
		for _, inc := range incs {
			got[inc.Actor+"|"+inc.Class] = inc.AlertCount()
		}
		for _, rec := range []IncidentRecord{tc.a, tc.b} {
			if got[rec.Actor+"|"+rec.Class] < 1 {
				t.Errorf("%s: incident %q/%q missing from %v", tc.name, rec.Actor, rec.Class, got)
			}
		}
	}
}

func TestOpenWithModes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hist")
	s, err := OpenWith(dir, OpenFresh, Options{})
	if err != nil {
		t.Fatalf("fresh open of a new dir: %v", err)
	}
	if err := s.AppendAlert(mkAlert("a", rules.SevLow, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenWith(dir, OpenFresh, Options{}); err == nil {
		t.Fatal("OpenFresh accepted a non-empty history")
	}

	app, err := OpenWith(dir, OpenAppend, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := app.AppendAlert(mkAlert("b", rules.SevLow, t0)); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	if got := app.Records(); got != 2 {
		t.Fatalf("after append reopen: %d records, want 2", got)
	}

	rep, err := OpenWith(dir, OpenReplace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Records(); got != 0 {
		t.Fatalf("after replace: %d records, want 0", got)
	}
}

func TestFacetOverflowFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxActors: 2, MaxClasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, actor := range []string{"a", "b", "c", "d"} {
		if err := s.AppendIncident(mkIncident(actor, "class-"+actor, 0, i+1, rules.SevLow, 10, t0, t0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := s.Segments()
	if len(segs) != 1 || !segs[0].Index.ActorsOverflow || !segs[0].Index.ClassesOverflow {
		t.Fatalf("expected one overflowed segment, got %+v", segs)
	}
	// Overflow means "could contain anyone": the filter must still
	// visit the segment and find the actor.
	incs, st, err := QueryIncidents(s, Query{Actor: "d", Class: "class-d"})
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsSelected != 1 || len(incs) != 1 {
		t.Fatalf("overflowed segment pruned: selected=%d incidents=%d", st.SegmentsSelected, len(incs))
	}
}

func TestCompactDropsOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 3; seg++ {
		if err := s.AppendAlert(mkAlert("a", rules.SevLow, t0.Add(time.Duration(seg)*time.Minute))); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil { // seal one segment per alert
			t.Fatal(err)
		}
	}
	n, err := s.Compact(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("compacted %d segments, want 2", n)
	}
	segs := s.Segments()
	if len(segs) != 1 || segs[0].N != 3 {
		t.Fatalf("survivor %+v, want only segment 3 (the newest)", segs)
	}
	files, err := filepath.Glob(filepath.Join(dir, "hist-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 { // one .hr + one .hx
		t.Fatalf("on disk: %v, want exactly the survivor's data+sidecar", files)
	}
}

func TestOpenReadIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAlert(mkAlert("a", rules.SevLow, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AppendAlert(mkAlert("b", rules.SevLow, t0)); err == nil {
		t.Fatal("append on read-only store succeeded")
	}
	if _, err := r.Compact(0); err == nil {
		t.Fatal("compact on read-only store succeeded")
	}
}

func TestRiskBands(t *testing.T) {
	for _, tc := range []struct {
		score float64
		want  Band
	}{
		{0, BandLow}, {24.9, BandLow}, {25, BandModerate}, {49.9, BandModerate},
		{50, BandElevated}, {74.9, BandElevated}, {75, BandCritical}, {100, BandCritical},
	} {
		if got := RiskBandOf(tc.score); got != tc.want {
			t.Errorf("RiskBandOf(%v) = %s, want %s", tc.score, got, tc.want)
		}
	}
	for i, b := range KnownBands() {
		if BandRank(b) != i {
			t.Errorf("BandRank(%s) = %d, want %d", b, BandRank(b), i)
		}
		if parsed, ok := ParseBand(string(b)); !ok || parsed != b {
			t.Errorf("ParseBand(%s) failed", b)
		}
	}
	if _, ok := ParseBand("serious"); ok {
		t.Error("ParseBand accepted an unknown band")
	}
	if BandRank("serious") != -1 {
		t.Error("unknown band should rank below every real one")
	}
}

func TestRecoveredSurfacedViaStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAlert(mkAlert("a", rules.SevLow, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := s.Segments()[0]
	if err := os.Remove(indexPath(seg.Path)); err != nil {
		t.Fatal(err)
	}
	garbage := []byte("torn")
	f, err := os.OpenFile(seg.Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().RecoveredLossBytes; got != int64(len(garbage)) {
		t.Fatalf("stats report %d recovered-loss bytes, want %d", got, len(garbage))
	}
}
