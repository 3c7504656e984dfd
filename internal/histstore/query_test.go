package histstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/seglog"
)

// TestQueryUnderLiveWriter interleaves appends with read-only opens
// and checks two invariants: a query never errors against a live
// writer, and after a Sync the reader sees exactly the flushed
// prefix — the snapshot a query at that instant is entitled to.
func TestQueryUnderLiveWriter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 2048, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := w.AppendIncident(mkIncident("mallory", "c", 0, i+1, rules.SevHigh, 80,
			t0, t0.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
		if i%50 != 49 {
			continue
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenRead(dir)
		if err != nil {
			t.Fatalf("open under live writer: %v", err)
		}
		incs, _, err := QueryIncidents(r, Query{MinSeverity: rules.SevHigh})
		if err != nil {
			t.Fatalf("query under live writer: %v", err)
		}
		// FlushEvery 1 + Sync: every append so far is readable, so the
		// deduped final state must be exactly the last update.
		if len(incs) != 1 || incs[0].AlertCount() != i+1 {
			t.Fatalf("after %d flushed updates reader sees %+v", i+1, incs)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAppendAndQuery hammers a writer from several
// goroutines while readers re-open and query — the race detector's
// view of the reader-under-writer contract. Results only need to be
// valid prefixes; exactness is the Sync test above.
func TestConcurrentAppendAndQuery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1024, FlushEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = w.AppendIncident(mkIncident("actor", "c", g, i+1, rules.SevMedium, 40,
					t0, t0.Add(time.Duration(i)*time.Second)))
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rd, err := OpenRead(dir)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if _, _, err := QueryIncidents(rd, Query{}); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	incs, _, err := QueryIncidents(w, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 4 {
		t.Fatalf("got %d incidents, want 4 (one per generation)", len(incs))
	}
	for _, inc := range incs {
		if inc.AlertCount() != 100 {
			t.Fatalf("incident %+v, want final count 100", inc)
		}
	}
}

// TestFilterIncidentsMatchesQueryPredicate pins the equality
// contract's other half: FilterIncidents over engine snapshots
// applies the same predicate QueryIncidents applies to records.
func TestFilterIncidentsMatchesQueryPredicate(t *testing.T) {
	incs := []*core.Incident{
		{Actor: "a", Class: "x", Severity: rules.SevLow, RiskScore: 10, Opened: t0, LastAlert: t0.Add(time.Minute), Count: 2},
		{Actor: "b", Class: "y", Severity: rules.SevCritical, RiskScore: 90, Opened: t0.Add(time.Hour), LastAlert: t0.Add(2 * time.Hour), Count: 9},
	}
	if got := FilterIncidents(incs, Query{MinSeverity: rules.SevHigh}); len(got) != 1 || got[0].Actor != "b" {
		t.Fatalf("severity filter: %+v", got)
	}
	if got := FilterIncidents(incs, Query{MinBand: BandCritical}); len(got) != 1 || got[0].Actor != "b" {
		t.Fatalf("band filter: %+v", got)
	}
	if got := FilterIncidents(incs, Query{Until: t0.Add(30 * time.Minute)}); len(got) != 1 || got[0].Actor != "a" {
		t.Fatalf("window filter: %+v", got)
	}
	if got := FilterIncidents(incs, Query{Actor: "a", Class: "x"}); len(got) != 1 || got[0].Actor != "a" {
		t.Fatalf("actor+class filter: %+v", got)
	}
	if got := FilterIncidents(incs, Query{}); len(got) != 2 {
		t.Fatalf("empty query dropped incidents: %+v", got)
	}

	// The window's edges, through the store and through FilterIncidents:
	// both ends are inclusive and a record without times is in no bounded
	// window — the index skips zero times, so a zero Opened that matched an
	// Until would be pruned with its segment in the store and kept by
	// FilterIncidents. An alert is the interval of its Time.
	last := t0.Add(time.Minute)
	edge := []*core.Incident{
		{Actor: "a", Class: "x", Severity: rules.SevLow, RiskScore: 10, Opened: t0, LastAlert: last, Count: 2},
		{Actor: "z", Class: "x", Severity: rules.SevLow, RiskScore: 10, Count: 1},
	}
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, inc := range edge {
		if err := s.AppendIncident(mkIncident(inc.Actor, inc.Class, 0, inc.Count, inc.Severity, inc.RiskScore, inc.Opened, inc.LastAlert)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendAlert(mkAlert("a", rules.SevLow, t0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	actorsOf := func(incs []*core.Incident) string {
		var actors []string
		for _, inc := range incs {
			actors = append(actors, inc.Actor)
		}
		return strings.Join(actors, ",")
	}
	for _, tc := range []struct {
		name   string
		q      Query
		actors string
		alerts int
	}{
		{"since == last alert", Query{Since: last}, "a", 0},
		{"since 1ns before last alert", Query{Since: last.Add(-1)}, "a", 0},
		{"since 1ns after last alert", Query{Since: last.Add(1)}, "", 0},
		{"since == alert time", Query{Since: t0}, "a", 1},
		{"since 1ns after alert time", Query{Since: t0.Add(1)}, "a", 0},
		{"until == opened", Query{Until: t0}, "a", 1},
		{"until 1ns before opened", Query{Until: t0.Add(-1)}, "", 0},
		{"until 1ns after opened", Query{Until: t0.Add(1)}, "a", 1},
		{"unbounded", Query{}, "a,z", 1},
	} {
		if got := actorsOf(FilterIncidents(edge, tc.q)); got != tc.actors {
			t.Errorf("%s: FilterIncidents kept %q, want %q", tc.name, got, tc.actors)
		}
		incs, _, err := QueryIncidents(s, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := actorsOf(incs); got != tc.actors {
			t.Errorf("%s: QueryIncidents returned %q, want %q", tc.name, got, tc.actors)
		}
		alerts, _, err := QueryAlerts(s, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) != tc.alerts {
			t.Errorf("%s: QueryAlerts returned %d alerts, want %d", tc.name, len(alerts), tc.alerts)
		}
	}
}

// TestQueryAlertsTotalOrder: two alert records equal on time, actor,
// rule and class are still listed in one order, whichever was written
// first — the listing must not depend on segment layout or on how the
// engine's workers interleaved.
func TestQueryAlertsTotalOrder(t *testing.T) {
	base := mkAlert("mallory", rules.SevMedium, t0)
	higher, more := base, base
	higher.Severity = rules.SevCritical
	more.Count = base.Count + 1
	for _, tc := range []struct {
		name string
		a, b AlertRecord
	}{
		{"severity differs", base, higher},
		{"count differs", base, more},
	} {
		var listings [2][]AlertRecord
		for i, pair := range [2][2]AlertRecord{{tc.a, tc.b}, {tc.b, tc.a}} {
			s, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range pair {
				if err := s.AppendAlert(a); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if listings[i], _, err = QueryAlerts(s, Query{}); err != nil {
				t.Fatal(err)
			}
		}
		if want := []AlertRecord{tc.a, tc.b}; !reflect.DeepEqual(listings[0], want) || !reflect.DeepEqual(listings[1], want) {
			t.Errorf("%s: listing depends on write order:\n a,b: %+v\n b,a: %+v", tc.name, listings[0], listings[1])
		}
	}
}

// TestQueryAllocatesForResults: a query pays for what it returns, not
// for what it reads. One incident matches among thousands of records in
// two segments; the allocation count is a small constant (the frame
// reader, two opened files, one result) and does not move when the
// history doubles.
func TestQueryAllocatesForResults(t *testing.T) {
	q := Query{Actor: "needle"}
	for _, n := range []int{5000, 10000} {
		s, err := Open(t.TempDir(), Options{SegmentBytes: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			// Over 256 actors a segment, so the actor facet overflows
			// and both segments are read in full.
			actor := fmt.Sprintf("198.51.100.%d", i%300)
			if i%1000 == 0 {
				actor = q.Actor
			}
			if err := s.AppendIncident(mkIncident(actor, "c", 0, i+1, rules.SevHigh, 60, t0, t0.Add(time.Duration(i)*time.Second))); err != nil {
				t.Fatal(err)
			}
			if i == n/2 {
				if err := s.Close(); err != nil { // seal the first segment
					t.Fatal(err)
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		incs, st, err := QueryIncidents(s, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(incs) != 1 || st.SegmentsSelected != 2 || st.Records != n {
			t.Fatalf("%d records: %d incidents from %d segments and %d records, want 1 from 2 and %d", n, len(incs), st.SegmentsSelected, st.Records, n)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := QueryIncidents(s, q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Errorf("%d records: %.0f allocations per query, want at most 40 whatever the history's length", n, allocs)
		}
	}
}

// TestQueryStopsAtUnwantedBadRecord: every record of a selected segment
// is validated, wanted or not. A CRC-valid frame that is not a record
// ends the segment's valid prefix for a query that would have skipped
// it by kind and by filter, exactly as it does for DecodeFrames.
func TestQueryStopsAtUnwantedBadRecord(t *testing.T) {
	alert, err := AppendRecord(nil, Record{Kind: KindAlert, Alert: mkAlert("other", rules.SevLow, t0)})
	if err != nil {
		t.Fatal(err)
	}
	newer := bytes.Clone(alert)
	newer[1] = RecordVersion + 1
	unknown := bytes.Clone(alert)
	unknown[0] = 9
	for _, tc := range []struct {
		name string
		bad  []byte
	}{
		{"unknown version", newer},
		{"unknown kind", unknown},
		{"one trailing byte", append(bytes.Clone(alert), 0)},
	} {
		data := []byte(segMagic)
		for i, payload := range [][]byte{nil, alert, tc.bad, nil, nil} {
			if payload == nil {
				payload, err = AppendRecord(nil, Record{Kind: KindIncident,
					Incident: mkIncident("needle", "c", 0, i+1, rules.SevHigh, 60, t0, t0.Add(time.Duration(i)*time.Second))})
				if err != nil {
					t.Fatal(err)
				}
			}
			data = seglog.AppendFrame(data, payload)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "hist-00000001.hr"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := DecodeFrames(bytes.NewReader(data), int64(len(data)), func(Record) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if want.Records != 2 || !want.Truncated || want.TailLossBytes <= 0 {
			t.Fatalf("%s: DecodeFrames read %+v, want a two-record valid prefix", tc.name, want)
		}
		s, err := OpenRead(dir)
		if err != nil {
			t.Fatal(err)
		}
		incs, st, err := QueryIncidents(s, Query{Actor: "needle"})
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != want.Records || st.TailLossBytes != want.TailLossBytes {
			t.Errorf("%s: query read %d records and lost %d bytes, DecodeFrames %d and %d",
				tc.name, st.Records, st.TailLossBytes, want.Records, want.TailLossBytes)
		}
		if len(incs) != 1 || incs[0].AlertCount() != 1 {
			t.Errorf("%s: query returned %+v, want only the record before the bad frame", tc.name, incs)
		}
	}
}

// TestQueryResultsOwnTheirStrings: results outlive the frames they were
// decoded from — nothing a later query reads or interns reaches into an
// earlier query's results.
func TestQueryResultsOwnTheirStrings(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		actor := fmt.Sprintf("actor-%02d", i%20)
		at := t0.Add(time.Duration(i) * time.Second)
		if err := s.AppendAlert(mkAlert(actor, rules.SevHigh, at)); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendIncident(mkIncident(actor, "class-"+actor, 0, i+1, rules.SevHigh, 60, t0, at)); err != nil {
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
	alerts, _, err := QueryAlerts(s, Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(incs) != 20 || len(alerts) != 200 {
		t.Fatalf("got %d incidents and %d alerts, want 20 and 200", len(incs), len(alerts))
	}
	var incsCopy []core.Incident
	for _, inc := range incs {
		c := *inc
		c.Actor, c.Class, c.Severity = strings.Clone(c.Actor), strings.Clone(c.Class), rules.Severity(strings.Clone(string(c.Severity)))
		incsCopy = append(incsCopy, c)
	}
	var alertsCopy []AlertRecord
	for _, a := range alerts {
		a.Actor, a.Class, a.RuleID = strings.Clone(a.Actor), strings.Clone(a.Class), strings.Clone(a.RuleID)
		a.Severity = rules.Severity(strings.Clone(string(a.Severity)))
		alertsCopy = append(alertsCopy, a)
	}
	if _, _, err := QueryIncidents(s, Query{Actor: "actor-07"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := QueryAlerts(s, Query{Since: t0.Add(50 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	for i, inc := range incs {
		if !reflect.DeepEqual(*inc, incsCopy[i]) {
			t.Fatalf("incident %d changed under later queries:\n got %+v\nwant %+v", i, *inc, incsCopy[i])
		}
	}
	if !reflect.DeepEqual(alerts, alertsCopy) {
		t.Fatal("alert listing changed under later queries")
	}
}
