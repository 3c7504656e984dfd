package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workload"
)

// alertKey flattens an alert's identity for set comparison, the same
// fingerprint internal/rules/race_test.go uses.
func alertKey(a rules.Alert) string {
	return fmt.Sprintf("%s|%s|%d|%s", a.RuleID, a.Group, a.Count, a.Time.UTC().Format(time.RFC3339Nano))
}

func sortedAlertKeys(alerts []rules.Alert) []string {
	keys := make([]string, len(alerts))
	for i, a := range alerts {
		keys[i] = alertKey(a)
	}
	sort.Strings(keys)
	return keys
}

// incidentKey flattens an incident's full identity — actor, class,
// window, severity, risk, and the exact alert set — so incident-set
// equality means the sharded engine correlated precisely what the
// serial one did.
func incidentKey(inc *Incident) string {
	return fmt.Sprintf("%s|%s|%s|%s|%s|%.2f|%d|%s",
		inc.Actor, inc.Class,
		inc.Opened.UTC().Format(time.RFC3339Nano),
		inc.LastAlert.UTC().Format(time.RFC3339Nano),
		inc.Severity, inc.RiskScore, len(inc.Alerts),
		strings.Join(sortedAlertKeys(inc.Alerts), ","))
}

func sortedIncidentKeys(incs []*Incident) []string {
	keys := make([]string, len(incs))
	for i, inc := range incs {
		keys[i] = incidentKey(inc)
	}
	sort.Strings(keys)
	return keys
}

func requireSameSets(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s diverges at %d:\nserial  %s\nsharded %s", label, i, want[i], got[i])
		}
	}
}

// replayThroughStage emits events into eng through a stage of workers
// actor lanes and returns once every event has been processed.
func replayThroughStage(eng *Engine, events []trace.Event, workers int) {
	st := trace.NewStage(eng, workers, 0, trace.Block)
	for _, e := range events {
		st.Emit(e)
	}
	st.Close()
}

// TestShardedCoreMatchesSerial is the core acceptance test of the
// sharded refactor: actor-sharded parallel replay of the full mixed
// workload must produce exactly the alert set AND the incident set of
// a serial run, per the determinism guarantees in DESIGN.md.
func TestShardedCoreMatchesSerial(t *testing.T) {
	tr := workload.StandardMix(23, 900)

	serial := MustEngine()
	for _, e := range tr.Events {
		serial.Process(e)
	}
	wantAlerts := sortedAlertKeys(serial.Alerts())
	wantIncidents := sortedIncidentKeys(serial.Incidents())
	if len(wantIncidents) == 0 {
		t.Fatal("serial run produced no incidents; trace too small")
	}

	for _, workers := range []int{1, 8} {
		sharded := MustEngine()
		replayThroughStage(sharded, tr.Events, workers)
		requireSameSets(t, fmt.Sprintf("workers=%d alerts", workers),
			wantAlerts, sortedAlertKeys(sharded.Alerts()))
		requireSameSets(t, fmt.Sprintf("workers=%d incidents", workers),
			wantIncidents, sortedIncidentKeys(sharded.Incidents()))
		if got, want := sharded.Stats().Events, serial.Stats().Events; got != want {
			t.Fatalf("workers=%d: events = %d, want %d", workers, got, want)
		}
		// Canonical snapshot IDs must match too: same order, same
		// numbering, no arrival-order artifacts.
		si, pi := serial.Incidents(), sharded.Incidents()
		for i := range si {
			if si[i].ID != pi[i].ID || si[i].Actor != pi[i].Actor || si[i].Class != pi[i].Class {
				t.Fatalf("workers=%d: incident %d = %s/%s/%s, want %s/%s/%s",
					workers, i, pi[i].ID, pi[i].Actor, pi[i].Class, si[i].ID, si[i].Actor, si[i].Class)
			}
		}
	}
}

// TestConcurrentEngineRace drives 16 goroutines — each one actor's
// in-order stream — through a single engine under the race detector
// and demands alert- and incident-set equality with a serial run,
// mirroring internal/rules/race_test.go.
func TestConcurrentEngineRace(t *testing.T) {
	const goroutines = 16
	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

	streams := make([][]trace.Event, goroutines)
	for i := range streams {
		user := fmt.Sprintf("user-%02d", i)
		at := func(j int) time.Time { return base.Add(time.Duration(j) * time.Second) }
		var evs []trace.Event
		// Ransomware-shaped: exec marker + high-entropy write burst.
		evs = append(evs, trace.Event{Time: at(0), Kind: trace.KindExec, User: user,
			Code: "encrypt(read_file(f), k)", Success: true})
		for j := 0; j < 6; j++ {
			evs = append(evs, trace.Event{Time: at(1 + j), Kind: trace.KindFileOp, Op: "write",
				User: user, Target: fmt.Sprintf("nb-%s-%d", user, j), Entropy: 7.9, Success: true})
		}
		// Exfil-shaped: one oversized upload.
		evs = append(evs, trace.Event{Time: at(10), Kind: trace.KindNetOp, Op: "POST",
			User: user, Target: "http://collector.evil.example/drop",
			Bytes: 4 << 20, Entropy: 7.8, Success: true})
		streams[i] = evs
	}

	serial := MustEngine()
	for _, st := range streams {
		for _, e := range st {
			serial.Process(e)
		}
	}

	concurrent := MustEngine()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(st []trace.Event) {
			defer wg.Done()
			for _, e := range st {
				concurrent.Process(e)
			}
		}(streams[i])
	}
	wg.Wait()

	requireSameSets(t, "alerts",
		sortedAlertKeys(serial.Alerts()), sortedAlertKeys(concurrent.Alerts()))
	requireSameSets(t, "incidents",
		sortedIncidentKeys(serial.Incidents()), sortedIncidentKeys(concurrent.Incidents()))
	if got, want := concurrent.Stats(), serial.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestOnAlertRunsOutsideLocks is the regression test for the callback
// contract: OnAlert must run outside every shard lock, so a callback
// that re-enters the engine (Stats, Incidents — or anything else)
// must not deadlock. Before the sharded refactor this was only true
// by accident of the single mutex's unlock placement.
func TestOnAlertRunsOutsideLocks(t *testing.T) {
	opts := DefaultOptions()
	var eng *Engine
	var calls int
	var sawIncident bool
	opts.OnAlert = func(a rules.Alert) {
		calls++
		if st := eng.Stats(); st.Alerts == 0 {
			t.Errorf("Stats() inside OnAlert saw no alerts")
		}
		if len(eng.Incidents()) > 0 {
			sawIncident = true
		}
	}
	var err error
	eng, err = NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Process(trace.Event{Time: t0, Kind: trace.KindExec, User: "m", Code: "encrypt(a,b)"})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("OnAlert re-entering the engine deadlocked")
	}
	if calls == 0 {
		t.Fatal("OnAlert not invoked")
	}
	if !sawIncident {
		t.Fatal("Incidents() inside OnAlert saw no incidents")
	}
}

// TestReportDeterministicAcrossWorkers pins Report and
// IncidentsByClass over the mixed workload trace for worker counts
// 1, 4, and 8: the rendered report (timestamps held fixed) must be
// byte-identical, and the per-class incident grouping must match.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	tr := workload.StandardMix(29, 600)
	now := time.Date(2026, 6, 2, 9, 0, 0, 0, time.UTC)

	var wantReport string
	var wantClasses map[string][]string
	for _, workers := range []int{1, 4, 8} {
		eng := MustEngine()
		replayThroughStage(eng, tr.Events, workers)
		gotReport := eng.Report(now).Render() + RenderIncidentTable(TopIncidents(eng.Incidents(), 10))
		gotClasses := map[string][]string{}
		for class, incs := range eng.IncidentsByClass() {
			for _, inc := range incs {
				gotClasses[class] = append(gotClasses[class], incidentKey(inc))
			}
			sort.Strings(gotClasses[class])
		}
		if wantReport == "" {
			wantReport, wantClasses = gotReport, gotClasses
			if len(wantClasses) == 0 {
				t.Fatal("no incident classes on the mixed trace")
			}
			continue
		}
		if gotReport != wantReport {
			t.Fatalf("workers=%d report diverges:\n%s\nvs\n%s", workers, gotReport, wantReport)
		}
		if len(gotClasses) != len(wantClasses) {
			t.Fatalf("workers=%d classes = %d, want %d", workers, len(gotClasses), len(wantClasses))
		}
		for class, want := range wantClasses {
			got := gotClasses[class]
			if len(got) != len(want) {
				t.Fatalf("workers=%d class %s: %d incidents, want %d", workers, class, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d class %s incident %d:\n%s\nvs\n%s", workers, class, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardCountDoesNotChangeResults pins that Options.Shards only
// tunes lock granularity: 1, 4, and 64 shards must produce identical
// alert and incident sets over the mixed trace.
func TestShardCountDoesNotChangeResults(t *testing.T) {
	tr := workload.StandardMix(31, 400)
	var wantAlerts, wantIncidents []string
	for _, shards := range []int{1, 4, 64} {
		opts := DefaultOptions()
		opts.Shards = shards
		eng, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range tr.Events {
			eng.Process(e)
		}
		gotAlerts := sortedAlertKeys(eng.Alerts())
		gotIncidents := sortedIncidentKeys(eng.Incidents())
		if wantAlerts == nil {
			wantAlerts, wantIncidents = gotAlerts, gotIncidents
			continue
		}
		requireSameSets(t, fmt.Sprintf("shards=%d alerts", shards), wantAlerts, gotAlerts)
		requireSameSets(t, fmt.Sprintf("shards=%d incidents", shards), wantIncidents, gotIncidents)
	}
}
