package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workload"
)

// denseMix is an alert-heavy trace in the shape of the benchmark's:
// benign background with one attack every 300 steps, cycling the six
// classes, every attacker a fresh actor.
func denseMix(seed int64, steps int) []trace.Event {
	g := workload.NewGenerator(seed, t0)
	t := &workload.Trace{}
	users := []string{"alice", "bob", "carol", "dave"}
	for n, done := 0, 0; done < steps; n++ {
		chunk := min(300, steps-done)
		g.Benign(t, users, chunk)
		done += chunk
		switch n % 6 {
		case 0:
			g.InjectRansomware(t, fmt.Sprintf("mallory-rw-%d", n), 12)
		case 1:
			g.InjectExfil(t, fmt.Sprintf("mallory-ex-%d", n), 8<<20, 4)
		case 2:
			g.InjectMiner(t, fmt.Sprintf("mallory-cm-%d", n), 6, 45*time.Second, 15*time.Second)
		case 3:
			g.InjectBruteForce(t, fmt.Sprintf("203.0.0.%d", n+1), 12, true)
		case 4:
			g.InjectLowSlow(t, fmt.Sprintf("198.51.0.%d", n+1), 30, 30*time.Second)
		case 5:
			g.InjectTerminalRecon(t, fmt.Sprintf("mallory-tr-%d", n), fmt.Sprintf("203.1.0.%d", n+1))
		}
	}
	return t.Events
}

// everyKindTail is one event of every known kind and of two foreign
// kinds, each with every field a detector reads set to something a
// detector would act on if it looked.
func everyKindTail(at time.Time) []trace.Event {
	var out []trace.Event
	for i, k := range append(trace.KnownKinds(), "custom", "") {
		out = append(out, trace.Event{
			Time: at.Add(time.Duration(i) * time.Second), Kind: k,
			User: "tail-user", SrcIP: "192.0.2.77", KernelID: "kern-tail",
			Op: "write", Target: "notebooks/tail.ipynb", Success: true,
			Bytes: 4 << 20, Entropy: 7.9, CPUMillis: 90_000,
		})
	}
	return out
}

func stripKinds(fs []anomaly.Factory) []anomaly.Factory {
	out := append([]anomaly.Factory(nil), fs...)
	for i := range out {
		out[i].Kinds = nil
	}
	return out
}

// TestDetectorKindIndexMatchesUnindexed holds the detector kind index
// to being an index and never a filter: an engine whose factories
// declare their kinds fires, event by event and in the same order
// within an event, exactly what the same factories fire when every
// detector is shown every event.
func TestDetectorKindIndexMatchesUnindexed(t *testing.T) {
	withTail := func(events []trace.Event) []trace.Event {
		return append(events, everyKindTail(events[len(events)-1].Time.Add(time.Minute))...)
	}
	streams := map[string][]trace.Event{
		"standard mix": withTail(workload.StandardMix(11, 4000).Events),
		"dense mix":    withTail(denseMix(11, 2400)),
	}
	for name, events := range streams {
		indexed := MustEngine()
		opts := DefaultOptions()
		opts.Detectors = stripKinds(opts.Detectors)
		unindexed, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		anomalyAlerts := 0
		for i := range events {
			got, want := indexed.Process(events[i]), unindexed.Process(events[i])
			if len(got) != len(want) {
				t.Fatalf("%s event %d (%s): %d alerts with the kind index, %d without", name, i, events[i].Kind, len(got), len(want))
			}
			for j := range got {
				if alertKey(got[j]) != alertKey(want[j]) {
					t.Fatalf("%s event %d alert %d: %s with the kind index, %s without", name, i, j, alertKey(got[j]), alertKey(want[j]))
				}
				if strings.HasPrefix(got[j].RuleID, "ANOM-") {
					anomalyAlerts++
				}
			}
		}
		if anomalyAlerts == 0 {
			t.Fatalf("%s: no detector fired; the comparison shows nothing", name)
		}
		requireSameSets(t, name+" incidents", sortedIncidentKeys(unindexed.Incidents()), sortedIncidentKeys(indexed.Incidents()))
		if got, want := RenderIncidentTable(TopIncidents(indexed.Incidents(), 1000)), RenderIncidentTable(TopIncidents(unindexed.Incidents(), 1000)); got != want {
			t.Fatalf("%s: incident table differs:\n%s\nwant:\n%s", name, got, want)
		}
		if indexed.Stats() != unindexed.Stats() {
			t.Fatalf("%s: stats %+v with the kind index, %+v without", name, indexed.Stats(), unindexed.Stats())
		}
	}
}

// kindCounter is a caller's own detector: it counts what it is shown.
type kindCounter struct{ seen map[trace.Kind]int }

func (kindCounter) Name() string { return "test.counter" }
func (c kindCounter) Process(e trace.Event) []rules.Alert {
	c.seen[e.Kind]++
	return nil
}

// A Factory without Kinds is shown every event, as before there was an
// index; one with Kinds exactly the events of those kinds — all
// foreign kinds together, if it lists one.
func TestFactoryKindsSelectEvents(t *testing.T) {
	all, some, foreign := kindCounter{map[trace.Kind]int{}}, kindCounter{map[trace.Kind]int{}}, kindCounter{map[trace.Kind]int{}}
	eng, err := NewEngine(Options{
		Shards: 1,
		Detectors: []anomaly.Factory{
			{Name: "all", New: func() anomaly.Detector { return all }},
			{Name: "some", New: func() anomaly.Detector { return some }, Kinds: []trace.Kind{trace.KindExec, trace.KindAuth}},
			{Name: "foreign", New: func() anomaly.Detector { return foreign }, Kinds: []trace.Kind{"custom", "custom2"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	events := append(everyKindTail(t0), everyKindTail(t0.Add(time.Hour))...)
	eng.EmitBatch(events)
	want := map[trace.Kind]int{}
	for _, e := range events {
		want[e.Kind] = 2
	}
	if !reflect.DeepEqual(all.seen, want) {
		t.Fatalf("a factory without Kinds saw %v, want every event: %v", all.seen, want)
	}
	if want := map[trace.Kind]int{trace.KindExec: 2, trace.KindAuth: 2}; !reflect.DeepEqual(some.seen, want) {
		t.Fatalf("a factory listing exec and auth saw %v", some.seen)
	}
	if want := map[trace.Kind]int{"custom": 2, "": 2}; !reflect.DeepEqual(foreign.seen, want) {
		t.Fatalf("a factory listing two foreign kinds saw %v, want each foreign event once: %v", foreign.seen, want)
	}
}

// TestEventsArePublishedPerBatch pins the counter contract: exact
// after every entry point returns, and inside either callback never
// behind the event that fired it — for a serial feed, exactly at it.
func TestEventsArePublishedPerBatch(t *testing.T) {
	events := append([]trace.Event(nil), workload.StandardMix(23, 900).Events...)
	for i := range events {
		events[i].Seq = uint64(i + 1)
	}
	var eng *Engine
	var calls, current uint64
	opts := DefaultOptions()
	opts.OnAlert = func(a rules.Alert) {
		calls++
		current = a.Trigger.Seq
		if got := eng.Stats().Events; got != current {
			t.Errorf("OnAlert for event %d read Stats().Events = %d", current, got)
		}
	}
	opts.OnIncidentUpdate = func(IncidentUpdate) {
		if got := eng.Stats().Events; got != current {
			t.Errorf("OnIncidentUpdate for event %d read Stats().Events = %d", current, got)
		}
	}
	var err error
	if eng, err = NewEngine(opts); err != nil {
		t.Fatal(err)
	}
	// The trace's attacks sit after each third of it and at its end:
	// every section below holds some.
	n := len(events)
	sections := []struct {
		label string
		feed  func([]trace.Event)
		end   int
	}{
		{"EmitBatch", eng.EmitBatch, n * 45 / 100},
		{"ProcessBatch", func(b []trace.Event) { eng.ProcessBatch(b) }, n * 3 / 4},
		{"Emit", func(b []trace.Event) {
			for _, e := range b {
				eng.Emit(e)
			}
		}, n - 8},
		{"Process", func(b []trace.Event) {
			for _, e := range b {
				eng.Process(e)
			}
		}, n},
		{"an empty EmitBatch", eng.EmitBatch, n},
	}
	fed := 0
	for _, sec := range sections {
		before := calls
		sec.feed(events[fed:sec.end])
		if calls == before && sec.end > fed {
			t.Fatalf("no alert fired during %s; its callback check showed nothing", sec.label)
		}
		fed = sec.end
		if got := eng.Stats().Events; got != uint64(fed) {
			t.Fatalf("after %s: Stats().Events = %d, want %d", sec.label, got, fed)
		}
	}
}
