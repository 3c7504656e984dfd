package core

import (
	"fmt"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workload"
)

// engineOutcome is everything a run leaves behind that a caller can
// observe: alert and incident sets, the rendered incident table, the
// counters, and both hook streams in call order.
type engineOutcome struct {
	alerts, incidents []string
	table             string
	stats             Stats
	onAlert, onUpdate []string
}

func runEngine(t *testing.T, opts Options, feed func(*Engine)) engineOutcome {
	t.Helper()
	var out engineOutcome
	opts.OnAlert = func(a rules.Alert) { out.onAlert = append(out.onAlert, alertKey(a)) }
	opts.OnIncidentUpdate = func(u IncidentUpdate) {
		out.onUpdate = append(out.onUpdate, fmt.Sprintf("%s|%s|%d|%d|%.2f", u.Actor, u.Class, u.Gen, u.Alerts, u.RiskScore))
	}
	eng, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(eng)
	out.alerts = sortedAlertKeys(eng.Alerts())
	out.incidents = sortedIncidentKeys(eng.Incidents())
	out.table = RenderIncidentTable(eng.TopByRisk(50))
	out.stats = eng.Stats()
	return out
}

func requireSameOutcome(t *testing.T, label string, want, got engineOutcome) {
	t.Helper()
	requireSameSets(t, label+" alerts", want.alerts, got.alerts)
	requireSameSets(t, label+" incidents", want.incidents, got.incidents)
	requireSameSets(t, label+" OnAlert calls", want.onAlert, got.onAlert)
	requireSameSets(t, label+" OnIncidentUpdate calls", want.onUpdate, got.onUpdate)
	if got.table != want.table {
		t.Fatalf("%s: incident table differs:\n%s\nwant:\n%s", label, got.table, want.table)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats = %+v, want %+v", label, got.stats, want.stats)
	}
}

// TestEmitBatchMatchesEmit pins the BatchSink contract on the engine:
// a stream handed over in batches of any size leaves exactly what the
// same stream leaves event by event — hooks in the same order too,
// since both run the one per-event body.
func TestEmitBatchMatchesEmit(t *testing.T) {
	events := workload.StandardMix(23, 900).Events // benign mix + every attack injector
	for _, shards := range []int{1, 32} {
		opts := DefaultOptions()
		opts.Shards = shards
		want := runEngine(t, opts, func(eng *Engine) {
			for _, e := range events {
				eng.Emit(e)
			}
		})
		if len(want.incidents) == 0 || len(want.onUpdate) == 0 {
			t.Fatal("per-event run produced no incidents; trace too small")
		}
		for _, size := range []int{1, 7, 128, len(events)} {
			got := runEngine(t, opts, func(eng *Engine) {
				for i := 0; i < len(events); i += size {
					eng.EmitBatch(events[i:min(i+size, len(events))])
				}
			})
			requireSameOutcome(t, fmt.Sprintf("shards=%d batch=%d", shards, size), want, got)
		}
	}
}

// TestEmitBatchOnlyReadsTheSlice holds the engine to the borrow
// contract: the caller may overwrite the slice as soon as EmitBatch
// returns without disturbing anything the engine kept.
func TestEmitBatchOnlyReadsTheSlice(t *testing.T) {
	events := workload.StandardMix(23, 900).Events
	want := runEngine(t, DefaultOptions(), func(eng *Engine) { eng.EmitBatch(events) })
	got := runEngine(t, DefaultOptions(), func(eng *Engine) {
		buf := make([]trace.Event, 64)
		for i := 0; i < len(events); i += len(buf) {
			n := copy(buf, events[i:])
			eng.EmitBatch(buf[:n])
			for j := range buf {
				buf[j] = trace.Event{Kind: trace.KindExec, User: "overwritten", Fields: map[string]string{"x": "y"}}
			}
		}
	})
	requireSameOutcome(t, "reused buffer", want, got)
}

type quietDetector struct{}

func (quietDetector) Name() string                      { return "quiet" }
func (quietDetector) Process(trace.Event) []rules.Alert { return nil }

// The shared per-event body takes a pointer, and Emit and Process hand
// it the address of their parameter. That only stays free while the
// pointer reaches nothing the compiler cannot see through (a detector
// is an interface: it gets a copy); otherwise every by-value call
// would move its event to the heap.
func TestEmitDoesNotMoveTheEventToTheHeap(t *testing.T) {
	eng, err := NewEngine(Options{
		Rules:     rules.BuiltinRules(),
		Detectors: []anomaly.Factory{{Name: "quiet", New: func() anomaly.Detector { return quietDetector{} }}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := trace.Event{Kind: trace.KindKernMsg, User: "alice", MsgType: "status", Channel: "iopub", Success: true}
	batch := []trace.Event{e, e, e, e}
	if fired := eng.Process(e); len(fired) != 0 {
		t.Fatalf("the probe event fired %d alerts", len(fired))
	}
	allocs := testing.AllocsPerRun(200, func() {
		eng.Emit(e)
		eng.Process(e)
		eng.EmitBatch(batch)
		eng.ProcessBatch(batch)
	})
	if allocs != 0 {
		t.Fatalf("a quiet event costs %.1f allocations across Emit, Process, EmitBatch and ProcessBatch, want 0", allocs)
	}
}

// TestStandardMixAllocationsPerEvent is the engine's allocation
// budget on the trace the engine benchmarks replay: the whole
// standard mix, quiet events and attacks together, once warm. Quiet
// events cost nothing (above); what remains is the alerts and
// incident updates of the injected attacks, about 0.1 allocations per
// event. One more allocation per event anywhere on the per-event path
// reads at least 1.1 and fails the ceiling.
func TestStandardMixAllocationsPerEvent(t *testing.T) {
	const ceiling = 0.25
	events := workload.StandardMix(11, 2000).Events
	eng := MustEngine()
	pass := func() {
		for i := range events {
			eng.Emit(events[i])
		}
	}
	pass()
	perEvent := testing.AllocsPerRun(5, pass) / float64(len(events))
	t.Logf("%d events, %.3f allocations per event", len(events), perEvent)
	if perEvent > ceiling {
		t.Fatalf("a pass over the standard mix costs %.3f allocations per event, want at most %.2f", perEvent, ceiling)
	}
}
