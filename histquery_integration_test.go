// Integration contract for the indexed incident history: a filtered
// query over the recorded history must equal the filtered result of a
// full re-detection pass — byte-identical rendered tables — under any
// worker count, and while the history writer is still live.
package repro_test

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/rules"
	"repro/internal/workload"
)

// detectWithHistory replays tr through a fresh core engine with a
// history recorder attached and returns the engine and the (still
// open, synced) history store.
func detectWithHistory(t *testing.T, tr *workload.Trace, workers int, histDir string, segmentBytes int64) (*core.Engine, *histstore.Store) {
	t.Helper()
	hs, err := histstore.OpenWith(histDir, histstore.OpenReplace, histstore.Options{SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatal(err)
	}
	rec := histstore.NewRecorder(hs)
	opts := core.DefaultOptions()
	opts.OnAlert = rec.OnAlert
	opts.OnIncidentUpdate = rec.OnIncidentUpdate
	eng, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	stageReplay(eng, tr.Events, workers)
	if err := rec.Err(); err != nil {
		t.Fatalf("history recording: %v", err)
	}
	// Sync, not Close: the equality below must hold against a live
	// writer, reading the flushed prefix of the active segment.
	if err := hs.Sync(); err != nil {
		t.Fatal(err)
	}
	return eng, hs
}

func TestHistoryQueryEqualsRedetection(t *testing.T) {
	tr := workload.StandardMix(11, 6000)
	queries := []struct {
		name string
		q    histstore.Query
	}{
		{"unfiltered", histstore.Query{}},
		{"min-severity-high", histstore.Query{MinSeverity: rules.SevHigh}},
		{"actor", histstore.Query{Actor: "mallory-rw"}},
		{"class+band", histstore.Query{MinBand: histstore.BandElevated}},
		{"window", histstore.Query{
			Since: time.Date(2026, 6, 1, 9, 10, 0, 0, time.UTC),
			Until: time.Date(2026, 6, 1, 11, 0, 0, 0, time.UTC),
		}},
	}

	var wantTables map[string]string
	for _, workers := range []int{1, 8} {
		histDir := filepath.Join(t.TempDir(), "history")
		// Small segments: the equality must survive segment rotation,
		// with incidents' update chains split across many segments.
		eng, hs := detectWithHistory(t, tr, workers, histDir, 4<<10)

		// Query through a separate read-only open while the writer is
		// still live — the reader-under-writer discipline end to end.
		reader, err := histstore.OpenRead(histDir)
		if err != nil {
			t.Fatal(err)
		}
		tables := map[string]string{}
		for _, qc := range queries {
			fromHistory, qst, err := histstore.QueryIncidents(reader, qc.q)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, qc.name, err)
			}
			fromEngine := histstore.FilterIncidents(eng.Incidents(), qc.q)
			got := core.RenderTopIncidents(fromHistory, len(fromHistory)+1)
			want := core.RenderTopIncidents(fromEngine, len(fromEngine)+1)
			if got != want {
				t.Errorf("workers=%d %s: query table != re-detection table\nquery:\n%s\nre-detection:\n%s",
					workers, qc.name, got, want)
			}
			if len(fromHistory) == 0 && qc.name != "impossible" {
				t.Errorf("workers=%d %s: query matched nothing — vacuous equality", workers, qc.name)
			}
			if qst.SegmentsTotal == 0 {
				t.Errorf("workers=%d %s: history has no segments", workers, qc.name)
			}
			tables[qc.name] = got
		}
		if err := hs.Close(); err != nil {
			t.Fatal(err)
		}

		// The filtered tables themselves must be identical across
		// worker counts, like every other detection artifact.
		if wantTables == nil {
			wantTables = tables
		} else {
			for name, table := range tables {
				if table != wantTables[name] {
					t.Errorf("%s: table differs between workers 1 and 8:\n%s\nvs\n%s",
						name, wantTables[name], table)
				}
			}
		}
	}
}

// TestHistoryQueryPrunesOnRealTrace checks the perf mechanism (not
// just the result): on a multi-segment history from a real workload,
// a selective filter must actually skip segments.
func TestHistoryQueryPrunesOnRealTrace(t *testing.T) {
	tr := workload.StandardMix(11, 6000)
	histDir := filepath.Join(t.TempDir(), "history")
	_, hs := detectWithHistory(t, tr, 8, histDir, 4<<10)
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	reader, err := histstore.OpenRead(histDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(reader.Segments()); got < 2 {
		t.Fatalf("history fits one segment (%d); shrink SegmentBytes so pruning is observable", got)
	}
	// The brute-force window: a filter matching only late activity.
	_, qst, err := histstore.QueryIncidents(reader, histstore.Query{Actor: "203.0.113.66"})
	if err != nil {
		t.Fatal(err)
	}
	if qst.SegmentsSelected >= qst.SegmentsTotal {
		t.Errorf("actor filter selected %d/%d segments — index pruned nothing",
			qst.SegmentsSelected, qst.SegmentsTotal)
	}
}
