package cliutil

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/histstore"
	"repro/internal/rules"
	"repro/internal/trace"
)

func TestHistoryPath(t *testing.T) {
	for _, tc := range []struct {
		name, flag, events, want string
	}{
		{"explicit", "/h", "/ev", "/h"},
		{"explicit-without-events", "/h", "", "/h"},
		{"none", "none", "/ev", ""},
		{"default-store-dir", "", "/ev", filepath.Join("/ev", "history")},
		{"default-jsonl", "", "/ev.jsonl", ""},
		{"default-no-events", "", "", ""},
	} {
		if got := historyPath(tc.flag, tc.events); got != tc.want {
			t.Errorf("%s: historyPath(%q, %q) = %q, want %q", tc.name, tc.flag, tc.events, got, tc.want)
		}
	}
}

func testAlert(class string) rules.Alert {
	return rules.Alert{
		RuleID: "R-1", Class: class, Severity: rules.SevHigh, Count: 1,
		Time:    time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC),
		Trigger: trace.Event{Kind: trace.KindExec, User: "mallory"},
	}
}

func TestFreshRefusalLeavesNoHistory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	h, err := evstore.OpenSink(dir, evstore.SinkAppend, "")
	if err != nil {
		t.Fatal(err)
	}
	h.Emit(trace.Event{Kind: trace.KindExec, User: "alice"})
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if _, err := open(&out, "t", dir, "", evstore.SinkFresh); err == nil || !strings.Contains(err.Error(), "already holds a recorded stream") {
		t.Fatalf("fresh open of a non-empty store: err = %v, want the event store's refusal", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "history")); !os.IsNotExist(err) {
		t.Fatalf("refused open created history/: stat err = %v", err)
	}

	rec, err := open(&out, "t", dir, "", evstore.SinkAppend)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if want := "t: appending to " + dir + " (1 events already recorded)\n"; !strings.Contains(out.String(), want) {
		t.Errorf("append notice missing %q:\n%s", want, out.String())
	}
}

func TestHookRecordsBeforeCallerAlert(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	rec, err := open(&bytes.Buffer{}, "t", dir, "", evstore.SinkFresh)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	opts := core.Options{}
	persisted := -1
	opts.OnAlert = func(rules.Alert) {
		if err := rec.History.Store().Sync(); err != nil {
			t.Fatal(err)
		}
		hs, err := histstore.OpenRead(filepath.Join(dir, "history"))
		if err != nil {
			t.Fatal(err)
		}
		alerts, _, err := histstore.QueryAlerts(hs, histstore.Query{})
		if err != nil {
			t.Fatal(err)
		}
		persisted = len(alerts)
	}
	rec.Hook(&opts)
	if opts.OnIncidentUpdate == nil {
		t.Fatal("Hook left OnIncidentUpdate unset")
	}
	opts.OnAlert(testAlert("ransomware"))
	if persisted != 1 {
		t.Fatalf("caller's OnAlert saw %d persisted alert records, want 1: the recorder must run first", persisted)
	}
}

func TestCloseOrderAndReport(t *testing.T) {
	var order []string
	ce, ch := closeEvents, closeHistory
	t.Cleanup(func() { closeEvents, closeHistory = ce, ch })
	closeEvents = func(h *evstore.SinkHandle) error { order = append(order, "events"); return ce(h) }
	closeHistory = func(s *histstore.Store) error { order = append(order, "history"); return ch(s) }

	dir := filepath.Join(t.TempDir(), "store")
	var out bytes.Buffer
	rec, err := open(&out, "t", dir, "", evstore.SinkFresh)
	if err != nil {
		t.Fatal(err)
	}
	rec.Events.Emit(trace.Event{Kind: trace.KindExec, User: "mallory"})
	rec.History.OnAlert(testAlert("ransomware"))
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"events", "history"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("close order %v, want %v", order, want)
	}
	want := "t: history recorded to " + filepath.Join(dir, "history") + " (segments=1 records=1 "
	if !strings.Contains(out.String(), want) {
		t.Errorf("report missing %q:\n%s", want, out.String())
	}
}

// A recording that fails to close is an error, and the history is still
// sealed: a sticky store error must not leave the other store open or
// print the success line.
func TestFailedRecordingIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(*Recording)
		want string
	}{
		{"events", func(r *Recording) {
			r.Events.Emit(trace.Event{Kind: trace.KindExec, User: "mallory", Code: strings.Repeat("x", 17<<20)})
		}, "event recording: "},
		{"history", func(r *Recording) {
			r.History.OnAlert(testAlert(strings.Repeat("x", 2<<20)))
		}, "history: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			var out bytes.Buffer
			rec, err := open(&out, "t", dir, "", evstore.SinkFresh)
			if err != nil {
				t.Fatal(err)
			}
			rec.History.OnAlert(testAlert("ransomware"))
			tc.fail(rec)
			err = rec.Close()
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) || !strings.Contains(err.Error(), "exceeds frame limit") {
				t.Fatalf("Close = %v, want a %q frame-limit error", err, tc.want)
			}
			if strings.Contains(out.String(), "history recorded to") {
				t.Errorf("failed recording reported success:\n%s", out.String())
			}
			if tc.name == "events" {
				sidecars, _ := filepath.Glob(filepath.Join(dir, "history", "*.hx"))
				if len(sidecars) == 0 {
					t.Error("history was not sealed after the event recording failed")
				}
			}
		})
	}
}
