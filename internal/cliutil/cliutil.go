// Package cliutil is the recording lifecycle the CLIs share: where a
// run's alert/incident history lives, the order the event store and
// the history open and close in, what is reported on stderr, and which
// signals end a daemon.
package cliutil

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/histstore"
	"repro/internal/rules"
)

// HistoryDir is where a run recording events to store keeps its
// history by default: <store>/history for an event-store directory, ""
// (no history) for a flat .jsonl stream or no store at all.
func HistoryDir(store string) string {
	if store == "" || strings.HasSuffix(store, ".jsonl") {
		return ""
	}
	return filepath.Join(store, "history")
}

// historyPath applies a --history value: a directory is used as given,
// "none" turns history off, and "" means HistoryDir(events).
func historyPath(flag, events string) string {
	switch flag {
	case "none":
		return ""
	case "":
		return HistoryDir(events)
	}
	return flag
}

// Recording is one run's recording: the event stream and the history
// of what detection found in it.
type Recording struct {
	Events  *evstore.SinkHandle // nil without an events path
	History *histstore.Recorder // nil when the run keeps no history

	tool, histDir string
	stderr        io.Writer
}

// Open opens tool's recording: the event sink at events ("" for none)
// under mode, then the history the --history value names, under the
// matching mode: a fresh run refuses existing history, a rerun
// replaces it, a long-lived log appends. Recovered tail losses and the
// append notice go to stderr as "<tool>: ...".
func Open(tool, events, history string, mode evstore.SinkMode) (*Recording, error) {
	return open(os.Stderr, tool, events, history, mode)
}

func open(stderr io.Writer, tool, events, history string, mode evstore.SinkMode) (*Recording, error) {
	r := &Recording{tool: tool, histDir: historyPath(history, events), stderr: stderr}
	// Events first: the event store's refusal of a non-empty store is
	// the one the user sees, and a refused run leaves no history behind.
	if events != "" {
		h, err := evstore.OpenSink(events, mode, "")
		if err != nil {
			return nil, err
		}
		r.reportLosses(h.Recovered)
		if h.ExistingEvents > 0 {
			fmt.Fprintf(stderr, "%s: appending to %s (%d events already recorded)\n", tool, events, h.ExistingEvents)
		}
		r.Events = h
	}
	if r.histDir != "" {
		hs, err := histstore.OpenWith(r.histDir, historyModes[mode], histstore.Options{})
		if err != nil {
			if r.Events != nil {
				_ = r.Events.Close() // nothing was recorded; the open error is the one to report
			}
			return nil, err
		}
		r.reportLosses(hs.Recovered())
		r.History = histstore.NewRecorder(hs)
	}
	return r, nil
}

var historyModes = map[evstore.SinkMode]histstore.Mode{
	evstore.SinkFresh:   histstore.OpenFresh,
	evstore.SinkReplace: histstore.OpenReplace,
	evstore.SinkAppend:  histstore.OpenAppend,
}

func (r *Recording) reportLosses(losses []evstore.TailLoss) {
	for _, loss := range losses {
		fmt.Fprintf(r.stderr, "%s: %s had a torn tail: %d bytes truncated (%s)\n",
			r.tool, loss.Segment, loss.LostBytes, loss.Reason)
	}
}

// Hook records the engine's alerts and incident updates in the
// history; without history it changes nothing. The recorder runs
// before the OnAlert already in opts, so a printed alert is never
// ahead of its persisted record.
func (r *Recording) Hook(opts *core.Options) {
	if r.History == nil {
		return
	}
	rec, next := r.History, opts.OnAlert
	opts.OnIncidentUpdate = rec.OnIncidentUpdate
	opts.OnAlert = func(a rules.Alert) {
		rec.OnAlert(a)
		if next != nil {
			next(a)
		}
	}
}

// Close's two steps, in a variable so a test can observe their order.
var closeEvents, closeHistory = (*evstore.SinkHandle).Close, (*histstore.Store).Close

// Close ends the recording once the engine has drained: the event
// stream first, then the history, so history is never sealed ahead of
// the evidence it was derived from. Both are closed whatever the
// other's outcome; the first error is returned. Only a clean close
// reports "<tool>: history recorded to ...".
func (r *Recording) Close() error {
	var err error
	if r.Events != nil {
		if cerr := closeEvents(r.Events); cerr != nil {
			err = fmt.Errorf("event recording: %w", cerr)
		}
	}
	if r.History != nil {
		hs := r.History.Store()
		if cerr := closeHistory(hs); cerr != nil && err == nil {
			err = fmt.Errorf("history: %w", cerr)
		} else if err == nil {
			fmt.Fprintf(r.stderr, "%s: history recorded to %s (%s)\n", r.tool, r.histDir, hs.Stats().Render())
		}
	}
	return err
}

// SignalContext returns a context cancelled by the first SIGINT or
// SIGTERM: what ends a daemon and interrupts a sweep.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}
