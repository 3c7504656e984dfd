package main

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayCase is one filtered replay and its independent expectation:
// how many events of the in-memory trace match, and the sum of their
// indices (so the right events, not just the right number).
type replayCase struct {
	name   string
	filter evstore.Filter
	count  int64
	idxSum int64
}

// replayCases picks the three forensic questions from the trace
// itself: one brute-force source address (few events, in few
// segments — the sidecar index prunes), one benign user present in
// every segment (frame-header push-down skips most frames), and one
// event kind.
func replayCases(tr *workload.Trace) []replayCase {
	var addrs []string
	for _, l := range tr.Labels {
		if l.Class == "account_takeover" {
			addrs = append(addrs, l.Actor)
		}
	}
	cases := []replayCase{
		{name: "address", filter: evstore.Filter{Actor: addrs[len(addrs)/2]}},
		{name: "user", filter: evstore.Filter{Actor: benignUsers[0]}},
		{name: "kind", filter: evstore.Filter{Kinds: []trace.Kind{trace.KindAuth}}},
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		key := trace.ActorKey(*e)
		for j, want := range []bool{key == cases[0].filter.Actor, key == cases[1].filter.Actor, e.Kind == trace.KindAuth} {
			if want {
				cases[j].count++
				cases[j].idxSum += int64(indexOf(e.Time))
			}
		}
	}
	return cases
}

// replaySetup generates the dense trace and records it with
// evstore.AppendBatch under default options, then opens it read-only.
func replaySetup(cfg *config) (*workload.Trace, *evstore.Store, string, []float64, error) {
	var tr *workload.Trace
	var store *evstore.Store
	var dir string
	took, err := cfg.timedSetups(func(i int) error {
		tr = mixDense(cfg.seed, cfg.traceSteps())
		stampIndex(tr.Events, 0)
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("store-%d", i))
		w, err := evstore.Open(dir, evstore.Options{})
		if err != nil {
			return err
		}
		if err := w.AppendBatch(tr.Events); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		store, err = evstore.OpenRead(dir)
		return err
	})
	return tr, store, dir, took, err
}

// fullReplay is what jsentinel --replay does: the whole store into a
// fresh core.Engine. It returns the pass time and checks the result.
func fullReplay(c *checker, store *evstore.Store, ref *reference, workers int, spans *spanLog, pass int32) (time.Duration, error) {
	eng, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		return 0, err
	}
	process := func(b []trace.Event) { eng.ProcessBatch(b) }
	t0 := time.Now()
	root := int32(-1)
	if spans != nil {
		root = spans.begin("replay.pass", 0, -1, pass)
		var batches atomic.Int64
		process = func(b []trace.Event) {
			if batches.Add(1)%spanSample != 0 {
				eng.ProcessBatch(b)
				return
			}
			sp := spans.begin("core.batch", int64(time.Since(t0)), root, pass)
			eng.ProcessBatch(b)
			spans.end(sp, int64(time.Since(t0)))
		}
	}
	stats, err := store.Replay(evstore.Filter{}, workers, 256, process)
	took := time.Since(t0)
	if spans != nil {
		spans.end(root, int64(took))
	}
	if err != nil {
		c.fail(int64(ref.events), "replay: %v", err)
		return took, nil
	}
	c.equal("events the replay delivered", stats.Events, int64(ref.events))
	c.equal("events the replay engine saw", int64(eng.Stats().Events), int64(ref.events))
	c.compareTuples("replayed incidents vs serial reference", tuplesOf(eng.Incidents(), "t0"), ref.tuples)
	return took, nil
}

// filteredReplay runs one forensic question into a counting consumer.
func filteredReplay(c *checker, store *evstore.Store, rc *replayCase, workers int) (time.Duration, evstore.ReplayStats) {
	var count, idxSum atomic.Int64
	t0 := time.Now()
	stats, err := store.Replay(rc.filter, workers, 256, func(b []trace.Event) {
		var s int64
		for i := range b {
			s += int64(indexOf(b[i].Time))
		}
		count.Add(int64(len(b)))
		idxSum.Add(s)
	})
	took := time.Since(t0)
	if err != nil {
		c.fail(1, "filtered replay %s: %v", rc.name, err)
	}
	if count.Load() != rc.count || idxSum.Load() != rc.idxSum {
		c.fail(1, "filtered replay %s: got %d events (index sum %d), want %d (%d)", rc.name, count.Load(), idxSum.Load(), rc.count, rc.idxSum)
	}
	return took, stats
}

// runForensicReplay is the batch workload: the read side of the event
// store, the codec, rules and core with no network, JSON or stage.
// Just over half the measuring time goes to full re-detection passes,
// the rest to cycles of the three filtered questions.
func runForensicReplay(cfg *config, c *checker, m *metricSet) (int64, error) {
	tr, store, dir, setups, err := replaySetup(cfg)
	if err != nil {
		return 0, err
	}
	ref, err := buildReference([]*workload.Trace{tr}, []string{"t0"})
	if err != nil {
		return 0, err
	}
	cases := replayCases(tr)
	if cfg.traced {
		return tracedReplay(cfg, c, m, tr, store, ref, cases)
	}
	// The expectations are computed; the decoded trace would only make
	// every garbage collection of the measured passes mark 400k events
	// that jsentinel --replay never holds.
	tr, ref.incidents = nil, nil
	minPasses, minCycles := 3, 10
	if cfg.smoke {
		minPasses, minCycles = 1, 2
	}
	var attempted int64
	var full []float64
	for spent := 0.0; len(full) < minPasses || spent < 0.55*cfg.seconds; {
		took, err := fullReplay(c, store, ref, cfg.nproc, nil, 0)
		if err != nil {
			return attempted, err
		}
		attempted += int64(ref.events)
		spent += took.Seconds()
		full = append(full, took.Seconds())
	}
	var cycles []float64
	for spent := 0.0; len(cycles) < minCycles || spent < 0.45*cfg.seconds; {
		var cycle time.Duration
		for i := range cases {
			took, _ := filteredReplay(c, store, &cases[i], cfg.nproc)
			cycle += took
			attempted += cases[i].count
		}
		spent += cycle.Seconds()
		cycles = append(cycles, cycle.Seconds()*1e3)
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return attempted, err
	}
	cyc := sorted(cycles)
	m.set("throughput_per_s", float64(ref.events)/bestQuartile(full),
		fmt.Sprintf("best quartile of %d full re-detection passes of %d events, %d workers, %d segments", len(full), ref.events, cfg.nproc, len(store.Segments())))
	m.set("latency_p50_ms", quantile(cyc, 0.5), fmt.Sprintf("%d cycles of the three filtered replays (address, user, kind)", len(cyc)))
	m.set("latency_p75_ms", quantile(cyc, 0.75), "")
	m.set("disk_bytes_per_event", float64(disk)/float64(ref.events), "event store, segments and sidecars")
	m.set("setup_s", median(setups), fmt.Sprintf("generate, AppendBatch, close, OpenRead; median of set-ups %.2f", setups))
	return attempted, nil
}

// tracedReplay adds the serial baseline, a spanned pass, the filtered
// cases' pruning counts and the read-side drills.
func tracedReplay(cfg *config, c *checker, m *metricSet, tr *workload.Trace, store *evstore.Store, ref *reference, cases []replayCase) (int64, error) {
	passes := 3
	if cfg.smoke {
		passes = 1
	}
	spans := newSpanLog(ref.events/256/spanSample*2 + 64)
	var plain, serial []float64
	var attempted int64
	for i := 0; i < passes; i++ {
		took, err := fullReplay(c, store, ref, cfg.nproc, nil, 0)
		if err != nil {
			return attempted, err
		}
		plain = append(plain, took.Seconds())
		if took, err = fullReplay(c, store, ref, 1, nil, 0); err != nil {
			return attempted, err
		}
		serial = append(serial, took.Seconds())
		attempted += 2 * int64(ref.events)
	}
	spanned, err := fullReplay(c, store, ref, cfg.nproc, spans, 0)
	if err != nil {
		return attempted, err
	}
	attempted += int64(ref.events)
	m.set("replay.serial_events_per_s", float64(ref.events)/median(serial), fmt.Sprintf("workers=1, median of %d passes", passes))
	m.set("trace_overhead_pct", 100*(spanned.Seconds()-median(plain))/median(plain), "full pass time, spanned vs plain")
	var skipped, selected int64
	for i := range cases {
		_, st := filteredReplay(c, store, &cases[i], cfg.nproc)
		skipped += st.Skipped
		selected += int64(st.SegmentsSelected)
		attempted += cases[i].count
	}
	m.set("evstore.frames_skipped", float64(skipped), "sum over the three filtered cases")
	m.set("evstore.segments_selected", float64(selected), fmt.Sprintf("sum over the three cases, of %d segments each", len(store.Segments())))
	m.set("evstore.segments", float64(len(store.Segments())), "")
	if err := replayDrills(m, tr, store); err != nil {
		return attempted, err
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, cfg, spans); err != nil {
			return attempted, err
		}
	}
	return attempted, nil
}
