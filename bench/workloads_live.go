package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/trace"
	"repro/internal/workload"
)

// liveSetup is the live workloads' set-up: generate one trace per
// connection, encode and mask the frames, and build (then settle) one
// copy of the system, so work a later change moves into construction
// shows in setup_s.
func liveSetup(cfg *config, c *checker, gen func(seed int64) *workload.Trace, batch int) (*liveInput, *reference, []float64, error) {
	var in *liveInput
	took, err := cfg.timedSetups(func(i int) (err error) {
		if in, err = buildLiveInput(gen, cfg.seed, cfg.conns(), batch); err != nil {
			return err
		}
		rig, err := newLiveRig(in, filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", i)), false, "")
		if err != nil {
			return err
		}
		return rig.settle(c, 0)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	traces := make([]*workload.Trace, len(in.tenants))
	names := make([]string, len(in.tenants))
	for i, tn := range in.tenants {
		traces[i], names[i] = tn.trace, tn.name
	}
	ref, err := buildReference(traces, names)
	// From here on only the encoded frames are needed. Keeping several
	// hundred thousand decoded events alive would make every garbage
	// collection of the measured passes mark the harness's heap, which
	// a daemon that streams its events never holds.
	if cfg.traced {
		in.sample = append([]trace.Event(nil), capEvents(traces[0].Events, batch)...)
	}
	for i := range in.tenants {
		in.tenants[i].trace = nil
	}
	return in, ref, took, err
}

// runLiveSaturate is the closed loop: backpressure alone limits the
// generator, so every hop's CPU cost shows in events per second.
// Several passes over the same frames, each against a fresh system;
// the run reports the best quartile over passes (see bestQuartile).
func runLiveSaturate(cfg *config, c *checker, m *metricSet) (int64, error) {
	gen := func(seed int64) *workload.Trace {
		return workload.StandardMix(seed, cfg.traceSteps()/cfg.conns())
	}
	in, ref, setups, err := liveSetup(cfg, c, gen, satBatch)
	if err != nil {
		return 0, err
	}
	if cfg.traced {
		return tracedLive(cfg, c, m, in, ref, false)
	}
	minPasses := 3
	if cfg.smoke {
		minPasses = 1
	}
	var thr, p50, p75, disk []float64
	var measured float64
	var attempted int64
	for n := 0; n < minPasses || measured < cfg.seconds; n++ {
		ps, err := livePass(cfg, c, in, ref, n, false, false, n == 0)
		if err != nil {
			return attempted, err
		}
		attempted += int64(ps.events)
		measured += float64(ps.wallNs) / 1e9
		lat := sorted(ps.eventLat)
		thr = append(thr, float64(ps.events)/(float64(ps.wallNs)/1e9))
		p50 = append(p50, quantile(lat, 0.5))
		p75 = append(p75, quantile(lat, 0.75))
		disk = append(disk, float64(ps.diskBytes)/float64(ps.events))
	}
	note := fmt.Sprintf("best quartile of %d passes of %d events, %d connections", len(thr), in.events, len(in.tenants))
	m.set("throughput_per_s", bestQuartileRate(thr), fmt.Sprintf("%s; passes %.0f", note, thr))
	m.set("latency_p50_ms", bestQuartile(p50), note+"; frame write to last Tee member, under backlog")
	m.set("latency_p75_ms", bestQuartile(p75), note)
	m.set("disk_bytes_per_event", median(disk), "event store + history after close, median pass")
	m.set("setup_s", median(setups), fmt.Sprintf("median of set-ups %.2f", setups))
	return attempted, nil
}

// pacedGen sizes the dense mix to fill secs seconds at pacedRate.
func pacedGen(cfg *config, secs float64) func(seed int64) *workload.Trace {
	steps := stepsForEvents(int(pacedRate*secs) / cfg.conns())
	return func(seed int64) *workload.Trace { return mixDense(seed, steps) }
}

// runLivePaced is the open loop: a fixed rate far below saturation,
// latency taken from each frame's due time.
func runLivePaced(cfg *config, c *checker, m *metricSet) (int64, error) {
	secs := cfg.seconds
	if cfg.traced {
		secs /= 2 // the traced run makes an untraced and a traced pass
	}
	in, ref, setups, err := liveSetup(cfg, c, pacedGen(cfg, secs), pacedBatch)
	if err != nil {
		return 0, err
	}
	if cfg.traced {
		return tracedLive(cfg, c, m, in, ref, true)
	}
	ps, err := livePass(cfg, c, in, ref, 0, true, false, true)
	if err != nil {
		return int64(in.events), err
	}
	checkLateness(cfg, c, ps.late)
	lat := sorted(ps.eventLat)
	alat, late := sorted(ps.alertLat), sorted(ps.late)
	n := fmt.Sprintf("%d events at %d/s in frames of %d", len(lat), pacedRate, in.batch)
	var w50, w75 []float64
	for _, w := range pacedWindows(ps, in) {
		w50, w75 = append(w50, quantile(w, 0.5)), append(w75, quantile(w, 0.75))
	}
	m.set("throughput_per_s", float64(ps.events)/(float64(ps.wallNs)/1e9), "delivered; "+n)
	m.set("latency_p50_ms", bestQuartile(w50), fmt.Sprintf("due time to last Tee member; best quartile of %d half-second windows", len(w50)))
	m.set("latency_p75_ms", bestQuartile(w75),
		fmt.Sprintf("whole run: p50 %.3f p90 %.3f p99 %.3f ms; alert latency p50 %.3f ms over %d alerts; generator lateness p50 %.4f p90 %.4f ms",
			quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(alat, 0.5), len(alat), quantile(late, 0.5), quantile(late, 0.9)))
	m.set("disk_bytes_per_event", float64(ps.diskBytes)/float64(ps.events), "event store + history after close")
	m.set("setup_s", median(setups), fmt.Sprintf("median of set-ups %.2f", setups))
	return int64(ps.events), nil
}

// checkLateness invalidates a paced run whose generator ran late: its
// latencies would measure the generator. The smoke test skips the
// check, a timing assertion having no place in tier-1.
func checkLateness(cfg *config, c *checker, late []float64) {
	if p50 := quantile(sorted(late), 0.5); p50 > 0.05 && !cfg.smoke {
		c.fail(int64(len(late)), "paced run invalid: generator lateness p50 %.3f ms > 0.05 ms", p50)
	}
}

// tracedLive is the traced run of a live workload: one untraced pass
// for the overhead baseline, one pass with every Tee member and hook
// wrapped, then the drills.
func tracedLive(cfg *config, c *checker, m *metricSet, in *liveInput, ref *reference, paced bool) (int64, error) {
	base, err := livePass(cfg, c, in, ref, 0, paced, false, false)
	if err != nil {
		return 0, err
	}
	ps, err := livePass(cfg, c, in, ref, 1, paced, true, true)
	if err != nil {
		return int64(in.events), err
	}
	events, wall := float64(ps.events), float64(ps.wallNs)
	workers := float64(len(in.tenants)) // one stage worker per tenant runs the Tee
	ilat, elat, alat := sorted(ps.ingestLat), sorted(ps.eventLat), sorted(ps.alertLat)
	m.set("ingest.wire_to_sink_p50_ms", quantile(ilat, 0.5), fmt.Sprintf("%d events", len(ilat)))
	m.set("ingest.wire_to_sink_p90_ms", quantile(ilat, 0.9), "")
	m.set("ingest.stage_pending_max", float64(ps.pending), "of a 1024-deep queue, sampled")
	var accepted, dropped, denied uint64
	for _, t := range ps.tenants {
		accepted, dropped, denied = accepted+t.Accepted, dropped+t.Dropped, denied+t.Denied
	}
	m.set("ingest.accepted", float64(accepted), "")
	m.set("ingest.dropped", float64(dropped), "")
	m.set("ingest.denied", float64(denied), "")
	m.set("core.emit_ns_per_event", float64(ps.coreBusy)/float64(max(ps.coreN, 1)), "includes the history hooks")
	m.set("core.busy_share", float64(ps.coreBusy)/(wall*workers), "of the stage workers' time")
	m.set("core.alerts", float64(ps.alerts), "")
	m.set("core.incidents", float64(ps.incidents), "")
	m.set("histstore.hook_ns_per_record", float64(ps.histBusy)/float64(max(ps.histN, 1)), "")
	m.set("histstore.records", float64(ps.records), "")
	m.set("histstore.busy_share", float64(ps.histBusy)/(wall*workers), "")
	m.set("evstore.emit_ns_per_event", float64(ps.evBusy)/float64(max(ps.evN, 1)), "")
	m.set("evstore.busy_share", float64(ps.evBusy)/(wall*workers), "")
	m.set("evstore.segments", float64(ps.segments), "")
	m.set("process.allocs_per_event", float64(ps.mem.mallocs)/events, "whole process, generator included")
	m.set("process.alloc_bytes_per_event", float64(ps.mem.bytes)/events, "")
	m.set("process.gc_pause_total_ms", float64(ps.mem.pauseNs)/1e6, "")
	m.set("process.peak_heap_mb", float64(ps.mem.peakHeap)/(1<<20), "")
	m.set("loadgen.wire_bytes_per_event", float64(in.wireBytes)/events, "")
	m.set("tail.event_latency_p90_ms", quantile(elat, 0.9), fmt.Sprintf("%d events, whole pass", len(elat)))
	m.set("tail.event_latency_p99_ms", quantile(elat, 0.99), "")
	m.set("tail.event_latency_p999_ms", quantile(elat, 0.999), "")
	m.set("tail.alert_latency_p50_ms", quantile(alat, 0.5), fmt.Sprintf("%d alerts", len(alat)))
	m.set("tail.alert_latency_p90_ms", quantile(alat, 0.9), "")
	if paced {
		checkLateness(cfg, c, ps.late)
		late := sorted(ps.late)
		m.set("loadgen.lateness_p50_ms", quantile(late, 0.5), fmt.Sprintf("%d frames", len(late)))
		m.set("loadgen.lateness_p99_ms", quantile(late, 0.99), "")
		b, t := quantile(sorted(base.eventLat), 0.5), quantile(elat, 0.5)
		m.set("trace_overhead_pct", 100*(t-b)/b, "event latency p50, traced vs untraced")
	} else {
		b, t := float64(base.events)/float64(base.wallNs), events/wall
		m.set("trace_overhead_pct", 100*(b-t)/b, "events per second, traced vs untraced")
	}
	if err := liveDrills(cfg, m, in); err != nil {
		return 2 * int64(in.events), err
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, cfg, ps.spans); err != nil {
			return 2 * int64(in.events), err
		}
	}
	return 2 * int64(in.events), nil
}

// pacedWindows cuts a paced pass into half-second windows by due
// time and returns each window's event latencies, ascending (the whole
// pass as one window when it is shorter than that).
func pacedWindows(ps passStats, in *liveInput) [][]float64 {
	perWindow := pacedRate / 2 / in.batch // frame slots per window
	windows := make([][]float64, (in.frames+perWindow-1)/perWindow)
	for idx, l := range ps.eventLat {
		w := int(in.slotOf[idx]) / perWindow
		windows[w] = append(windows[w], l)
	}
	var out [][]float64
	for _, w := range windows {
		if len(w) >= perWindow*in.batch/2 { // a short last window says little
			out = append(out, sorted(w))
		}
	}
	if len(out) == 0 {
		out = append(out, sorted(ps.eventLat))
	}
	return out
}
