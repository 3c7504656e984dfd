package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/anomaly"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/histstore"
	"repro/internal/ingest"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/wsproto"
)

// A drill times one layer alone, from outside, on the inputs the
// workload used: one goroutine, GOMAXPROCS(1) so that a layer with a
// helper goroutine (the stage worker, the garbage collector) is
// charged its whole CPU cost and the hops add up to the serial
// pipeline (budget.coverage).

// drillCap bounds a drill's input: enough events for a steady per-unit
// figure, few enough that a dozen drills fit the run.
const drillCap = 100000

type drillCost struct{ ns, allocs, bytes float64 }

// drill runs fn five times and returns per-unit cost: the fastest
// time — a drill is one goroutine of pure CPU work, which the shared
// box can only slow down, and differences between drills
// (ingest.self, core.self) need the noise gone — and the allocations
// of the last run. fn gets the run's number, for a scratch directory
// of its own.
func drill(units int, fn func(run int) error) (drillCost, error) {
	var ns []float64
	var mem memDelta
	for run := 0; run < 5; run++ {
		runtime.GC()
		before := readMem()
		t0 := time.Now()
		if err := fn(run); err != nil {
			return drillCost{}, err
		}
		ns = append(ns, float64(time.Since(t0)))
		mem = memSince(before)
	}
	u := float64(max(units, 1))
	return drillCost{sorted(ns)[0] / u, float64(mem.mallocs) / u, float64(mem.bytes) / u}, nil
}

// capEvents cuts events to at most drillCap, at a whole number of
// batch-sized frames so the frames and the events stay the same set.
func capEvents(events []trace.Event, batch int) []trace.Event {
	if len(events) <= drillCap {
		return events
	}
	return events[:drillCap/batch*batch]
}

// readFrames is the wsproto hop: every frame of wire, unmasked.
func readFrames(wire []byte) [][]byte {
	var payloads [][]byte
	fr := wsproto.NewFrameReader(bytes.NewReader(wire), 0)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return payloads
		}
		payloads = append(payloads, f.Payload)
	}
}

// okWriter is the in-memory ResponseWriter of the ingest drills; it
// keeps only the status.
type okWriter struct {
	h      http.Header
	status int
}

func (w *okWriter) Header() http.Header         { return w.h }
func (w *okWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *okWriter) WriteHeader(code int)        { w.status = code }

// postBatches feeds JSONL payloads to the service's POST /ingest
// handler in memory — auth, decode, stamp, quota and stage, no
// network — and drains.
func postBatches(svc *ingest.Service, tenant, token string, payloads [][]byte) error {
	h := svc.Handler()
	w := &okWriter{h: http.Header{}}
	refused := 0
	for _, p := range payloads {
		req, err := http.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(p))
		if err != nil {
			return err
		}
		req.Header.Set("X-Tenant", tenant)
		req.Header.Set("Authorization", "Bearer "+token)
		w.status = http.StatusOK
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			refused++
		}
	}
	svc.Drain() // no listener and no WebSocket handler, so nothing to hang on
	if refused != 0 {
		return fmt.Errorf("ingest drill: %d of %d requests refused", refused, len(payloads))
	}
	return nil
}

// liveDrills measures every hop of the live path on tenant 0's first
// events and their frames, then composes them.
func liveDrills(cfg *config, m *metricSet, in *liveInput) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tn := &in.tenants[0]
	events := in.sample
	n := len(events)
	frames := tn.frames[:(n+in.batch-1)/in.batch]
	var wire []byte
	for _, f := range frames {
		wire = append(wire, f...)
	}

	var payloads [][]byte
	read, err := drill(n, func(int) error {
		if payloads = readFrames(wire); len(payloads) != len(frames) {
			return fmt.Errorf("wsproto drill read %d of %d frames", len(payloads), len(frames))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("wsproto.read_ns_per_event", read.ns, fmt.Sprintf("%d events in %d frames", n, len(frames)))
	m.set("wsproto.read_allocs_per_event", read.allocs, "")

	kr := auth.NewKeyring()
	if err := kr.AddTenant(tn.name, []byte("secret-"+tn.name)); err != nil {
		return err
	}
	tok, _ := kr.Mint(tn.name)
	const verifies = 2000
	verify, err := drill(verifies, func(int) error {
		for i := 0; i < verifies; i++ {
			if !kr.Verify(tn.name, tok) {
				return fmt.Errorf("auth drill: minted token refused")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("auth.verify_ns", verify.ns, "once per connection or request")

	dec, err := drill(n, func(int) error {
		decoded := 0
		for _, p := range payloads {
			d := trace.NewDecoder(strings.NewReader(string(p))) // ingest's exact call pattern
			for {
				if _, err := d.Next(); err != nil {
					break
				}
				decoded++
			}
		}
		if decoded != n {
			return fmt.Errorf("JSON decode drill produced %d of %d events", decoded, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("trace.json_decode_ns_per_event", dec.ns, "")
	m.set("trace.json_decode_allocs_per_event", dec.allocs, "")
	m.set("trace.json_decode_bytes_per_event", dec.bytes, "")

	hop, _ := drill(n, func(int) error {
		st := trace.NewStage(trace.Discard, 1, 0, trace.Block)
		for i := range events {
			st.Emit(events[i])
		}
		st.Close()
		return nil
	})
	m.set("trace.stage_hop_ns_per_event", hop.ns, "1 worker, into Discard")

	var buf []byte
	enc, _ := drill(n, func(int) error {
		for i := range events {
			buf = trace.AppendBinaryEvent(buf[:0], events[i], nil)
		}
		return nil
	})
	m.set("trace.bin_encode_ns_per_event", enc.ns, "")

	inproc, err := drill(n, func(int) error {
		svc := ingest.New(ingest.Config{Keyring: kr, Policy: trace.Block}, trace.Discard)
		return postBatches(svc, tn.name, tok, payloads)
	})
	if err != nil {
		return err
	}
	m.set("ingest.inproc_ns_per_event", inproc.ns, "POST /ingest in memory, sink Discard")
	m.set("ingest.inproc_allocs_per_event", inproc.allocs, "")
	m.set("ingest.self_ns_per_event", inproc.ns-dec.ns-hop.ns, "inproc - JSON decode - stage hop")

	coreNs, err := detectionDrills(m, events)
	if err != nil {
		return err
	}

	dir := filepath.Join(cfg.workDir, "drill")
	app, err := drill(n, func(run int) error {
		st, err := evstore.Open(filepath.Join(dir, fmt.Sprintf("append-%d", run)), evstore.Options{})
		if err != nil {
			return err
		}
		for i := range events {
			st.Emit(events[i])
		}
		return st.Close()
	})
	if err != nil {
		return err
	}
	m.set("evstore.append_ns_per_event", app.ns, "Emit per event, default options, close included")
	m.set("evstore.append_allocs_per_event", app.allocs, "")

	eng, err := serialEngine(events)
	if err != nil {
		return err
	}
	alerts := alertsOf(eng.Incidents())
	histNs, err := historyDrill(cfg, m, alerts)
	if err != nil {
		return err
	}
	histShare := histNs * float64(2*len(alerts)) / float64(n)

	// The same hops composed: frames through the frame reader, each
	// payload into POST /ingest, ingest's stage into the real Tee.
	serial, err := drill(n, func(run int) error {
		sdir := filepath.Join(dir, fmt.Sprintf("serial-%d", run))
		hs, err := histstore.OpenWith(filepath.Join(sdir, "history"), histstore.OpenFresh, histstore.Options{})
		if err != nil {
			return err
		}
		rec := histstore.NewRecorder(hs)
		opts := core.DefaultOptions()
		opts.OnAlert, opts.OnIncidentUpdate = rec.OnAlert, rec.OnIncidentUpdate
		eng, err := core.NewEngine(opts)
		if err != nil {
			return err
		}
		st, err := evstore.Open(sdir, evstore.Options{})
		if err != nil {
			return err
		}
		svc := ingest.New(ingest.Config{Keyring: kr, Policy: trace.Block}, trace.Tee(eng, st))
		if err := postBatches(svc, tn.name, tok, readFrames(wire)); err != nil {
			return err
		}
		if err := st.Close(); err != nil {
			return err
		}
		if err := hs.Close(); err != nil {
			return err
		}
		if got := eng.Stats().Events; got != uint64(n) {
			return fmt.Errorf("serial pipeline saw %d of %d events", got, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sum := read.ns + inproc.ns + coreNs + app.ns + histShare
	m.set("budget.hop_sum_ns_per_event", sum, "wsproto.read + ingest.inproc + core + evstore.append + history share")
	m.set("budget.serial_ns_per_event", serial.ns, "the same hops composed, one driver goroutine")
	m.set("budget.coverage", sum/serial.ns, "hop sum / serial pipeline")
	return nil
}

// detectionDrills times rules, the anomaly suite and the whole core
// engine (no hooks) over events and returns core's ns per event.
func detectionDrills(m *metricSet, events []trace.Event) (float64, error) {
	n := len(events)
	rl, err := drill(n, func(int) error {
		en, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			return err
		}
		for i := range events {
			en.Process(events[i])
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	m.set("rules.ns_per_event", rl.ns, "")
	m.set("rules.allocs_per_event", rl.allocs, "")
	an, _ := drill(n, func(int) error {
		dets := anomaly.Build(anomaly.SuiteFactories())
		for i := range events {
			for _, d := range dets {
				d.Process(events[i])
			}
		}
		return nil
	})
	m.set("anomaly.ns_per_event", an.ns, "")
	co, err := drill(n, func(int) error {
		eng, err := core.NewEngine(core.DefaultOptions())
		if err != nil {
			return err
		}
		for i := range events {
			eng.Emit(events[i])
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	m.set("core.ns_per_event", co.ns, "rules + detectors + correlation, no hooks")
	m.set("core.allocs_per_event", co.allocs, "")
	m.set("core.self_ns_per_event", co.ns-rl.ns-an.ns, "core - rules - anomaly")
	return co.ns, nil
}

func alertsOf(incs []*core.Incident) []rules.Alert {
	var alerts []rules.Alert
	for _, inc := range incs {
		alerts = append(alerts, inc.Alerts...)
	}
	return alerts
}

// historyDrill writes alerts (and one incident update each, as the
// engine does) through a Recorder into a fresh history and returns ns
// per record.
func historyDrill(cfg *config, m *metricSet, alerts []rules.Alert) (float64, error) {
	records := 2 * len(alerts)
	var disk int64
	cost, err := drill(records, func(run int) error {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("drill-history-%d", run))
		hs, err := histstore.OpenWith(dir, histstore.OpenFresh, histstore.Options{})
		if err != nil {
			return err
		}
		rec := histstore.NewRecorder(hs)
		for i, a := range alerts {
			rec.OnAlert(a)
			rec.OnIncidentUpdate(core.IncidentUpdate{
				Actor: core.AlertActor(a), Class: a.Class, Opened: a.Time, LastAlert: a.Time,
				Alerts: i + 1, Severity: a.Severity, RiskScore: 50,
			})
		}
		if err := hs.Close(); err != nil {
			return err
		}
		disk, err = dirBytes(dir)
		return err
	})
	if err != nil {
		return 0, err
	}
	m.set("histstore.append_ns_per_record", cost.ns, fmt.Sprintf("%d records through Recorder, close included", records))
	m.set("histstore.disk_bytes_per_record", float64(disk)/float64(max(records, 1)), "segments and sidecars")
	return cost.ns, nil
}

// replayDrills times the read side: segment decode alone (Replay into
// a no-op) and the detection layers on the same events.
func replayDrills(m *metricSet, tr *workload.Trace, store *evstore.Store) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	n := len(tr.Events)
	decode, err := drill(n, func(int) error {
		_, err := store.Replay(evstore.Filter{}, 1, 256, func([]trace.Event) {})
		return err
	})
	if err != nil {
		return err
	}
	m.set("evstore.replay_decode_ns_per_event", decode.ns, fmt.Sprintf("Replay of %d events into a no-op, workers=1", n))
	m.set("evstore.replay_allocs_per_event", decode.allocs, "")
	_, err = detectionDrills(m, capEvents(tr.Events, 1))
	return err
}
