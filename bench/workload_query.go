package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/histstore"
	"repro/internal/rules"
	"repro/internal/workload"
)

// queryShape is one query of the fixed cycle and its expectation,
// computed from the reference engine's incidents — never from the
// history.
type queryShape struct {
	name   string
	span   string
	q      histstore.Query
	alerts bool // QueryAlerts instead of QueryIncidents

	count int   // expected result size
	sum   int64 // expected checksum (see incidentSum, alertSum)
	want  []incidentTuple

	lat   []float64
	first []*core.Incident // first result, for the full comparison
}

func incidentSum(incs []*core.Incident) int64 {
	var s int64
	for _, inc := range incs {
		s += int64(inc.AlertCount())*1000 + int64(inc.RiskScore) + inc.LastAlert.UnixNano()%idxMod
	}
	return s
}

// queryShapes builds the cycle: unfiltered, a severity floor, one
// actor, one class, one risk band, a 10% time window, and one alert
// listing over the same window.
func queryShapes(tr *workload.Trace, ref *reference, fault string) []*queryShape {
	first, last := tr.Events[0].Time, tr.Events[len(tr.Events)-1].Time
	span := last.Sub(first)
	since, until := first.Add(span*45/100), first.Add(span*55/100)
	shapes := []*queryShape{
		{name: "all"},
		{name: "severity", q: histstore.Query{MinSeverity: rules.SevHigh}},
		{name: "actor", q: histstore.Query{Actor: tr.Labels[len(tr.Labels)/2].Actor}},
		{name: "class", q: histstore.Query{Class: "ransomware"}},
		{name: "band", q: histstore.Query{MinBand: histstore.BandElevated}},
		{name: "window", q: histstore.Query{Since: since, Until: until}},
		{name: "alerts", q: histstore.Query{Since: since, Until: until}, alerts: true},
	}
	for _, s := range shapes {
		s.span = "query.op." + s.name
		if s.alerts {
			for _, inc := range ref.incidents {
				for _, a := range inc.Alerts {
					if !a.Time.Before(since) && !a.Time.After(until) {
						s.count++
						s.sum += a.Time.UnixNano() % idxMod
					}
				}
			}
			continue
		}
		want := histstore.FilterIncidents(ref.incidents, s.q)
		s.count, s.sum, s.want = len(want), incidentSum(want), tuplesOf(want, "t0")
	}
	if fault == "query" {
		shapes[3].count++ // seeded fault for the smoke test: one wrong expectation
	}
	return shapes
}

// querySetup records the dense trace's history the way a detection
// run does — a serial engine pass through histstore.Recorder, default
// options — and opens it read-only.
func querySetup(cfg *config) (*workload.Trace, *histstore.Store, string, []float64, error) {
	var tr *workload.Trace
	var hist *histstore.Store
	var dir string
	took, err := cfg.timedSetups(func(i int) error {
		tr = mixDense(cfg.seed, cfg.traceSteps())
		stampIndex(tr.Events, 0)
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("history-%d", i))
		w, err := histstore.OpenWith(dir, histstore.OpenFresh, histstore.Options{})
		if err != nil {
			return err
		}
		rec := histstore.NewRecorder(w)
		opts := core.DefaultOptions()
		opts.OnAlert, opts.OnIncidentUpdate = rec.OnAlert, rec.OnIncidentUpdate
		eng, err := core.NewEngine(opts)
		if err != nil {
			return err
		}
		for j := range tr.Events {
			eng.Process(tr.Events[j])
		}
		if err := rec.Err(); err != nil {
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
		hist, err = histstore.OpenRead(dir)
		return err
	})
	return tr, hist, dir, took, err
}

// runOne times one query and checks its size and checksum; the first
// result of each shape is kept for the full tuple comparison after the
// timed loop, so the loop itself allocates only what the query does.
func (s *queryShape) runOne(c *checker, hist *histstore.Store) (time.Duration, histstore.QueryStats) {
	var n int
	var sum int64
	var st histstore.QueryStats
	var err error
	t0 := time.Now()
	if s.alerts {
		var recs []histstore.AlertRecord
		recs, st, err = histstore.QueryAlerts(hist, s.q)
		took := time.Since(t0)
		for i := range recs {
			sum += recs[i].Time.UnixNano() % idxMod
		}
		n = len(recs)
		s.check(c, n, sum, err)
		return took, st
	}
	incs, st, err := histstore.QueryIncidents(hist, s.q)
	took := time.Since(t0)
	if s.first == nil {
		s.first = incs
	}
	n, sum = len(incs), incidentSum(incs)
	s.check(c, n, sum, err)
	return took, st
}

func (s *queryShape) check(c *checker, n int, sum int64, err error) {
	if err != nil {
		c.fail(1, "query %s: %v", s.name, err)
	} else if n != s.count || sum != s.sum {
		c.fail(1, "query %s: got %d results (checksum %d), want %d (%d)", s.name, n, sum, s.count, s.sum)
	}
}

// runIncidentQuery is the closed loop with one client over recorded
// history: it reads what the live workloads write and touches no
// other layer.
func runIncidentQuery(cfg *config, c *checker, m *metricSet) (int64, error) {
	tr, hist, dir, setups, err := querySetup(cfg)
	if err != nil {
		return 0, err
	}
	ref, err := buildReference([]*workload.Trace{tr}, []string{"t0"})
	if err != nil {
		return 0, err
	}
	c.equal("records in the history", int64(hist.Records()), 2*int64(ref.alerts))
	shapes := queryShapes(tr, ref, cfg.fault)
	alerts := alertsOf(ref.incidents)
	if !cfg.traced {
		alerts = nil
	}
	events := ref.events
	// Expectations computed: drop the decoded trace and the reference
	// incidents, which a jsentinel query process never holds and every
	// garbage collection of the measured loop would otherwise mark.
	tr, ref = nil, nil
	minCycles := 10
	if cfg.smoke {
		minCycles = 2
	}
	var spans *spanLog
	if cfg.traced {
		spans = newSpanLog(1 << 16)
	}
	var all []float64
	var scanned, selected int64
	var spent time.Duration
	runtime.GC()
	before := readMem()
	for cycle := 0; cycle < minCycles || spent.Seconds() < cfg.seconds; cycle++ {
		for _, s := range shapes {
			took, st := s.runOne(c, hist)
			if spans != nil {
				spans.end(spans.begin(s.span, int64(spent), -1, int32(len(all))), int64(spent+took))
			}
			spent += took
			s.lat = append(s.lat, took.Seconds()*1e3)
			all = append(all, took.Seconds()*1e3)
			if cycle == 0 {
				scanned += int64(st.Records)
				selected += int64(st.SegmentsSelected)
			}
		}
	}
	mem := memSince(before)
	for _, s := range shapes {
		if !s.alerts {
			c.compareTuples("query "+s.name+" vs FilterIncidents(reference)", tuplesOf(s.first, "t0"), s.want)
			if len(s.want) == 0 {
				c.fail(1, "query %s matches nothing: vacuous", s.name)
			}
		}
	}
	lat := sorted(all)
	if cfg.traced {
		m.set("tail.query_latency_p90_ms", quantile(lat, 0.9), fmt.Sprintf("%d queries", len(lat)))
		m.set("tail.query_latency_p99_ms", quantile(lat, 0.99), "")
		m.set("histstore.query_records_scanned", float64(scanned), "one cycle of seven queries")
		m.set("histstore.query_segments_selected", float64(selected), fmt.Sprintf("one cycle, of %d segments each", len(hist.Segments())))
		m.set("histstore.query_allocs_per_op", float64(mem.mallocs)/float64(len(all)), "")
		m.set("histstore.records", float64(hist.Records()), "")
		for _, s := range shapes {
			m.set("histstore.query_"+s.name+"_p50_ms", median(s.lat), fmt.Sprintf("%d results, %d queries", s.count, len(s.lat)))
		}
		if _, err := historyDrill(cfg, m, alerts); err != nil {
			return int64(len(all)), err
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, cfg, spans); err != nil {
				return int64(len(all)), err
			}
		}
		return int64(len(all)), nil
	}
	disk, err := dirBytes(dir)
	if err != nil {
		return int64(len(all)), err
	}
	n := fmt.Sprintf("%d queries over %d records, cycle of 7 shapes, one client", len(all), hist.Records())
	m.set("throughput_per_s", float64(len(all))/spent.Seconds(), n)
	m.set("latency_p50_ms", quantile(lat, 0.5), n)
	m.set("latency_p75_ms", quantile(lat, 0.75), fmt.Sprintf("p90 %.3f p99 %.3f ms", quantile(lat, 0.9), quantile(lat, 0.99)))
	m.set("disk_bytes_per_event", float64(disk)/float64(events), "history per event of the source trace")
	m.set("setup_s", median(setups), fmt.Sprintf("generate, detect with recorder, close, OpenRead; median of set-ups %.2f", setups))
	return int64(len(all)), nil
}
