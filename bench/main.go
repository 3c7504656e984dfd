// Command bench is the repository's end-to-end budget benchmark: four
// workloads over the path an event actually travels (wire → auth →
// decode → stage → rules → detectors → correlation → evstore →
// histstore → query), each checked against an independent reference.
// README.md has the workloads, metrics and how to read the output;
// BENCHMARK.json at the repository root is the contract it meets.
//
//	go run ./bench --workload live_saturate --seed 11 --seconds 10 --trace 0
//	go run ./bench --workload live_paced --trace 1 --spans spans.json
//	go run ./bench                      # all four workloads, report only
//	go run ./bench --repeat 2           # repeatability table, exit 1 past a bound
//
// The last line of standard output of a single-workload run is one
// JSON object: correct, attempted, failed, metrics. The report for
// people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one run's parameters. fault is set only by the smoke test.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	spans    string
	workDir  string
	nproc    int
	fault    string
	report   io.Writer
}

// conns is the live workloads' connection (= tenant = generator
// goroutine) count: load is sized to the machine, capped at four.
func (c *config) conns() int { return min(c.nproc, 4) }

// traceSteps is the generator step count of the full-size traces
// (about 390k benign-mix or 405k dense-mix events).
func (c *config) traceSteps() int {
	if c.smoke {
		return 4000
	}
	return 300000
}

// timedSetups runs one workload's complete set-up several times (once
// at smoke size) and returns how long each took. setup_s is their
// median, so a burst of interference on the shared box does not
// decide it; the last set-up's products are the ones the run uses.
func (c *config) timedSetups(setup func(i int) error) ([]float64, error) {
	reps := 5
	if c.smoke {
		reps = 1
	}
	var took []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(i); err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// outcome is what one workload run produced.
type outcome struct {
	workload  string
	attempted int64
	failed    int64
	notes     []string
	metrics   *metricSet
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*config, *checker, *metricSet) (int64, error){
	"live_saturate":   runLiveSaturate,
	"live_paced":      runLivePaced,
	"forensic_replay": runForensicReplay,
	"incident_query":  runIncidentQuery,
}

// runWorkload runs cfg.workload in a scratch directory of its own
// under cfg.workDir and removes it afterwards.
func runWorkload(cfg *config) (*outcome, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	sub := *cfg
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sub.workDir = dir
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	c, m := &checker{}, newMetricSet(defs)
	attempted, err := run(&sub, c, m)
	if err != nil && c.failed == 0 {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err != nil {
		// The oracle had already counted failed operations (a hung Drain,
		// say) when the run broke off: report them, not just the error.
		c.notes = append(c.notes, "run broke off: "+err.Error())
	}
	out := &outcome{workload: cfg.workload, attempted: attempted, failed: c.failed, notes: c.notes, metrics: m}
	printReport(cfg.report, out)
	return out, nil
}

func printReport(w io.Writer, out *outcome) {
	fmt.Fprintf(w, "\n== %s: %d operations attempted, %d failed\n", out.workload, out.attempted, out.failed)
	for _, n := range out.notes {
		fmt.Fprintf(w, "   FAILED: %s\n", n)
	}
	for _, d := range out.metrics.defs {
		v, measured := out.metrics.vals[d.name]
		if !measured {
			continue // a layer off this workload's path
		}
		name := d.name
		if a := alias[out.workload][d.name]; a != "" {
			name += " (" + a + ")"
		}
		fmt.Fprintf(w, "   %-52s %14.4f %-9s %s\n", name, v, d.unit, out.metrics.note[d.name])
	}
}

func (out *outcome) line() resultLine {
	return resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics.values()}
}

// repeat runs every workload n times and prints, per end-to-end
// metric and workload, the values, their relative spread and the
// bound; it reports whether every spread stayed within its bound.
func repeat(cfg *config, n int) (bool, error) {
	vals := map[string]map[string][]float64{} // workload -> metric -> values
	ok := true
	for i := 0; i < n; i++ {
		for _, w := range workloadNames {
			sub := *cfg
			sub.workload = w
			out, err := runWorkload(&sub)
			if err != nil {
				return false, err
			}
			ok = ok && out.failed == 0
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				vals[w][d.name] = append(vals[w][d.name], out.metrics.vals[d.name])
			}
		}
	}
	fmt.Printf("repeatability, seed %d, %d runs of %.0f s per workload\n", cfg.seed, n, cfg.seconds)
	fmt.Printf("%-16s %-22s %-44s %8s %7s\n", "workload", "metric", "values", "spread", "bound")
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			vs := sorted(vals[w][d.name])
			spread := (vs[len(vs)-1] - vs[0]) / vs[0]
			verdict := ""
			if spread > bounds[d.name] {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Printf("%-16s %-22s %-44s %7.2f%% %6.1f%%%s\n", w, d.name, fmt.Sprintf("%.6g", vals[w][d.name]), 100*spread, 100*bounds[d.name], verdict)
		}
	}
	return ok, nil
}

// bounds are the regression bounds BENCHMARK.json fixes, repeated here
// for --repeat (bench_test.go keeps the two in step).
var bounds = map[string]float64{
	"throughput_per_s":     0.25,
	"latency_p50_ms":       0.25,
	"latency_p75_ms":       0.25,
	"disk_bytes_per_event": 0.015,
	"setup_s":              0.25,
}

func main() {
	cfg := &config{nproc: runtime.NumCPU(), report: os.Stderr}
	flag.StringVar(&cfg.workload, "workload", "", "one of live_saturate, live_paced, forensic_replay, incident_query (default: all, report only)")
	flag.Int64Var(&cfg.seed, "seed", 11, "input seed; the system under test never sees it")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long each workload measures")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span log instead of the end-to-end metrics")
	flag.StringVar(&cfg.spans, "spans", "", "with --trace 1, where to write the span log (default .bench_work/spans-<workload>.json)")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for the smoke test")
	reps := flag.Int("repeat", 0, "run every workload this many times and print the repeatability table")
	flag.Parse()
	cfg.traced = *trace == 1

	code, err := realMain(cfg, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func realMain(cfg *config, reps int) (int, error) {
	// Everything the benchmark writes stays under the directory it was
	// started in: scratch stores in a per-run directory that is removed
	// on the way out, span logs beside it.
	if err := os.MkdirAll(".bench_work", 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(".bench_work", time.Now().Format("run-150405-"))
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	if reps > 0 {
		ok, err := repeat(cfg, reps)
		if err != nil || !ok {
			return 1, err
		}
		return 0, nil
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	code := 0
	for _, w := range names {
		sub := *cfg
		sub.workload = w
		if sub.traced && sub.spans == "" {
			sub.spans = filepath.Join(".bench_work", "spans-"+w+".json")
		}
		out, err := runWorkload(&sub)
		if err != nil {
			return 0, err
		}
		if out.failed != 0 {
			code = 1
		}
		b, err := json.Marshal(out.line())
		if err != nil {
			return 0, err
		}
		fmt.Println(string(b))
	}
	return code, nil
}
