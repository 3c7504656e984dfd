// Command jscan is the exposure scanner: it audits a named
// configuration preset, probes a live server the way an internet
// scanner would, or runs a fleet census — spawning N simulated
// servers with misconfiguration presets sampled from the paper's
// taxonomy and deep-scanning them through a bounded, rate-limited
// worker pool with any set of scanner suites (config posture, live
// probe, notebook deep scan, crypto inventory, threat-intel
// enrichment). Census findings are also pushed through the full core
// detection engine — signatures, incident correlation, OSCRP risk
// scoring — so a sweep does not just alert like live monitoring, it
// produces per-target incidents and a risk-ranked summary.
//
//	jscan --preset sloppy
//	jscan --preset hardened
//	jscan --probe 127.0.0.1:8888
//	jscan --fleet 64 --workers 8 --seed 1
//	jscan --fleet 64 --suites misconfig,nbscan,crypto,intel
//	jscan --fleet 64 --rate 100 --resume sweep.ckpt --jsonl results.jsonl --events ./census-store
//
// --events records to an event-store directory in compact binary
// segments; a .jsonl path is refused.
//
// When --events is set, the alerts and incident snapshots the core
// engine correlates also land in an indexed history at
// <events>/history (internal/histstore; --history moves it, "none"
// disables), so the census is queryable afterwards —
// `jsentinel query <events-store> --severity high` — without
// re-running detection.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/cryptoaudit"
	"repro/internal/evstore"
	"repro/internal/fleet"
	"repro/internal/misconfig"
	"repro/internal/nbformat"
	"repro/internal/nbscan"
	"repro/internal/rules"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	preset := flag.String("preset", "", "scan a config preset: hardened | sloppy")
	probe := flag.String("probe", "", "probe a live server at host:port")
	notebook := flag.String("notebook", "", "statically scan a .ipynb file for attack-shaped cells")
	cryptoFlag := flag.Bool("crypto", false, "include the quantum-threat crypto inventory")
	fleetN := flag.Int("fleet", 0, "spawn N simulated servers with sampled misconfig presets and run a census sweep")
	suitesFlag := flag.String("suites", "misconfig", "comma-separated scanner suites for the fleet sweep (misconfig,nbscan,crypto,intel)")
	workers := flag.Int("workers", 4, "fleet sweep worker pool size")
	rate := flag.Float64("rate", 0, "fleet sweep probe rate limit in targets/sec (0 = unlimited)")
	seed := flag.Int64("seed", 1, "fleet preset generator seed (same seed -> identical census)")
	resume := flag.String("resume", "", "fleet checkpoint file; an interrupted sweep continues where it left off")
	topK := flag.Int("topk", 5, "rows in the fleet census's worst-targets list and top-incidents-by-risk table")
	jsonl := flag.String("jsonl", "", "stream per-target fleet results as JSONL to this file ('-' = stdout)")
	events := flag.String("events", "", "record every fleet finding to this event-store directory, replayable with jsentinel --replay")
	history := flag.String("history", "", "record alert/incident history here for jsentinel query (defaults to <events>/history when --events is set; \"none\" disables)")
	flag.Parse()

	switch {
	case *fleetN > 0:
		suiteNames := strings.Split(*suitesFlag, ",")
		if _, err := scan.Resolve(suiteNames); err != nil {
			// Fail fast, before any server is spawned: a typo in
			// --suites is a usage error, not a sweep failure.
			fmt.Fprintf(os.Stderr, "jscan: %v\nusage: --suites takes a comma-separated subset of: %s\n",
				err, strings.Join(scan.Names(), ","))
			os.Exit(2)
		}
		os.Exit(runFleet(*fleetN, *seed, fleet.Options{
			Workers:        *workers,
			Rate:           *rate,
			TopK:           *topK,
			Suites:         suiteNames,
			CheckpointPath: *resume,
		}, *jsonl, *events, *history))
	case *notebook != "":
		data, err := os.ReadFile(*notebook)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jscan: %v\n", err)
			os.Exit(1)
		}
		nb, err := nbformat.Parse(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jscan: invalid notebook: %v\n", err)
			os.Exit(1)
		}
		findings := nbscan.ScanNotebook(nb)
		fmt.Print(nbscan.Render(findings))
		if len(findings) > 0 {
			os.Exit(1)
		}
	case *preset != "":
		cfg, ok := server.PresetConfig(*preset, "scan-placeholder-token")
		if !ok {
			fmt.Fprintf(os.Stderr, "jscan: unknown preset %q\n", *preset)
			os.Exit(2)
		}
		findings := misconfig.Scan(cfg)
		fmt.Print(misconfig.Render(findings))
		if *cryptoFlag {
			fmt.Println()
			fmt.Print(cryptoaudit.Audit(cfg).Render())
		}
		if scan.Score(findings) < 70 {
			os.Exit(1)
		}
	case *probe != "":
		res := misconfig.Probe(*probe, 5*time.Second)
		if !res.Reachable {
			fmt.Printf("jscan: %s unreachable\n", *probe)
			os.Exit(1)
		}
		fmt.Printf("probe of %s: open_access=%v terminals=%v wildcard_cors=%v\n",
			*probe, res.OpenAccess, res.TerminalsEnabled, res.WildcardCORS)
		fmt.Print(misconfig.Render(res.Findings))
		if len(res.Findings) > 0 {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "jscan: need --preset NAME, --probe ADDR, --notebook FILE, or --fleet N")
		os.Exit(2)
	}
}

// runFleet spawns the simulated fleet, sweeps it with the selected
// suites, and prints the census to stdout (performance stats go to
// stderr so the census stays byte-identical run to run). Every
// finding also flows through a bounded stage into the core detection
// engine; the resulting alert tally and the OSCRP incident/risk
// summary are part of the census. Returns the process exit code.
func runFleet(n int, seed int64, opts fleet.Options, jsonlPath, eventsPath, historyPath string) int {
	// Findings feed the detection pipeline: a bounded async stage
	// drains into the full core engine (signatures + incident
	// correlation + OSCRP risk scoring), exactly like live monitoring.
	// The builtin scan rules are stateless and findings attribute to
	// stable target IDs, so the alert tally and the incident summary
	// below are deterministic regardless of worker count or delivery
	// order — the stage keeps each target's findings in order on its
	// actor lane, and every incident aggregate (count, top severity,
	// risk) is order-independent across targets.
	// A census is one sweep: a store that already holds a recorded
	// stream is refused, or it would disagree with the report just
	// printed. A resumed sweep re-emits resumed findings, so its
	// complete stream replaces the interrupted run's partial one.
	mode := evstore.SinkFresh
	if opts.CheckpointPath != "" {
		mode = evstore.SinkReplace
	}
	rec, err := cliutil.Open("jscan", eventsPath, historyPath, mode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jscan: %v\n", err)
		return 1
	}
	// The --jsonl stream is created only once the recording is open, so
	// a refused recording leaves a previous stream as it was.
	var stream io.Writer
	var jsonlFile *os.File
	switch jsonlPath {
	case "":
	case "-":
		stream = os.Stdout
	default:
		f, err := os.Create(jsonlPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jscan: %v\n", err)
			return 1
		}
		jsonlFile = f
		stream = f
	}
	opts.Stream = stream

	engineOpts := core.DefaultOptions()
	rec.Hook(&engineOpts)
	engine, err := core.NewEngine(engineOpts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jscan: %v\n", err)
		return 1
	}
	// A finding is recorded before detection sees it.
	stage := trace.NewStage(engine, opts.Workers, 4096, trace.Block)
	opts.Events = stage
	if rec.Events != nil {
		opts.Events = trace.Tee(rec.Events, stage)
	}

	presets := fleet.Generate(seed, n)
	fl, err := fleet.Spawn(presets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jscan: %v\n", err)
		return 1
	}
	defer fl.Close()

	// Ctrl-C cancels the sweep; completed targets are already in the
	// checkpoint, so rerunning with --resume picks up the remainder.
	ctx, stop := cliutil.SignalContext()
	defer stop()
	report, err := fleet.Scan(ctx, fl.Targets(), opts)
	stage.Close() // drain queued findings before the alert tally
	// Stage drained: every finding's alerts and incident updates have
	// reached the history. Its report goes to stderr, so the census
	// stdout stays byte-identical run to run.
	if cerr := rec.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if jsonlFile != nil {
		// Close errors mean the JSONL stream is incomplete; a silent
		// exit 0 would hand downstream consumers a truncated dataset.
		if cerr := jsonlFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "jscan: sweep interrupted: %v\n", err)
	case err != nil:
		fmt.Fprintf(os.Stderr, "jscan: %v\n", err)
	}
	if report != nil {
		fmt.Print(report.Render())
		fmt.Print(renderAlerts(engine.Alerts()))
		fmt.Print(renderIncidents(engine, opts.TopK))
		fmt.Fprintln(os.Stderr, report.Stats.Render())
	}
	if err != nil {
		return 1
	}
	return 0
}

// renderIncidents renders the OSCRP incident/risk summary the core
// engine correlated from the census finding stream: per-target
// incidents ranked by risk score. No IDs or timestamps appear, so the
// census stays byte-identical across runs and worker counts.
func renderIncidents(eng *core.Engine, topK int) string {
	var b strings.Builder
	st := eng.Stats()
	fmt.Fprintf(&b, "OSCRP incident summary: %d incidents correlated from %d findings\n",
		st.Incidents, st.Events)
	b.WriteString(core.RenderTopIncidents(eng.Incidents(), topK))
	return b.String()
}

// renderAlerts tallies pipeline alerts per rule, sorted by rule ID so
// the census stays deterministic.
func renderAlerts(alerts []rules.Alert) string {
	var b strings.Builder
	fmt.Fprintf(&b, "alerts raised through the rules pipeline: %d\n", len(alerts))
	byRule := map[string]int{}
	for _, a := range alerts {
		byRule[a.RuleID]++
	}
	ids := make([]string, 0, len(byRule))
	for id := range byRule {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "  %-26s %5d\n", id, byRule[id])
	}
	return b.String()
}
