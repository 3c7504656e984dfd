// Command jsentinel is the Jupyter network monitoring tool the paper
// proposes: it either (a) replays a recorded trace through the
// detection engine and prints the incident report, or (b) runs a
// reverse-proxy-style tapped server and streams alerts live. Both
// modes run the sharded core engine — signature rules, per-shard
// anomaly detectors, actor-keyed incident correlation, OSCRP risk
// scoring — and close with a deterministic top-K incidents-by-risk
// table (--topk): the incident set and its rendering are identical
// for any --workers value.
//
// Replay accepts either a legacy JSONL trace file (streamed one event
// at a time, never fully buffered) or an event-store directory
// (internal/evstore) as written by jscan --events or jupyterd --log —
// either segment codec, JSON v1 or binary v2, in any mix; the store
// dispatches per segment, so no flag is needed to read old data.
// Store replay is filtered and segment-parallel: --since/--until/
// --kinds/--actor prune whole segments via the sidecar indexes, and
// on binary-v2 segments the kind/actor facets additionally push down
// into the frame headers, discarding non-matching frames before the
// payload is ever decoded. The survivors feed the actor-sharded
// detection workers directly from per-segment readers. Any stream
// works, including the unified finding stream a fleet census emits:
// scan_finding events hit the same builtin SC-* rules, so a recorded
// sweep re-raises its alerts offline. A store recorded by the
// jingestd multi-tenant ingest front-end replays to a byte-identical
// top-incidents table as its live run — tenant-namespaced actors
// shard the same way offline.
//
// Live mode can record the tapped stream with --log (a store
// directory in binary-v2 segments, or legacy JSONL when the path ends
// in .jsonl). Live mode drains cleanly on SIGINT or SIGTERM: queued
// stage events are processed before the final report renders.
//
// Both modes can persist what detection found — alert records and
// incident snapshots — to an indexed history store (internal/histstore)
// next to the event store: --history DIR in replay mode (rebuilt from
// scratch each run), and by default <log>/history in live mode when
// --log records to a store directory (--history none disables). The
// history is what makes the third mode cheap:
//
//	jsentinel query [filters] PATH
//
// answers "which incidents, for which actor/class, at which minimum
// severity or risk band, in which time window" from the history's
// per-segment indexes in milliseconds — an index probe, not a
// re-detection pass — and renders the same deterministic incident
// table as a full replay of the same filter. PATH is the store
// directory (its history/ is used) or a history directory itself.
// Filters: --actor, --class, --severity MIN, --risk MIN (low,
// moderate, elevated, critical), --since/--until RFC3339. Bad filter
// values and unknown flags are usage errors (exit 2).
//
//	jsentinel --replay events.jsonl
//	jsentinel --replay ./census-store --kinds scan_finding --workers 8
//	jsentinel --replay ./store --since 2026-06-01T00:00:00Z --actor mallory-rw
//	jsentinel --replay ./store --history ./store/history --workers 8
//	jsentinel query ./store --severity high --actor mallory-rw
//	jsentinel query ./store --risk critical --since 2026-06-01T00:00:00Z
//	jsentinel --listen 127.0.0.1:9999 --token <tok>   (tapped live server)
//	jsentinel --listen 127.0.0.1:9999 --log ./tap-store
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/histstore"
	"repro/internal/netmon"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "query" {
		queryCmd(os.Args[2:])
		return
	}
	replay := flag.String("replay", "", "trace to analyze offline: a JSONL file or an event-store directory")
	listen := flag.String("listen", "", "boot a tapped hardened server on this address and monitor it live")
	token := flag.String("token", "sentinel-demo-token", "token for the live server")
	showAlerts := flag.Bool("alerts", true, "print individual alerts")
	zeekOut := flag.String("zeek", "", "write Zeek-format conn/http/websocket/jupyter logs here on exit (live mode)")
	workers := flag.Int("workers", 1, "detection workers: replay shards the trace by actor; live mode drains the tap through an async stage")
	batch := flag.Int("batch", 256, "events per engine batch during replay")
	queue := flag.Int("queue", 4096, "live-mode stage queue depth")
	since := flag.String("since", "", "replay filter: drop events before this RFC3339 time")
	until := flag.String("until", "", "replay filter: drop events after this RFC3339 time")
	kinds := flag.String("kinds", "", "replay filter: comma-separated event kinds (e.g. scan_finding,auth)")
	actor := flag.String("actor", "", "replay filter: only events of this actor key (user, source IP, or kernel)")
	topK := flag.Int("topk", 5, "incidents listed in the top-incidents-by-risk table")
	logPath := flag.String("log", "", "live mode: record the tapped stream here (store directory, or JSONL when the path ends in .jsonl)")
	history := flag.String("history", "", "record alert/incident history here for later `jsentinel query` (replay: off unless set, rebuilt each run; live with a store --log: defaults to <log>/history, \"none\" disables)")
	flag.Parse()

	switch {
	case *replay != "":
		filter, err := parseFilter(*since, *until, *kinds, *actor)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
			os.Exit(2)
		}
		replayTrace(*replay, *showAlerts, *workers, *batch, *topK, filter, *history)
	case *listen != "":
		os.Exit(live(*listen, *token, *showAlerts, *zeekOut, *logPath, *workers, *queue, *topK, *history))
	default:
		fmt.Fprintln(os.Stderr, "jsentinel: need --replay PATH or --listen ADDR")
		os.Exit(2)
	}
}

// parseFilter assembles the replay filter from the CLI flags.
func parseFilter(since, until, kinds, actor string) (evstore.Filter, error) {
	var f evstore.Filter
	if since != "" {
		t, err := parseRFC3339("--since", since)
		if err != nil {
			return f, err
		}
		f.Since = t
	}
	if until != "" {
		t, err := parseRFC3339("--until", until)
		if err != nil {
			return f, err
		}
		f.Until = t
	}
	if kinds != "" {
		for _, k := range strings.Split(kinds, ",") {
			k = strings.TrimSpace(k)
			if k == "" {
				continue
			}
			// A typo here would silently match nothing; fail loudly
			// with the valid set instead.
			if !trace.KnownKind(trace.Kind(k)) {
				known := trace.KnownKinds()
				names := make([]string, len(known))
				for i, kk := range known {
					names[i] = string(kk)
				}
				return f, fmt.Errorf("unknown kind %q in --kinds; known kinds: %s", k, strings.Join(names, ","))
			}
			f.Kinds = append(f.Kinds, trace.Kind(k))
		}
	}
	f.Actor = actor
	return f, nil
}

// queryCmd is `jsentinel query`: answer an incident-history question
// from the per-segment indexes without re-running detection. Unknown
// flags exit 2 via the flag package; malformed filter values exit 2
// with an example of the wanted shape.
func queryCmd(argv []string) {
	fs := flag.NewFlagSet("jsentinel query", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: jsentinel query [--actor A] [--class C] [--severity MIN] [--risk MIN] [--since T] [--until T] [--topk K] [--alerts] PATH")
		fmt.Fprintln(os.Stderr, "PATH is an event-store directory holding a history/ subdirectory, or a history directory itself.")
		fs.PrintDefaults()
	}
	actor := fs.String("actor", "", "only incidents/alerts of this actor key")
	class := fs.String("class", "", "only incidents/alerts of this incident class")
	severity := fs.String("severity", "", "minimum severity (info, low, medium, high, critical)")
	risk := fs.String("risk", "", "minimum risk band (low, moderate, elevated, critical)")
	since := fs.String("since", "", "only activity at or after this RFC3339 time")
	until := fs.String("until", "", "only activity at or before this RFC3339 time")
	topK := fs.Int("topk", 5, "incidents listed in the top-incidents-by-risk table")
	showAlerts := fs.Bool("alerts", false, "also list the matching alert records")
	fs.Parse(argv)

	usageErr := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "jsentinel query: "+format+"\n", args...)
		os.Exit(2)
	}
	var q histstore.Query
	q.Actor = *actor
	q.Class = *class
	if *severity != "" {
		sev, ok := rules.ParseSeverity(*severity)
		if !ok {
			usageErr("bad --severity %q: want one of %s, e.g. --severity high", *severity, severityNames())
		}
		q.MinSeverity = sev
	}
	if *risk != "" {
		band, ok := histstore.ParseBand(*risk)
		if !ok {
			usageErr("bad --risk %q: want one of %s, e.g. --risk elevated", *risk, bandNames())
		}
		q.MinBand = band
	}
	if *since != "" {
		t, err := parseRFC3339("--since", *since)
		if err != nil {
			usageErr("%v", err)
		}
		q.Since = t
	}
	if *until != "" {
		t, err := parseRFC3339("--until", *until)
		if err != nil {
			usageErr("%v", err)
		}
		q.Until = t
	}
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	path := fs.Arg(0)

	// PATH convention: an event store records its history in a
	// history/ subdirectory (the CLIs' default layout); pointing at
	// the store prints its stats too, pointing straight at a history
	// directory skips them.
	histDir := path
	if st, err := os.Stat(cliutil.HistoryDir(path)); err == nil && st.IsDir() {
		histDir = cliutil.HistoryDir(path)
		if es, err := evstore.OpenRead(path); err == nil {
			fmt.Printf("store stats: %s\n", es.Stats().Render())
		}
	}
	hs, err := histstore.OpenRead(histDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel query: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("history stats: %s\n", hs.Stats().Render())

	incs, qst, err := histstore.QueryIncidents(hs, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel query: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("query: %d/%d segments selected, %d records scanned, %d tail-loss bytes\n",
		qst.SegmentsSelected, qst.SegmentsTotal, qst.Records, qst.TailLossBytes)
	fmt.Printf("%d incidents match\n\n", len(incs))
	fmt.Print(core.RenderTopIncidents(incs, *topK))

	if *showAlerts {
		alerts, _, err := histstore.QueryAlerts(hs, q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsentinel query: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n%d alert records match\n", len(alerts))
		for _, a := range alerts {
			fmt.Printf("%s %-20s %-28s %-24s %-8s %d\n",
				a.Time.UTC().Format(time.RFC3339), a.Actor, a.Class, a.RuleID, a.Severity, a.Count)
		}
	}
}

func severityNames() string {
	known := rules.KnownSeverities()
	names := make([]string, len(known))
	for i, s := range known {
		names[i] = string(s)
	}
	return strings.Join(names, ",")
}

func bandNames() string {
	known := histstore.KnownBands()
	names := make([]string, len(known))
	for i, b := range known {
		names[i] = string(b)
	}
	return strings.Join(names, ",")
}

// parseRFC3339 validates a time flag, failing with an example value —
// a bare "parsing time" error doesn't tell the user what shape was
// wanted.
func parseRFC3339(flagName, value string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339, value)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad %s %q: want an RFC3339 time, e.g. 2026-06-01T09:00:00Z", flagName, value)
	}
	return t, nil
}

// newEngine builds the detection engine, optionally printing alerts,
// with rec's history hooked in.
func newEngine(showAlerts bool, rec *cliutil.Recording) *core.Engine {
	opts := core.DefaultOptions()
	if showAlerts {
		opts.OnAlert = func(a rules.Alert) {
			fmt.Printf("ALERT [%-8s] %-28s %-24s %s\n", a.Severity, a.Class, a.RuleID, a.Description)
		}
	}
	rec.Hook(&opts)
	eng, err := core.NewEngine(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		os.Exit(1)
	}
	return eng
}

// replayTrace pushes a recorded trace — JSONL file or store directory
// — through the detection engine and prints the incident report.
// Sharding by actor keeps every correlation group (threshold windows,
// sequences) on one worker in time order, so the parallel replay
// fires the same alerts as a serial one.
func replayTrace(path string, showAlerts bool, workers, batch, topK int, filter evstore.Filter, history string) {
	st, err := os.Stat(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		os.Exit(1)
	}
	// Replay history is explicit opt-in (there is no events path to
	// default it from) and rebuilt from scratch: a replay re-derives the
	// complete detection result, so appending to a previous run's
	// history would duplicate every incident.
	rec, err := cliutil.Open("jsentinel", "", history, evstore.SinkReplace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		os.Exit(1)
	}
	eng := newEngine(showAlerts, rec)
	var mu sync.Mutex
	counts := map[trace.Kind]int{}
	process := func(b []trace.Event) {
		eng.ProcessBatch(b)
		mu.Lock()
		for _, e := range b {
			counts[e.Kind]++
		}
		mu.Unlock()
	}

	start := time.Now()
	var replayed int64
	if st.IsDir() {
		// Read-only open: a replay must never truncate or re-index a
		// store a live writer may still own.
		store, err := evstore.OpenRead(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
			os.Exit(1)
		}
		// The read-only open leaves a torn tail in place, so a replay
		// that visits the torn segment re-counts the bytes Recovered
		// already reported. Subtract only losses from segments the
		// filter actually selects, so bit rot elsewhere still warns
		// even when the torn segment is pruned.
		var knownLoss int64
		indexBySegment := map[string]evstore.Index{}
		for _, seg := range store.Segments() {
			indexBySegment[seg.Path] = seg.Index
		}
		for _, loss := range store.Recovered() {
			fmt.Fprintf(os.Stderr, "jsentinel: %s has a torn tail: %d bytes unreadable (%s)\n",
				loss.Segment, loss.LostBytes, loss.Reason)
			if filter.MatchIndex(indexBySegment[loss.Segment]) {
				knownLoss += loss.LostBytes
			}
		}
		stats, err := store.Replay(filter, workers, batch, process)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsentinel: replay: %v\n", err)
			os.Exit(1)
		}
		replayed = stats.Events
		if extra := stats.TailLossBytes - knownLoss; extra > 0 {
			fmt.Fprintf(os.Stderr, "jsentinel: warning: %d corrupt trailing bytes skipped\n", extra)
		}
		// The full ReplayStats, one line: how much of the store the
		// index pruned, how many frames the header push-down discarded
		// without decoding, and how many corrupt trailing bytes the
		// pass skipped — the numbers an operator needs to judge
		// whether a detection report covered the whole recording.
		fmt.Printf("store: %d/%d segments selected, %d frames decoded, %d skipped undecoded, %d events, %d tail-loss bytes\n",
			stats.SegmentsSelected, stats.SegmentsTotal, stats.Decoded, stats.Skipped,
			stats.Events, stats.TailLossBytes)
		// The sidecar-only store summary — what an operator sizes
		// retention tiers from, printed here and by `jsentinel query`.
		fmt.Printf("store stats: %s\n", store.Stats().Render())
	} else {
		// Legacy JSONL replays as a stream: decode, filter, and route
		// to the shard workers one event at a time, so trace size is
		// bounded by the store, not by RAM.
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		dec := trace.NewDecoder(f)
		next := func() (trace.Event, bool) {
			for {
				e, err := dec.Next()
				if err == io.EOF {
					return trace.Event{}, false
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "jsentinel: parse: %v\n", err)
					os.Exit(1)
				}
				if filter.Match(e) {
					return e, true
				}
			}
		}
		replayed = int64(workload.ReplayStream(next, workers, batch, process))
	}
	elapsed := time.Since(start)
	fmt.Printf("\nreplayed %d events in %v (%.0f events/sec, workers=%d batch=%d)\n",
		replayed, elapsed.Round(time.Millisecond),
		float64(replayed)/elapsed.Seconds(), workers, batch)
	fmt.Printf("event mix: %s\n\n", renderKindMix(counts))
	fmt.Print(eng.Report(time.Now()).Render())
	incs := eng.Incidents()
	fmt.Print(core.RenderTopIncidents(incs, topK))
	for _, inc := range incs {
		fmt.Println(inc.Summary())
	}
	if err := rec.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		os.Exit(1)
	}
}

// renderKindMix summarizes the replayed stream's composition, sorted
// by kind for stable output.
func renderKindMix(counts map[trace.Kind]int) string {
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[trace.Kind(k)]))
	}
	return strings.Join(parts, " ")
}

// live monitors a tapped server until SIGINT or SIGTERM and returns
// the process exit code.
func live(addr, token string, showAlerts bool, zeekOut, logPath string, workers, queue, topK int, history string) int {
	cfg := server.HardenedConfig(token)
	srv := server.NewServer(cfg)
	mon := netmon.NewMonitor(netmon.FullVisibility(), nil)
	// The tapped stream, replayable later with --replay, and the
	// history next to it both append: a monitor log spans restarts.
	rec, err := cliutil.Open("jsentinel", logPath, history, evstore.SinkAppend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		os.Exit(1)
	}
	eng := newEngine(showAlerts, rec)

	// Decouple request handling from detection: events queue into
	// bounded stages drained off the serving path. One single-worker
	// stage per detection worker, routed by actor key — a shared
	// multi-worker pool would reorder one actor's events and break
	// sequence/threshold correlation (fail,fail,success arriving as
	// fail,success,fail).
	if workers <= 0 {
		workers = 1
	}
	stages := make([]*trace.Stage, workers)
	for i := range stages {
		stages[i] = trace.NewStage(eng, 1, queue, trace.Block)
	}
	router := trace.SinkFunc(func(e trace.Event) {
		if rec.Events != nil {
			rec.Events.Emit(e)
		}
		stages[workload.ShardIndex(workload.ActorKey(e), len(stages))].Emit(e)
	})
	mon.Bus().Subscribe(router) // wire-derived events
	srv.Bus().Subscribe(router) // host-derived events

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		os.Exit(1)
	}
	bound, err := srv.Serve(mon.WrapListener(ln))
	if err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("jsentinel: monitored server on http://%s (token %s)\n", bound, token)
	fmt.Println("jsentinel: streaming alerts; Ctrl-C for final report")

	ctx, stop := cliutil.SignalContext()
	defer stop()
	<-ctx.Done()
	_ = srv.Close()
	for _, st := range stages {
		st.Close() // drain queued events before the final report
	}
	// Stages are drained, so every queued event's alerts and incident
	// updates have already reached the history.
	code := 0
	if err := rec.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
		code = 1
	} else if logPath != "" {
		fmt.Printf("jsentinel: tapped stream recorded to %s\n", logPath)
	}

	vis := mon.Visibility()
	fmt.Printf("\nwire visibility: conns=%d bytes=%d http=%d ws_frames=%d jupyter_msgs=%d\n",
		vis.Conns, vis.BytesTotal, vis.HTTPRequests, vis.WSFrames, vis.JupyterMessages)
	fmt.Print(eng.Report(time.Now()).Render())
	fmt.Print(core.RenderTopIncidents(eng.Incidents(), topK))

	if zeekOut != "" {
		f, err := os.Create(zeekOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jsentinel: %v\n", err)
			return code
		}
		defer f.Close()
		if err := mon.WriteAllLogs(f); err != nil {
			fmt.Fprintf(os.Stderr, "jsentinel: zeek export: %v\n", err)
			return code
		}
		fmt.Printf("jsentinel: Zeek logs written to %s\n", zeekOut)
	}
	return code
}
