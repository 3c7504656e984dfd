package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/scan"
	"repro/internal/trace"
)

// Options tunes a fleet sweep.
type Options struct {
	Workers int           // concurrent probes; default 4
	Rate    float64       // probes per second across all workers; 0 = unlimited
	Burst   int           // token-bucket burst; default Workers
	Timeout time.Duration // per-target probe timeout; default 5s
	TopK    int           // worst targets listed in the report; default 5

	// Suites names the scanner suites to run per target, resolved
	// against the scan registry. Empty means {"misconfig"} — the
	// classic posture-plus-probe census.
	Suites []string

	// Stream receives one JSON line per freshly scanned target as the
	// sweep runs. Optional.
	Stream io.Writer

	// Events receives every census finding projected as a trace event
	// (kind scan_finding): checkpoint-resumed results re-emit at sweep
	// start (in target order) and fresh results as they complete, so
	// the alert tally downstream always covers the whole census.
	// Wiring a bounded trace.Stage over the rules engine here makes a
	// sweep raise alerts through the same pipeline as live monitoring.
	// Emission happens on the Scan goroutine. Optional.
	Events trace.Sink

	// CheckpointPath names a JSONL checkpoint file. Targets already
	// recorded there are skipped (their results folded into the
	// report as resumed), and every fresh result is appended, so an
	// interrupted sweep continues where it left off.
	CheckpointPath string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Burst <= 0 {
		o.Burst = o.Workers
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	if o.TopK <= 0 {
		o.TopK = 5
	}
	if len(o.Suites) == 0 {
		o.Suites = []string{"misconfig"}
	}
	return o
}

// Result is the census record for one target: everything the enabled
// suites learned about it, scored as one posture.
type Result struct {
	TargetID      string         `json:"target_id"`
	Preset        string         `json:"preset"`
	Addr          string         `json:"addr"`
	Suites        []string       `json:"suites"`
	Reachable     bool           `json:"reachable"`
	OpenAccess    bool           `json:"open_access"`
	TerminalsOpen bool           `json:"terminals_open"`
	WildcardCORS  bool           `json:"wildcard_cors"`
	Score         float64        `json:"score"`
	Findings      []scan.Finding `json:"findings"`

	// Resumed marks results loaded from a checkpoint rather than
	// scanned this sweep. Not persisted.
	Resumed bool `json:"-"`
}

// SuiteStat is the wall-clock cost of one suite across a sweep.
type SuiteStat struct {
	Targets int
	TotalMS float64
	MaxMS   float64
}

// Stats is the wall-clock performance of one sweep — reported beside
// the census but excluded from it, so reports stay deterministic.
type Stats struct {
	Scanned       int
	Resumed       int
	TargetsPerSec float64
	ProbeP50MS    float64
	ProbeP95MS    float64
	ProbeMaxMS    float64
	MaxInFlight   int64
	// Incomplete counts targets that could not be fully assessed (a
	// suite failed or cancellation landed mid-target); they are
	// neither counted nor checkpointed, so a resume rescans them.
	Incomplete int64
	PerSuite   map[string]SuiteStat
}

// Scan runs every enabled suite against every target through a
// bounded worker pool and returns the aggregated census. On context
// cancellation it returns the partial report (every completed target
// included exactly once) together with the context error.
func Scan(ctx context.Context, targets []Target, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	suites, err := scan.Resolve(opts.Suites)
	if err != nil {
		return nil, err
	}
	canonical := make([]string, len(suites))
	for i, s := range suites {
		canonical[i] = s.Name()
	}
	sort.Strings(canonical)

	var dedup []Target
	seen := map[string]bool{}
	for _, t := range targets {
		if seen[t.ID] {
			continue
		}
		seen[t.ID] = true
		dedup = append(dedup, t)
	}
	sig := FleetSignature(dedup)

	done := map[string]Result{}
	if opts.CheckpointPath != "" {
		loaded, hdr, err := loadCheckpoint(opts.CheckpointPath)
		if err != nil {
			return nil, err
		}
		if hdr.Signature != "" && hdr.Signature != sig {
			return nil, fmt.Errorf(
				"fleet: checkpoint %s was written for a different fleet (signature %s, current %s); delete it or rerun with the original seed and size",
				opts.CheckpointPath, hdr.Signature, sig)
		}
		if len(hdr.Suites) > 0 && !slices.Equal(hdr.Suites, canonical) {
			return nil, fmt.Errorf(
				"fleet: checkpoint %s was written with suites %s but this sweep runs %s; mixed-suite censuses are not comparable",
				opts.CheckpointPath, strings.Join(hdr.Suites, ","), strings.Join(canonical, ","))
		}
		done = loaded
	}
	var ckpt *checkpointWriter
	if opts.CheckpointPath != "" {
		w, err := openCheckpoint(opts.CheckpointPath, checkpointHeader{
			Version: CheckpointVersion, Signature: sig, Suites: canonical,
		})
		if err != nil {
			return nil, err
		}
		ckpt = w
		defer ckpt.Close()
	}

	var resumed []Result
	var pending []Target
	for _, t := range dedup {
		if r, ok := done[t.ID]; ok {
			if r.Preset != t.Preset {
				return nil, fmt.Errorf(
					"fleet: checkpoint %s records %s as preset %q but the current fleet has %q (checkpoint from a different seed or fleet?)",
					opts.CheckpointPath, t.ID, r.Preset, t.Preset)
			}
			if !slices.Equal(r.Suites, canonical) {
				return nil, fmt.Errorf(
					"fleet: checkpoint %s records %s scanned with suites %s but this sweep runs %s; mixed-suite censuses are not comparable",
					opts.CheckpointPath, t.ID, strings.Join(r.Suites, ","), strings.Join(canonical, ","))
			}
			r.Resumed = true
			resumed = append(resumed, r)
			continue
		}
		pending = append(pending, t)
	}
	if opts.Events != nil && len(resumed) > 0 {
		// Resumed findings re-enter the pipeline too, so the alert
		// tally matches the census histograms whether or not the
		// sweep was interrupted.
		rs := append([]Result{}, resumed...)
		sortResults(rs)
		for _, r := range rs {
			emitFindings(opts.Events, r)
		}
	}

	// scanCtx lets a collector-side failure (checkpoint or stream
	// write) stop the sweep without conflating it with caller
	// cancellation, which is still reported from the parent ctx.
	scanCtx, cancelScan := context.WithCancel(ctx)
	defer cancelScan()

	limiter := trace.NewTokenBucket(opts.Rate, opts.Burst)
	jobs := make(chan Target)
	results := make(chan timedResult)

	var inFlight metrics.Gauge
	var maxInFlight metrics.Gauge
	var incomplete metrics.Gauge
	var suiteErrMu sync.Mutex
	var firstSuiteErr error // first non-cancellation suite failure, surfaced to the caller
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				if scanCtx.Err() != nil {
					continue // drain without scanning
				}
				if err := limiter.Wait(scanCtx); err != nil {
					continue
				}
				maxInFlight.Max(inFlight.Add(1))
				start := time.Now()
				res, suiteMS, scanErr := scanOne(scanCtx, t, suites, canonical, opts.Timeout)
				inFlight.Add(-1)
				if scanErr != nil {
					incomplete.Add(1) // never checkpointed as done; a resume rescans it
					if !errors.Is(scanErr, context.Canceled) {
						suiteErrMu.Lock()
						if firstSuiteErr == nil {
							firstSuiteErr = fmt.Errorf("fleet: target %s: %w", t.ID, scanErr)
						}
						suiteErrMu.Unlock()
					}
					continue
				}
				results <- timedResult{res, time.Since(start), suiteMS}
			}
		}()
	}
	go func() {
		for _, t := range pending {
			jobs <- t
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	tput := metrics.NewThroughput()
	latency := &metrics.Histogram{}
	perSuite := map[string]SuiteStat{}
	var fresh []Result
	var sinkErr error // first stream/checkpoint failure; sweep stops, channel still drains
	for tr := range results {
		if sinkErr != nil {
			continue
		}
		tput.Tick()
		latency.Observe(float64(tr.elapsed.Milliseconds()))
		for name, ms := range tr.suiteMS {
			st := perSuite[name]
			st.Targets++
			st.TotalMS += ms
			if ms > st.MaxMS {
				st.MaxMS = ms
			}
			perSuite[name] = st
		}
		if opts.Stream != nil {
			line, err := json.Marshal(tr.Result)
			if err == nil {
				line = append(line, '\n')
				_, err = opts.Stream.Write(line)
			}
			if err != nil {
				sinkErr = fmt.Errorf("fleet: stream: %w", err)
				cancelScan()
				continue
			}
		}
		if ckpt != nil {
			if err := ckpt.Append(tr.Result); err != nil {
				sinkErr = err
				cancelScan()
				continue
			}
		}
		if opts.Events != nil {
			emitFindings(opts.Events, tr.Result)
		}
		fresh = append(fresh, tr.Result)
	}
	if sinkErr != nil {
		return nil, sinkErr
	}

	all := append(append([]Result{}, resumed...), fresh...)
	report := BuildReport(len(seen), all, opts.TopK)
	report.Stats = Stats{
		Scanned:       len(fresh),
		Resumed:       len(resumed),
		TargetsPerSec: tput.Rate(),
		ProbeP50MS:    latency.Quantile(0.5),
		ProbeP95MS:    latency.Quantile(0.95),
		ProbeMaxMS:    latency.Max(),
		MaxInFlight:   maxInFlight.Value(),
		Incomplete:    incomplete.Value(),
		PerSuite:      perSuite,
	}
	if err := ctx.Err(); err != nil {
		return report, err
	}
	if firstSuiteErr != nil {
		// A failing suite must not masquerade as a clean sweep: the
		// partial census is still returned, but the caller learns how
		// many targets are missing and why.
		return report, fmt.Errorf("%d targets incomplete; first failure: %w",
			incomplete.Value(), firstSuiteErr)
	}
	return report, nil
}

type timedResult struct {
	Result
	elapsed time.Duration
	suiteMS map[string]float64
}

// scanOne runs every enabled suite against one target, merging the
// findings into one scored posture and recording per-suite wall time.
// A non-nil error means the target could not be fully assessed (a
// suite failed or the sweep was cancelled mid-target); such results
// never enter the census or the checkpoint, so a resume rescans them.
func scanOne(ctx context.Context, t Target, suites []scan.Suite, canonical []string, timeout time.Duration) (Result, map[string]float64, error) {
	st := scan.Target{
		ID: t.ID, Addr: t.Addr, Config: t.Knobs.Config(), FS: t.fs, Budget: timeout,
	}
	var lists [][]scan.Finding
	attrs := map[string]string{}
	suiteMS := make(map[string]float64, len(suites))
	for _, s := range suites {
		if err := ctx.Err(); err != nil {
			return Result{}, suiteMS, err
		}
		start := time.Now()
		out, err := s.Run(ctx, st)
		suiteMS[s.Name()] += float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			return Result{}, suiteMS, fmt.Errorf("suite %s: %w", s.Name(), err)
		}
		lists = append(lists, out.Findings)
		for k, v := range out.Attrs {
			attrs[k] = v
		}
	}
	if err := ctx.Err(); err != nil {
		// Cancellation mid-suite is swallowed by probes (an aborted
		// probe just reads as unreachable), so the context must be
		// re-checked here or a half-assessed target would be
		// checkpointed as done.
		return Result{}, suiteMS, err
	}
	findings := scan.Merge(lists...)
	return Result{
		TargetID:      t.ID,
		Preset:        t.Preset,
		Addr:          t.Addr,
		Suites:        canonical,
		Reachable:     attrs[scan.AttrReachable] == "true",
		OpenAccess:    attrs[scan.AttrOpenAccess] == "true",
		TerminalsOpen: attrs[scan.AttrTerminalsOpen] == "true",
		WildcardCORS:  attrs[scan.AttrWildcardCORS] == "true",
		Score:         scan.Score(findings),
		Findings:      findings,
	}, suiteMS, nil
}

// emitFindings projects one fresh result's findings into the event
// pipeline, tagging each event with the target it came from. The
// target ID rides in User so trace.ActorKey — and hence incident
// attribution and store actor indexes — resolve to the stable target
// identity instead of the sweep's ephemeral listen address: a census
// replayed or re-run always names the same actors.
func emitFindings(sink trace.Sink, r Result) {
	for _, f := range r.Findings {
		e := f.Event()
		e.Time = time.Now()
		e.SrcIP = r.Addr
		e.User = r.TargetID
		e.Fields["target_id"] = r.TargetID
		e.Fields["preset"] = r.Preset
		sink.Emit(e)
	}
}

// sortResults orders results by target ID — the canonical order every
// aggregation walks, making reports independent of completion order.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].TargetID < rs[j].TargetID })
}
