// Package anomaly implements the statistical detectors that complement
// the signature engine: EWMA rate baselines, a byte-entropy
// exfiltration detector, a write-burst + extension-churn ransomware
// detector, a sustained-CPU cryptomining detector, and the
// low-and-slow detector for the evasion attacks the paper warns about.
//
// Each detector consumes trace events and produces rules.Alert values
// so the core engine treats signature and anomaly findings uniformly.
//
// Detectors key all correlation state by trace.ActorKey of the
// trigger event — exactly the key sharded consumers route events by
// (user for file and net operations, kernel for resource samples,
// source address for transport probes, with the same fallbacks when
// a field is empty). That confinement is what lets the sharded core
// engine instantiate one detector set per actor shard — via Factory /
// SuiteFactories — and still fire exactly the alerts one global
// instance fires: an event can never consult another shard's state,
// because its state key IS its shard key. Individual detectors remain
// safe for concurrent use on their own (each guards its maps with a
// mutex), so embedding one directly in a serial pipeline keeps
// working.
package anomaly

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/rules"
	"repro/internal/trace"
)

// Detector consumes events and emits alerts.
type Detector interface {
	// Name identifies the detector in alerts.
	Name() string
	// Process evaluates one event, returning zero or more alerts.
	Process(e trace.Event) []rules.Alert
}

// Factory builds fresh detector instances. Sharded engines (the core
// package) instantiate one detector set per actor shard, so each
// shard's instance only ever sees the in-order event stream of the
// actors hashed to it; because detector state is keyed per actor, the
// union of per-shard alerts equals a single global instance's alerts.
type Factory struct {
	// Name identifies the detector family (matches Detector.Name of
	// the instances New returns).
	Name string
	// New returns a fresh, stateless-start instance.
	New func() Detector
	// Kinds lists the event kinds the detector looks at; nil means
	// every kind. An engine uses it as an index, never a filter: it
	// skips the call for other kinds, so Process must return nil for
	// those without touching its state.
	Kinds []trace.Kind
}

// SuiteFactories returns factories for the default detector suite,
// each declaring the kinds its Process looks past its first test for.
// Sharded engines build one set per shard; a serial pipeline wanting a
// single set calls Build(SuiteFactories()).
func SuiteFactories() []Factory {
	return []Factory{
		{Name: "anomaly.ransomware", New: func() Detector { return NewRansomware(DefaultRansomwareConfig()) },
			Kinds: []trace.Kind{trace.KindFileOp}},
		{Name: "anomaly.exfil", New: func() Detector { return NewExfil(DefaultExfilConfig()) },
			Kinds: []trace.Kind{trace.KindNetOp}},
		{Name: "anomaly.miner", New: func() Detector { return NewMiner(DefaultMinerConfig()) },
			Kinds: []trace.Kind{trace.KindSysRes}},
		{Name: "anomaly.lowslow", New: func() Detector { return NewLowSlow(DefaultLowSlowConfig()) },
			Kinds: []trace.Kind{trace.KindHTTP, trace.KindAuth}},
	}
}

// Build instantiates one detector per factory.
func Build(factories []Factory) []Detector {
	out := make([]Detector, len(factories))
	for i, f := range factories {
		out[i] = f.New()
	}
	return out
}

// ---- EWMA baseline ----

// EWMA is an exponentially weighted moving average with variance
// tracking, used for per-entity rate baselines.
type EWMA struct {
	Alpha    float64
	mean     float64
	variance float64
	n        int
}

// Update folds in an observation and returns the z-score of the
// observation against the pre-update baseline (0 during warmup).
func (e *EWMA) Update(x float64) float64 {
	if e.Alpha <= 0 {
		e.Alpha = 0.1
	}
	var z float64
	if e.n >= 5 && e.variance > 1e-12 {
		z = (x - e.mean) / math.Sqrt(e.variance)
	}
	if e.n == 0 {
		e.mean = x
	} else {
		diff := x - e.mean
		incr := e.Alpha * diff
		e.mean += incr
		e.variance = (1 - e.Alpha) * (e.variance + diff*incr)
	}
	e.n++
	return z
}

// Mean returns the current baseline mean.
func (e *EWMA) Mean() float64 { return e.mean }

// StdDev returns the current baseline standard deviation.
func (e *EWMA) StdDev() float64 { return math.Sqrt(e.variance) }

// Samples returns the number of observations folded in.
func (e *EWMA) Samples() int { return e.n }

// ---- Ransomware detector ----

// RansomwareConfig tunes the ransomware detector.
type RansomwareConfig struct {
	EntropyThreshold float64       // bits/byte over which a write is "encrypted-looking"
	BurstCount       int           // encrypted-looking writes to trigger
	BurstWindow      time.Duration // within this window
	// EntropyJump triggers on a single file whose write entropy rises
	// by this much versus its previous content entropy.
	EntropyJump float64
}

// DefaultRansomwareConfig returns tuned defaults.
func DefaultRansomwareConfig() RansomwareConfig {
	return RansomwareConfig{
		EntropyThreshold: 7.2,
		BurstCount:       5,
		BurstWindow:      2 * time.Minute,
		EntropyJump:      3.5,
	}
}

// Ransomware detects encryption sweeps over the content filesystem.
type Ransomware struct {
	cfg RansomwareConfig

	mu sync.Mutex
	// Every state map here is pointer-valued, its key cloned on first
	// insert, so a repeat event updates in place: assigning through the
	// map would swap the stored key for the event's strings, which may
	// be backed by a whole decode arena chunk or wire line.
	writeTimes map[string]*[]time.Time // actor key -> encrypted-looking write times
	// lastEntropy is keyed by actor and path, not bare path: entropy
	// history must stay confined to one actor or per-shard instances
	// (each seeing only its own actors' writes) would diverge from a
	// global one when two users touch the same file.
	lastEntropy map[fileKey]*float64
}

// fileKey is a struct, not a joined string: no separator byte can make
// two (actor, target) pairs collide, and a lookup builds nothing.
type fileKey struct{ actor, target string }

// NewRansomware returns a ransomware detector.
func NewRansomware(cfg RansomwareConfig) *Ransomware {
	if cfg.EntropyThreshold == 0 {
		cfg = DefaultRansomwareConfig()
	}
	return &Ransomware{
		cfg:         cfg,
		writeTimes:  map[string]*[]time.Time{},
		lastEntropy: map[fileKey]*float64{},
	}
}

// Name implements Detector.
func (d *Ransomware) Name() string { return "anomaly.ransomware" }

// Process implements Detector.
func (d *Ransomware) Process(e trace.Event) []rules.Alert {
	if e.Kind != trace.KindFileOp || (e.Op != "write" && e.Op != "create") || !e.Success {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var alerts []rules.Alert
	actor := trace.ActorKey(e)

	// Per-file entropy jump: a notebook that was text suddenly
	// becomes ciphertext.
	if last := d.lastEntropy[fileKey{actor, e.Target}]; last == nil {
		first := e.Entropy
		d.lastEntropy[fileKey{strings.Clone(actor), strings.Clone(e.Target)}] = &first
	} else {
		prev := *last
		*last = e.Entropy
		if e.Entropy-prev >= d.cfg.EntropyJump && e.Entropy >= d.cfg.EntropyThreshold {
			alerts = append(alerts, rules.Alert{
				RuleID: "ANOM-RW-entropy-jump", Class: rules.ClassRansomware,
				Severity: rules.SevHigh,
				Description: fmt.Sprintf("entropy of %s jumped %.1f -> %.1f bits/byte",
					e.Target, prev, e.Entropy),
				Time: e.Time, Group: actor, Trigger: e.Clone(), Count: 1,
			})
		}
	}

	// Burst of encrypted-looking writes.
	if e.Entropy >= d.cfg.EntropyThreshold {
		times := d.writeTimes[actor]
		if times == nil {
			times = new([]time.Time)
			d.writeTimes[strings.Clone(actor)] = times
		}
		fresh := (*times)[:0]
		for _, t := range *times {
			if e.Time.Sub(t) <= d.cfg.BurstWindow {
				fresh = append(fresh, t)
			}
		}
		fresh = append(fresh, e.Time)
		*times = fresh
		if len(fresh) >= d.cfg.BurstCount {
			*times = fresh[:0]
			alerts = append(alerts, rules.Alert{
				RuleID: "ANOM-RW-write-burst", Class: rules.ClassRansomware,
				Severity: rules.SevCritical,
				Description: fmt.Sprintf("%d high-entropy overwrites by %q within %s",
					len(fresh), actor, d.cfg.BurstWindow),
				Time: e.Time, Group: actor, Trigger: e.Clone(), Count: len(fresh),
			})
		}
	}
	return alerts
}

// ---- Exfiltration detector ----

// ExfilConfig tunes the exfiltration detector.
type ExfilConfig struct {
	// VolumeZ triggers when a user's outbound bytes-per-event z-score
	// exceeds this value against their EWMA baseline.
	VolumeZ float64
	// AbsoluteBytes triggers on any single outbound transfer at or
	// above this size regardless of baseline.
	AbsoluteBytes int64
	// EntropyThreshold flags outbound payloads that look packed.
	EntropyThreshold float64
	// ReadAmplification triggers when cumulative reads within Window
	// exceed this multiple of the user's prior average.
	Window time.Duration
}

// DefaultExfilConfig returns tuned defaults.
func DefaultExfilConfig() ExfilConfig {
	return ExfilConfig{
		VolumeZ:          6.0,
		AbsoluteBytes:    1 << 20, // 1 MiB in one shot
		EntropyThreshold: 7.0,
		Window:           5 * time.Minute,
	}
}

// Exfil detects data exfiltration through outbound volume and payload
// shape.
type Exfil struct {
	cfg ExfilConfig

	mu        sync.Mutex
	baselines map[string]*EWMA // actor key (cloned on first insert) -> outbound bytes baseline
}

// NewExfil returns an exfiltration detector.
func NewExfil(cfg ExfilConfig) *Exfil {
	if cfg.VolumeZ == 0 {
		cfg = DefaultExfilConfig()
	}
	return &Exfil{cfg: cfg, baselines: map[string]*EWMA{}}
}

// Name implements Detector.
func (d *Exfil) Name() string { return "anomaly.exfil" }

// Process implements Detector.
func (d *Exfil) Process(e trace.Event) []rules.Alert {
	if e.Kind != trace.KindNetOp || !e.Success {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var alerts []rules.Alert
	actor := trace.ActorKey(e)
	if e.Bytes >= d.cfg.AbsoluteBytes {
		alerts = append(alerts, rules.Alert{
			RuleID: "ANOM-EX-volume-abs", Class: rules.ClassExfiltration,
			Severity:    rules.SevCritical,
			Description: fmt.Sprintf("outbound transfer of %d bytes to %s", e.Bytes, e.Target),
			Time:        e.Time, Group: actor, Trigger: e.Clone(), Count: 1,
		})
	}
	if e.Entropy >= d.cfg.EntropyThreshold && e.Bytes >= 256 {
		alerts = append(alerts, rules.Alert{
			RuleID: "ANOM-EX-entropy", Class: rules.ClassExfiltration,
			Severity: rules.SevHigh,
			Description: fmt.Sprintf("outbound payload entropy %.2f bits/byte (%d bytes) to %s",
				e.Entropy, e.Bytes, e.Target),
			Time: e.Time, Group: actor, Trigger: e.Clone(), Count: 1,
		})
	}
	b := d.baselines[actor]
	if b == nil {
		b = &EWMA{Alpha: 0.2}
		d.baselines[strings.Clone(actor)] = b
	}
	if z := b.Update(float64(e.Bytes)); z >= d.cfg.VolumeZ {
		alerts = append(alerts, rules.Alert{
			RuleID: "ANOM-EX-volume-z", Class: rules.ClassExfiltration,
			Severity: rules.SevHigh,
			Description: fmt.Sprintf("outbound volume z-score %.1f (bytes=%d, baseline=%.0f)",
				z, e.Bytes, b.Mean()),
			Time: e.Time, Group: actor, Trigger: e.Clone(), Count: 1,
		})
	}
	return alerts
}

// ---- Cryptomining detector ----

// MinerConfig tunes the mining detector.
type MinerConfig struct {
	// CPUMillisPerExec flags a single execution above this budget.
	CPUMillisPerExec int64
	// DutyCycle flags a kernel whose CPU time over the window exceeds
	// this fraction of wall time.
	DutyCycle float64
	Window    time.Duration
}

// DefaultMinerConfig returns tuned defaults.
func DefaultMinerConfig() MinerConfig {
	return MinerConfig{
		CPUMillisPerExec: 30_000,
		DutyCycle:        0.6,
		Window:           5 * time.Minute,
	}
}

// Miner detects sustained compute abuse per kernel.
type Miner struct {
	cfg MinerConfig

	mu sync.Mutex
	// usage is pointer-valued, like Ransomware.lastEntropy, so a sample
	// updates the window in place and the key stays the clone made on
	// first insert.
	usage map[string]*cpuWindow // actor key (the kernel) -> its window
}

type cpuSample struct {
	t  time.Time
	ms int64
}

// cpuWindow holds one kernel's samples no older than the window, in
// arrival order, as samples[head:], with their CPU total. While they
// are in time order and a sample arrives no older than the newest, the
// ones that fall out of the window are a prefix: they expire from the
// front, O(1) amortized, and the dead prefix is reclaimed when it is
// half of the array. A sample older than the newest held one makes
// push test every held sample against it instead, as a full rebuild of
// the window would; the window stays on that path until it is back in
// time order.
type cpuWindow struct {
	samples   []cpuSample
	head      int
	burned    int64 // CPU ms over samples[head:]
	unordered bool  // samples[head:] is not in time order
}

// push adds the sample at t and drops every held sample more than
// window older than t; it reports the samples held.
func (w *cpuWindow) push(t time.Time, ms int64, window time.Duration) []cpuSample {
	held := w.samples[w.head:]
	if w.unordered || (len(held) > 0 && t.Before(held[len(held)-1].t)) {
		// Compact, append, and keep what is within the window in place.
		all := append(w.samples[:copy(w.samples, held)], cpuSample{t, ms})
		kept := all[:0]
		w.burned, w.head = 0, 0
		for _, s := range all {
			if t.Sub(s.t) <= window {
				kept = append(kept, s)
				w.burned += s.ms
			}
		}
		w.samples = kept
		w.unordered = !slices.IsSortedFunc(kept, func(a, b cpuSample) int { return a.t.Compare(b.t) })
		return kept
	}
	if w.head > 0 && len(w.samples) == cap(w.samples) && w.head >= len(w.samples)/2 {
		w.samples = w.samples[:copy(w.samples, held)]
		w.head = 0
	}
	w.samples = append(w.samples, cpuSample{t, ms})
	w.burned += ms
	for w.head < len(w.samples) && t.Sub(w.samples[w.head].t) > window {
		w.burned -= w.samples[w.head].ms
		w.head++
	}
	return w.samples[w.head:]
}

// reset empties the window, keeping its array.
func (w *cpuWindow) reset() { *w = cpuWindow{samples: w.samples[:0]} }

// NewMiner returns a mining detector.
func NewMiner(cfg MinerConfig) *Miner {
	if cfg.CPUMillisPerExec == 0 {
		cfg = DefaultMinerConfig()
	}
	return &Miner{cfg: cfg, usage: map[string]*cpuWindow{}}
}

// Name implements Detector.
func (d *Miner) Name() string { return "anomaly.miner" }

// Process implements Detector.
func (d *Miner) Process(e trace.Event) []rules.Alert {
	if e.Kind != trace.KindSysRes || e.CPUMillis <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var alerts []rules.Alert
	actor := e.ActorKey()
	if e.CPUMillis >= d.cfg.CPUMillisPerExec {
		alerts = append(alerts, rules.Alert{
			RuleID: "ANOM-CM-single-burn", Class: rules.ClassCryptomining,
			Severity:    rules.SevHigh,
			Description: fmt.Sprintf("one execution burned %dms CPU on %s", e.CPUMillis, e.KernelID),
			Time:        e.Time, Group: actor, Trigger: e.Clone(), Count: 1,
		})
	}
	w := d.usage[actor]
	if w == nil {
		w = &cpuWindow{}
		d.usage[strings.Clone(actor)] = w
	}
	fresh := w.push(e.Time, e.CPUMillis, d.cfg.Window)
	if len(fresh) >= 3 {
		span := e.Time.Sub(fresh[0].t)
		if span > 0 {
			duty := float64(w.burned) / float64(span.Milliseconds())
			if duty >= d.cfg.DutyCycle {
				w.reset()
				alerts = append(alerts, rules.Alert{
					RuleID: "ANOM-CM-duty-cycle", Class: rules.ClassCryptomining,
					Severity: rules.SevCritical,
					Description: fmt.Sprintf("kernel %s CPU duty cycle %.0f%% over %s",
						e.KernelID, duty*100, span.Round(time.Second)),
					Time: e.Time, Group: actor, Trigger: e.Clone(), Count: len(fresh),
				})
			}
		}
	}
	return alerts
}

// ---- Low-and-slow DoS detector ----

// LowSlowConfig tunes the low-and-slow detector, which targets the
// evasion technique the paper highlights: attacks paced below
// threshold rules but sustained far longer than benign activity.
type LowSlowConfig struct {
	// MinEvents is the minimum observations before judging a source.
	MinEvents int
	// MaxJitterCV flags sources whose inter-arrival coefficient of
	// variation is below this value (machine-regular pacing).
	MaxJitterCV float64
	// MinSpan requires the activity to persist at least this long.
	MinSpan time.Duration
	// FailFraction requires at least this fraction of failures
	// (probing that never succeeds).
	FailFraction float64
}

// DefaultLowSlowConfig returns tuned defaults.
func DefaultLowSlowConfig() LowSlowConfig {
	return LowSlowConfig{
		MinEvents:    12,
		MaxJitterCV:  0.25,
		MinSpan:      5 * time.Minute,
		FailFraction: 0.5,
	}
}

// LowSlow detects slow, regular probe trains per source IP.
type LowSlow struct {
	cfg LowSlowConfig

	mu      sync.Mutex
	sources map[string]*lowSlowState // actor key: SrcIP, which ActorKey yields for http/auth; cloned on first insert
}

type lowSlowState struct {
	first, last time.Time
	gaps        []float64 // inter-arrival seconds
	events      int
	failures    int
	alerted     bool
}

// NewLowSlow returns a low-and-slow detector.
func NewLowSlow(cfg LowSlowConfig) *LowSlow {
	if cfg.MinEvents == 0 {
		cfg = DefaultLowSlowConfig()
	}
	return &LowSlow{cfg: cfg, sources: map[string]*lowSlowState{}}
}

// Name implements Detector.
func (d *LowSlow) Name() string { return "anomaly.lowslow" }

// Process implements Detector.
func (d *LowSlow) Process(e trace.Event) []rules.Alert {
	if e.Kind != trace.KindHTTP && e.Kind != trace.KindAuth {
		return nil
	}
	if e.SrcIP == "" {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.sources[e.SrcIP]
	if st == nil {
		st = &lowSlowState{first: e.Time, last: e.Time}
		d.sources[strings.Clone(e.SrcIP)] = st
		st.events = 1
		if !e.Success {
			st.failures++
		}
		return nil
	}
	gap := e.Time.Sub(st.last).Seconds()
	if gap > 0 {
		st.gaps = append(st.gaps, gap)
		if len(st.gaps) > 256 {
			st.gaps = st.gaps[len(st.gaps)-256:]
		}
	}
	st.last = e.Time
	st.events++
	if !e.Success {
		st.failures++
	}
	if st.alerted || st.events < d.cfg.MinEvents ||
		st.last.Sub(st.first) < d.cfg.MinSpan ||
		float64(st.failures)/float64(st.events) < d.cfg.FailFraction {
		return nil
	}
	cv := coefficientOfVariation(st.gaps)
	if cv < 0 || cv > d.cfg.MaxJitterCV {
		return nil
	}
	st.alerted = true
	return []rules.Alert{{
		RuleID: "ANOM-DS-low-slow", Class: rules.ClassDoS,
		Severity: rules.SevHigh,
		Description: fmt.Sprintf(
			"low-and-slow train from %s: %d events over %s, pacing CV %.2f, %.0f%% failures",
			e.SrcIP, st.events, st.last.Sub(st.first).Round(time.Second), cv,
			100*float64(st.failures)/float64(st.events)),
		Time: e.Time, Group: e.SrcIP, Trigger: e.Clone(), Count: st.events,
	}}
}

func coefficientOfVariation(xs []float64) float64 {
	if len(xs) < 4 {
		return -1
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean <= 0 {
		return -1
	}
	var sq float64
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	return math.Sqrt(sq/float64(len(xs))) / mean
}

// ---- Composite ----

// Describe returns a one-line description per detector, for reports.
func Describe(ds []Detector) string {
	var names []string
	for _, d := range ds {
		names = append(names, d.Name())
	}
	return strings.Join(names, ", ")
}
