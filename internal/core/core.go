// Package core is the detection framework — the paper's proposed
// "Jupyter network monitoring tool" brain. It consumes the unified
// trace event stream, evaluates the signature engine and the anomaly
// detectors, correlates alerts into incidents per actor, and scores
// incidents against the OSCRP risk profile.
//
// The engine follows the pipeline-v2 sharding contract (DESIGN.md):
// the signature path rides the lock-free rules.Engine, anomaly
// detectors and incident-correlation state live in actor-keyed shards
// with per-shard locks, and counters are atomic — so N replay or
// ingest workers scale with cores instead of convoying on one engine
// mutex, while per-actor serial equivalence keeps the alert and
// incident sets identical to a serial run.
//
// A deployment embeds an Engine by subscribing it to the server's (or
// the network monitor's) trace bus:
//
//	eng := core.NewEngine(core.DefaultOptions())
//	srv.Bus().Subscribe(eng)
//	... run ...
//	report := eng.Report()
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anomaly"
	"repro/internal/oscrp"
	"repro/internal/rules"
	"repro/internal/trace"
)

// Options configures an Engine. Options are copied at construction
// and never mutated afterwards, so an Engine is safe for concurrent
// use without option locks; the OnAlert and OnIncidentUpdate
// callbacks, too, are fixed for the engine's life.
type Options struct {
	Rules []*rules.Rule
	// Detectors are anomaly-detector factories; the engine
	// instantiates one detector set per actor shard so detector state
	// never crosses a shard lock.
	Detectors []anomaly.Factory
	Profile   *oscrp.Profile
	// IncidentGap closes an incident after this much quiet time from
	// the same actor (default 10 minutes).
	IncidentGap time.Duration
	// Shards is the number of actor shards for detector and
	// correlation state (default 32). Alert and incident sets are
	// independent of the shard count; it only tunes lock granularity.
	Shards int
	// OnAlert, if set, is invoked synchronously per alert, always
	// outside every engine lock: a callback may re-enter the engine
	// (Stats, Incidents, Process) without deadlocking.
	OnAlert func(rules.Alert)
	// OnIncidentUpdate, if set, is invoked synchronously after each
	// alert has been folded into its incident, with the incident's
	// post-fold aggregate state — no alert payloads, so emitting one
	// per alert stays cheap. Like OnAlert it always runs outside
	// every engine lock. The history layer (internal/histstore)
	// records these updates as append-only incident snapshots.
	OnIncidentUpdate func(IncidentUpdate)
}

// DefaultOptions returns the stock ruleset, detector suite, and
// profiles.
func DefaultOptions() Options {
	return Options{
		Rules:       rules.BuiltinRules(),
		Detectors:   anomaly.SuiteFactories(),
		Profile:     oscrp.Default(),
		IncidentGap: 10 * time.Minute,
	}
}

// Incident is a correlated group of alerts attributed to one actor
// (user or source IP) and one taxonomy class.
type Incident struct {
	ID        string         `json:"id"`
	Actor     string         `json:"actor"`
	Class     string         `json:"class"`
	Opened    time.Time      `json:"opened"`
	LastAlert time.Time      `json:"last_alert"`
	Alerts    []rules.Alert  `json:"alerts"`
	Severity  rules.Severity `json:"severity"`
	RiskScore float64        `json:"risk_score"`
	// Count is the alert count at snapshot time. Incidents
	// reconstructed from persisted history (internal/histstore) carry
	// the count without materializing Alerts; renderers read
	// AlertCount so both shapes print identically.
	Count int `json:"count,omitempty"`

	// gen counts how many times the quiet-gap rule has closed and
	// reopened this incident's (actor, class) pair; it distinguishes
	// successive incidents of the same pair in the update stream.
	gen int
}

// AlertCount returns the number of alerts folded into the incident,
// whether the incident carries the alert payloads (engine snapshots)
// or only the persisted count (history reconstructions).
func (inc *Incident) AlertCount() int {
	if inc.Count > 0 {
		return inc.Count
	}
	return len(inc.Alerts)
}

// Summary renders a one-line incident description.
func (inc *Incident) Summary() string {
	return fmt.Sprintf("[%s] %s by %q: %d alerts, severity %s, risk %.0f",
		inc.ID, inc.Class, inc.Actor, inc.AlertCount(), inc.Severity, inc.RiskScore)
}

// snapshot deep-copies the incident so callers never share slices
// with the live correlation state.
func (inc *Incident) snapshot() *Incident {
	out := *inc
	out.Alerts = append([]rules.Alert(nil), inc.Alerts...)
	out.Count = len(inc.Alerts)
	return &out
}

// IncidentUpdate is the compact incident snapshot handed to the
// OnIncidentUpdate hook after an alert is folded in: the incident's
// aggregate state without the alert payloads. (Actor, Class, Gen)
// identifies one incident within an engine run — Gen counts the
// times the quiet-gap rule closed and reopened the same actor|class
// pair, so an update stream reconstructs every distinct incident,
// not just the last one per pair.
//
// Every aggregate field is monotone over an incident's update stream:
// Alerts strictly increases (it is the fold counter), Opened only
// moves earlier, LastAlert only later, and Severity rank and
// RiskScore never decrease (oscrp.RiskScore is monotone in alert
// count and top severity). A consumer that keeps only the
// highest-Alerts update per (Actor, Class, Gen) therefore ends up
// with exactly the engine's final state for that incident — the
// invariant the histstore query layer's dedup and segment pruning
// are built on.
type IncidentUpdate struct {
	Actor     string
	Class     string
	Gen       int
	Opened    time.Time
	LastAlert time.Time
	Alerts    int
	Severity  rules.Severity
	RiskScore float64
}

// defaultShards is the stock actor-shard count: like the rules
// engine's 32 correlation shards, enough that 16 workers rarely
// contend while staying cache-friendly.
const defaultShards = 32

// coreShard owns the detector instances and open/closed incidents for
// the actors hashed to it. Detector state is touched under the shard
// lock of the *event's* actor key; correlation state under the shard
// lock of the *alert's* attributed actor (the two usually coincide
// but are acquired separately, never nested).
type coreShard struct {
	mu   sync.Mutex
	dets []anomaly.Detector
	open map[string]*Incident // actor|class -> open incident
	done []*Incident
}

// Engine is the composed detection pipeline. It implements trace.Sink
// and is safe for concurrent use from many goroutines. Construction
// copies what it needs out of Options; the Options value is not
// retained.
type Engine struct {
	sig        *rules.Engine
	profile    *oscrp.Profile
	gap        time.Duration
	onAlert    func(rules.Alert)
	onIncident func(IncidentUpdate)
	shards     []coreShard
	// detsFor[trace.KindIndex(k)] lists, in factory order, the positions
	// in every shard's dets of the detectors that look at kind k. Most
	// kinds have none: their events pick no shard and take no lock.
	detsFor [trace.NumKinds + 1][]int

	events atomic.Uint64
	alerts atomic.Uint64
	opened atomic.Int64
}

// Stats counts engine activity.
type Stats struct {
	Events    uint64
	Alerts    uint64
	Incidents int
}

// NewEngine builds an Engine; it panics only on invalid built-in rules
// (a programming error), returning errors for caller-supplied rules.
func NewEngine(opts Options) (*Engine, error) {
	if opts.Profile == nil {
		opts.Profile = oscrp.Default()
	}
	if opts.IncidentGap == 0 {
		opts.IncidentGap = 10 * time.Minute
	}
	if opts.Shards <= 0 {
		opts.Shards = defaultShards
	}
	sig, err := rules.NewEngine(opts.Rules)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		sig:        sig,
		profile:    opts.Profile,
		gap:        opts.IncidentGap,
		onAlert:    opts.OnAlert,
		onIncident: opts.OnIncidentUpdate,
		shards:     make([]coreShard, opts.Shards),
	}
	for i := range e.shards {
		e.shards[i].dets = anomaly.Build(opts.Detectors)
		e.shards[i].open = map[string]*Incident{}
	}
	for pos, f := range opts.Detectors {
		var in [trace.NumKinds + 1]bool
		for _, k := range f.Kinds {
			in[trace.KindIndex(k)] = true
		}
		for i := range e.detsFor {
			if f.Kinds == nil || in[i] {
				e.detsFor[i] = append(e.detsFor[i], pos)
			}
		}
	}
	return e, nil
}

// MustEngine builds an Engine with DefaultOptions, panicking on error
// (the built-in configuration is tested to be valid).
func MustEngine() *Engine {
	e, err := NewEngine(DefaultOptions())
	if err != nil {
		panic("core: default engine: " + err.Error())
	}
	return e
}

// Emit implements trace.Sink.
func (e *Engine) Emit(ev trace.Event) {
	b := e.begin()
	e.process(&b, &ev)
	e.end(&b)
}

// EmitBatch implements trace.BatchSink: the events in order, each
// through the same body as Emit, without a copy of any of them. The
// slice is only read during the call; alerts carry clones.
func (e *Engine) EmitBatch(events []trace.Event) {
	b := e.begin()
	for i := range events {
		e.process(&b, &events[i])
	}
	e.end(&b)
}

// ProcessBatch evaluates events in order and returns all alerts
// fired. The replay and high-rate ingest paths use it to amortize
// per-event overhead; it is safe to call concurrently as long as
// events for the same actor stay within one batch stream.
func (e *Engine) ProcessBatch(events []trace.Event) []rules.Alert {
	b := e.begin()
	var fired []rules.Alert
	for i := range events {
		fired = append(fired, e.process(&b, &events[i])...)
	}
	e.end(&b)
	return fired
}

// Process evaluates one event through signatures and detectors and
// returns the alerts fired. Concurrent callers scale: the signature
// path is lock-free, and only the event's actor shard (detectors) and
// each alert's actor shard (correlation) are locked, briefly and
// never nested. OnAlert runs after every lock is released.
func (e *Engine) Process(ev trace.Event) []rules.Alert {
	b := e.begin()
	fired := e.process(&b, &ev)
	e.end(&b)
	return fired
}

// batch is what one call carries from event to event on its stack: the
// signature engine's handle and the events not yet added to e.events.
type batch struct {
	sig     rules.Batch
	pending uint64
}

func (e *Engine) begin() batch { return batch{sig: e.sig.Begin()} }

// publish adds the batch's pending events to the shared counter. It
// runs at the end of every call and before any callback, so Stats is
// exact whenever no call is in flight and a callback never sees
// Events behind the event that fired it.
func (e *Engine) publish(b *batch) {
	e.events.Add(b.pending)
	b.pending = 0
}

func (e *Engine) end(b *batch) {
	b.sig.End()
	e.publish(b)
}

// process is the one per-event body behind Emit, EmitBatch, Process
// and ProcessBatch. It reads ev and keeps nothing of it, and writes
// to nothing shared unless a detector looks at the event's kind (that
// actor's shard) or an alert fires.
func (e *Engine) process(b *batch, ev *trace.Event) []rules.Alert {
	b.pending++
	fired := b.sig.Process(ev)
	if dets := e.detsFor[trace.KindIndex(ev.Kind)]; len(dets) > 0 {
		sh := &e.shards[trace.ShardIndex(ev.ActorKey(), len(e.shards))]
		sh.mu.Lock()
		for _, pos := range dets {
			// By value: a pointer handed to an interface method would move
			// Emit's and Process's parameter to the heap, once per event.
			fired = append(fired, sh.dets[pos].Process(*ev)...)
		}
		sh.mu.Unlock()
	}
	if len(fired) > 0 {
		e.alerts.Add(uint64(len(fired)))
		// correlate snapshots the incident's aggregate state under the
		// shard lock; both callbacks then run with every lock released,
		// so either may re-enter the engine.
		var updates []IncidentUpdate
		if e.onIncident != nil {
			updates = make([]IncidentUpdate, 0, len(fired))
		}
		for i := range fired {
			u := e.correlate(fired[i])
			if e.onIncident != nil {
				updates = append(updates, u)
			}
		}
		e.publish(b)
		if e.onAlert != nil {
			for _, a := range fired {
				e.onAlert(a)
			}
		}
		for i := range updates {
			e.onIncident(updates[i])
		}
	}
	return fired
}

// AlertActor exposes the engine's alert-attribution rule — the actor
// an alert's incident is keyed by. The history layer records alerts
// under the same actor so alert and incident queries agree.
func AlertActor(a rules.Alert) string { return actorOf(a) }

// actorOf attributes an alert to a user, else a source IP, else the
// kernel.
func actorOf(a rules.Alert) string {
	k := a.Trigger.Kind
	if (k == trace.KindAuth || k == trace.KindHTTP || k == trace.KindConn) && a.Trigger.SrcIP != "" {
		// Transport- and auth-layer alerts attribute to the source
		// address: the username is the victim, not the actor.
		return a.Trigger.SrcIP
	}
	switch {
	case a.Trigger.User != "" && a.Trigger.User != "anonymous":
		return a.Trigger.User
	case a.Trigger.SrcIP != "":
		return a.Trigger.SrcIP
	case a.Trigger.KernelID != "":
		return a.Trigger.KernelID
	case a.Group != "":
		return a.Group
	default:
		return "unknown"
	}
}

// correlate folds one alert into its actor's incident state, under
// that actor's shard lock only, and returns the incident's post-fold
// aggregate snapshot for the OnIncidentUpdate dispatch.
func (e *Engine) correlate(a rules.Alert) IncidentUpdate {
	actor := actorOf(a)
	sh := &e.shards[trace.ShardIndex(actor, len(e.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	key := actor + "|" + a.Class
	gen := 0
	inc := sh.open[key]
	if inc != nil && a.Time.Sub(inc.LastAlert) > e.gap {
		// The gap rule only ever closes an incident here, with its
		// successor in hand, so the generation chain per (actor, class)
		// never restarts within one engine run.
		gen = inc.gen + 1
		sh.done = append(sh.done, inc)
		delete(sh.open, key)
		inc = nil
	}
	if inc == nil {
		inc = &Incident{
			Actor:     actor,
			Class:     a.Class,
			Opened:    a.Time,
			LastAlert: a.Time,
			gen:       gen,
		}
		sh.open[key] = inc
		e.opened.Add(1)
	}
	inc.Alerts = append(inc.Alerts, a)
	// Opened/LastAlert track the min/max alert time rather than
	// arrival order, so an actor whose alerts arrive from two event
	// shards still snapshots identically to a serial run.
	if a.Time.Before(inc.Opened) {
		inc.Opened = a.Time
	}
	if a.Time.After(inc.LastAlert) {
		inc.LastAlert = a.Time
	}
	if a.Severity.Rank() > inc.Severity.Rank() {
		inc.Severity = a.Severity
	}
	if av, ok := oscrp.AvenueForClass(a.Class); ok {
		inc.RiskScore = e.profile.RiskScore(av, len(inc.Alerts), inc.Severity.Rank())
	}
	return IncidentUpdate{
		Actor:     inc.Actor,
		Class:     inc.Class,
		Gen:       inc.gen,
		Opened:    inc.Opened,
		LastAlert: inc.LastAlert,
		Alerts:    len(inc.Alerts),
		Severity:  inc.Severity,
		RiskScore: inc.RiskScore,
	}
}

// Alerts returns all alerts fired so far, signature and anomaly alike,
// gathered from the incidents that hold them and sorted for stable
// output.
func (e *Engine) Alerts() []rules.Alert {
	var out []rules.Alert
	for _, inc := range e.Incidents() {
		out = append(out, inc.Alerts...)
	}
	rules.SortAlerts(out)
	return out
}

// Incidents returns a snapshot of all incidents, open and closed, in
// canonical order: first-seen time, then actor, then class. IDs are
// assigned from that order at snapshot time (INC-0001, INC-0002, …),
// so they are deterministic no matter how many workers fed the engine
// or in which order alerts arrived.
func (e *Engine) Incidents() []*Incident {
	var out []*Incident
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for _, inc := range sh.done {
			out = append(out, inc.snapshot())
		}
		for _, inc := range sh.open {
			out = append(out, inc.snapshot())
		}
		sh.mu.Unlock()
	}
	for _, inc := range out {
		rules.SortAlerts(inc.Alerts)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Opened.Equal(b.Opened) {
			return a.Opened.Before(b.Opened)
		}
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		return a.Class < b.Class
	})
	for i, inc := range out {
		inc.ID = fmt.Sprintf("INC-%04d", i+1)
	}
	return out
}

// IncidentsByClass groups incidents by taxonomy class.
func (e *Engine) IncidentsByClass() map[string][]*Incident {
	m := map[string][]*Incident{}
	for _, inc := range e.Incidents() {
		m[inc.Class] = append(m[inc.Class], inc)
	}
	return m
}

// TopIncidents sorts an incident snapshot by (risk desc, actor,
// first-seen, class) and truncates it to k entries (none for k <= 0).
// It mutates the given slice's order; callers holding an Incidents()
// snapshot can rank it without taking a second snapshot.
func TopIncidents(incs []*Incident, k int) []*Incident {
	sort.Slice(incs, func(i, j int) bool {
		a, b := incs[i], incs[j]
		if a.RiskScore != b.RiskScore {
			return a.RiskScore > b.RiskScore
		}
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		if !a.Opened.Equal(b.Opened) {
			return a.Opened.Before(b.Opened)
		}
		return a.Class < b.Class
	})
	if k <= 0 {
		return nil
	}
	if k < len(incs) {
		incs = incs[:k]
	}
	return incs
}

// Stats returns engine counters. It takes no locks (the counters are
// atomic), so it is safe to call from inside an OnAlert callback.
// Events is added per batch: exact whenever no call is in flight.
func (e *Engine) Stats() Stats {
	return Stats{
		Events:    e.events.Load(),
		Alerts:    e.alerts.Load(),
		Incidents: int(e.opened.Load()),
	}
}

// AddRule hot-loads a signature (the threat-intel path).
func (e *Engine) AddRule(r *rules.Rule) error {
	return e.sig.AddRule(r)
}

// RuleCount returns the number of loaded signatures.
func (e *Engine) RuleCount() int { return e.sig.RuleCount() }

// Report is a human-readable engine summary: per-class incident and
// alert counts with risk scores — what jsentinel prints.
type Report struct {
	GeneratedAt time.Time
	Stats       Stats
	Classes     []ClassReport
}

// ClassReport summarizes one taxonomy class.
type ClassReport struct {
	Class     string
	Incidents int
	Alerts    int
	TopRisk   float64
	Severity  rules.Severity
}

// Report builds the summary.
func (e *Engine) Report(now time.Time) Report {
	rep := Report{GeneratedAt: now, Stats: e.Stats()}
	byClass := e.IncidentsByClass()
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		cr := ClassReport{Class: c}
		for _, inc := range byClass[c] {
			cr.Incidents++
			cr.Alerts += inc.AlertCount()
			if inc.RiskScore > cr.TopRisk {
				cr.TopRisk = inc.RiskScore
			}
			if inc.Severity.Rank() > cr.Severity.Rank() {
				cr.Severity = inc.Severity
			}
		}
		rep.Classes = append(rep.Classes, cr)
	}
	return rep
}

// Render prints the report as aligned text.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection report @ %s\n", r.GeneratedAt.Format(time.RFC3339))
	fmt.Fprintf(&b, "events=%d alerts=%d incidents=%d\n", r.Stats.Events, r.Stats.Alerts, r.Stats.Incidents)
	fmt.Fprintf(&b, "%-28s %10s %8s %6s %10s\n", "CLASS", "INCIDENTS", "ALERTS", "RISK", "SEVERITY")
	for _, c := range r.Classes {
		fmt.Fprintf(&b, "%-28s %10d %8d %6.0f %10s\n", c.Class, c.Incidents, c.Alerts, c.TopRisk, c.Severity)
	}
	return b.String()
}

// RenderIncidentTable renders incidents as an aligned table of actor,
// class, alert count, severity, and risk — no IDs or timestamps, so
// two runs that fed the same events (under any worker count) print
// byte-identical tables. Pair with TopIncidents for the canonical order.
func RenderIncidentTable(incs []*Incident) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-28s %7s %10s %6s\n", "ACTOR", "CLASS", "ALERTS", "SEVERITY", "RISK")
	for _, inc := range incs {
		fmt.Fprintf(&b, "%-20s %-28s %7d %10s %6.0f\n",
			inc.Actor, inc.Class, inc.AlertCount(), inc.Severity, inc.RiskScore)
	}
	return b.String()
}

// RenderTopIncidents is the one "top N incidents by risk" rendering
// both CLIs share: it ranks a copy of the snapshot (the caller's
// order — e.g. canonical ID order — survives) and renders the header
// plus table, or nothing when no incident makes the cut.
func RenderTopIncidents(incs []*Incident, k int) string {
	top := TopIncidents(append([]*Incident(nil), incs...), k)
	if len(top) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top %d incidents by risk:\n", len(top))
	b.WriteString(RenderIncidentTable(top))
	return b.String()
}
