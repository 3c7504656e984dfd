// Package rules implements the declarative signature engine of the
// monitoring tool: rules match trace events by field predicates,
// regular expressions, windowed thresholds, and ordered sequences, and
// produce alerts tagged with the taxonomy class they indicate.
//
// Rules are the mechanism the paper's honeypot pipeline distributes:
// a signature extracted at the network edge is serialized as JSON and
// loaded into production monitors.
//
// The Engine is the detection substrate's hot path and is built for
// multi-core streaming: rules are indexed by the event kind they can
// match, stateless matching reads one immutable snapshot and writes
// nothing shared, and threshold/sequence
// correlation state is sharded per group so concurrent Process calls
// from independent actors never serialize. See DESIGN.md ("Detection
// pipeline v2").
package rules

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Severity grades an alert.
type Severity string

// Severities in ascending order.
const (
	SevInfo     Severity = "info"
	SevLow      Severity = "low"
	SevMedium   Severity = "medium"
	SevHigh     Severity = "high"
	SevCritical Severity = "critical"
)

// KnownSeverities returns the severity names in ascending rank order
// — the valid values for CLI severity filters.
func KnownSeverities() []Severity {
	return []Severity{SevInfo, SevLow, SevMedium, SevHigh, SevCritical}
}

// ParseSeverity resolves a severity name, reporting whether it is one
// of the known severities. CLI flag parsing uses it so a typo becomes
// a usage error instead of a filter that silently matches nothing.
func ParseSeverity(s string) (Severity, bool) {
	switch Severity(s) {
	case SevInfo, SevLow, SevMedium, SevHigh, SevCritical:
		return Severity(s), true
	}
	return "", false
}

// Rank orders severities (higher is worse).
func (s Severity) Rank() int {
	switch s {
	case SevInfo:
		return 0
	case SevLow:
		return 1
	case SevMedium:
		return 2
	case SevHigh:
		return 3
	case SevCritical:
		return 4
	}
	return -1
}

// Condition is one field predicate. Exactly one operator group is
// used: Equals, Regex, Contains, or the numeric comparisons.
type Condition struct {
	Field    string  `json:"field"` // event field name (see FieldValue)
	Equals   string  `json:"equals,omitempty"`
	Contains string  `json:"contains,omitempty"`
	Regex    string  `json:"regex,omitempty"`
	GT       float64 `json:"gt,omitempty"`
	LT       float64 `json:"lt,omitempty"`
	HasGT    bool    `json:"has_gt,omitempty"`
	HasLT    bool    `json:"has_lt,omitempty"`

	// m is the compiled Regex (see prefilter.go), behind one pointer:
	// conditions are copied into the candidate lists.
	m *matcher
}

// compile prepares the regex: its regexp and how it is decided.
func (c *Condition) compile() error {
	if c.Regex != "" {
		m, err := compileMatcher(c.Regex)
		if err != nil {
			return fmt.Errorf("rules: condition on %q: %w", c.Field, err)
		}
		c.m = m
	}
	return nil
}

// FieldValue extracts a named field from an event as a string. Names
// mirror the trace.Event JSON tags; unknown names read from Fields.
// Takes a pointer because it runs once per condition per event on the
// hot path and trace.Event is a large struct; the event is not
// modified.
func FieldValue(e *trace.Event, field string) string {
	switch field {
	case "kind":
		return string(e.Kind)
	case "src_ip":
		return e.SrcIP
	case "dst_ip":
		return e.DstIP
	case "user":
		return e.User
	case "session":
		return e.Session
	case "method":
		return e.Method
	case "path":
		return e.Path
	case "status":
		// Status codes sit in a small range on every real trace; the
		// precomputed table keeps this hot-path lookup allocation-free
		// (strconv.Itoa allocates for values ≥ 100).
		if uint(e.Status) < uint(len(statusStrings)) {
			return statusStrings[e.Status]
		}
		return strconv.Itoa(e.Status)
	case "ws_opcode":
		return e.WSOpcode
	case "msg_type":
		return e.MsgType
	case "channel":
		return e.Channel
	case "kernel_id":
		return e.KernelID
	case "code":
		return e.Code
	case "op":
		return e.Op
	case "target":
		return e.Target
	case "bytes":
		return strconv.FormatInt(e.Bytes, 10)
	case "entropy":
		return strconv.FormatFloat(e.Entropy, 'f', -1, 64)
	case "cpu_millis":
		return strconv.FormatInt(e.CPUMillis, 10)
	case "success":
		return strconv.FormatBool(e.Success)
	case "detail":
		return e.Detail
	default:
		// Inline of e.Field: the value-receiver method would copy the
		// whole event per lookup.
		if e.Fields == nil {
			return ""
		}
		return e.Fields[field]
	}
}

// statusStrings caches the decimal form of every plausible status
// code so FieldValue("status") never allocates on the hot path.
var statusStrings = func() (t [1000]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return
}()

// numericValue extracts a field as float64 for gt/lt comparisons.
func numericValue(e *trace.Event, field string) (float64, bool) {
	switch field {
	case "bytes":
		return float64(e.Bytes), true
	case "entropy":
		return e.Entropy, true
	case "cpu_millis":
		return float64(e.CPUMillis), true
	case "status":
		return float64(e.Status), true
	}
	if v := FieldValue(e, field); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f, true
		}
	}
	return 0, false
}

// Match evaluates the condition against an event. The pointer avoids
// copying the event once per condition; the event is not modified.
func (c *Condition) Match(e *trace.Event) bool {
	if c.HasGT || c.HasLT {
		v, ok := numericValue(e, c.Field)
		if !ok {
			return false
		}
		if c.HasGT && !(v > c.GT) {
			return false
		}
		if c.HasLT && !(v < c.LT) {
			return false
		}
		return true
	}
	v := FieldValue(e, c.Field)
	switch {
	case c.Equals != "":
		return v == c.Equals
	case c.Contains != "":
		return strings.Contains(v, c.Contains)
	case c.m != nil:
		return c.m.match(v)
	case c.Regex != "":
		// Uncompiled rule used directly; compile lazily.
		if err := c.compile(); err != nil {
			return false
		}
		return c.m.match(v)
	}
	return v != ""
}

// GTCond builds a numeric greater-than condition.
func GTCond(field string, v float64) Condition {
	return Condition{Field: field, GT: v, HasGT: true}
}

// LTCond builds a numeric less-than condition.
func LTCond(field string, v float64) Condition {
	return Condition{Field: field, LT: v, HasLT: true}
}

// Rule is one signature. A rule fires when all Conditions match a
// single event; if Threshold is set, it fires only after Count
// matching events from the same group (keyed by GroupBy) inside
// Window; if Sequence is set, the stages must match in order for the
// same group.
type Rule struct {
	ID          string      `json:"id"`
	Description string      `json:"description"`
	Class       string      `json:"class"` // taxonomy class this indicates
	Severity    Severity    `json:"severity"`
	Conditions  []Condition `json:"conditions,omitempty"`
	Threshold   *Threshold  `json:"threshold,omitempty"`
	Sequence    []Stage     `json:"sequence,omitempty"`
	References  []string    `json:"references,omitempty"` // CVEs, write-ups
}

// Threshold fires after Count matches within Window per group.
type Threshold struct {
	Count   int           `json:"count"`
	Window  time.Duration `json:"window"`
	GroupBy string        `json:"group_by"` // field name; "" = global
}

// Stage is one step of a sequence rule.
type Stage struct {
	Conditions []Condition   `json:"conditions"`
	Within     time.Duration `json:"within"` // max gap from previous stage (0 = unlimited)
}

// Compile validates the rule and prepares regexes.
func (r *Rule) Compile() error {
	if r.ID == "" {
		return fmt.Errorf("rules: rule without id")
	}
	if r.Severity == "" {
		r.Severity = SevMedium
	}
	for i := range r.Conditions {
		if err := r.Conditions[i].compile(); err != nil {
			return fmt.Errorf("rule %s: %w", r.ID, err)
		}
	}
	for si := range r.Sequence {
		for i := range r.Sequence[si].Conditions {
			if err := r.Sequence[si].Conditions[i].compile(); err != nil {
				return fmt.Errorf("rule %s stage %d: %w", r.ID, si, err)
			}
		}
	}
	if len(r.Conditions) == 0 && len(r.Sequence) == 0 {
		return fmt.Errorf("rule %s: no conditions or sequence", r.ID)
	}
	if r.Threshold != nil && r.Threshold.Count <= 0 {
		return fmt.Errorf("rule %s: threshold count must be positive", r.ID)
	}
	return nil
}

func matchAll(conds []Condition, e *trace.Event) bool {
	for i := range conds {
		if !conds[i].Match(e) {
			return false
		}
	}
	return true
}

// Alert is a fired rule.
type Alert struct {
	RuleID      string      `json:"rule_id"`
	Class       string      `json:"class"`
	Severity    Severity    `json:"severity"`
	Description string      `json:"description"`
	Time        time.Time   `json:"time"`
	Group       string      `json:"group,omitempty"`
	Trigger     trace.Event `json:"trigger"`
	Count       int         `json:"count,omitempty"`
}

// Engine evaluates a ruleset over an event stream. It is safe for
// concurrent use from many goroutines and is built so the hot path
// scales with cores:
//
//   - The compiled rule set — a candidate list per event kind — is one
//     immutable ruleSet behind an atomic pointer: an event indexes an
//     array to find its candidates, and only stateful rules touch
//     shared state (their group's shard, below). AddRule, the rare
//     writer, builds the next ruleSet and swaps it in.
//   - Fired alerts leave only as return values: the engine keeps no
//     alert log, so firing takes no lock shared by every caller.
//   - The evaluated counter is added once per Batch, not per event.
//   - Stateful threshold/sequence tracking lives in per-group shards
//     (FNV hash of ruleID+group), so two actors' correlation state
//     never contends on one lock.
//
// Events for the same correlation group must be fed in time order for
// threshold windows and sequences to behave deterministically;
// different groups may be processed concurrently in any interleaving
// and produce the same alerts as a serial run.
type Engine struct {
	writeMu sync.Mutex // serialises AddRule; readers never take it
	set     atomic.Pointer[ruleSet]

	shards [stateShards]stateShard

	evaluated atomic.Uint64
}

// ruleSet is one published state of the engine's rules; nothing in it
// changes after the pointer to it is stored.
type ruleSet struct {
	rules []*Rule
	// byKind[trace.KindIndex(k)] lists the candidate rules for kind k —
	// rules pinned to it plus kind-agnostic rules — in registration
	// order. The last slot serves every foreign kind: it holds every
	// rule pinned to any foreign kind (the rule's own kind condition
	// still decides) plus the kind-agnostic ones.
	byKind [trace.NumKinds + 1][]candidate
}

// candidate is one rule in one byKind slot. conds is what the slot
// leaves to test of a plain or threshold rule: its Conditions, less
// the kind condition when the slot is that kind's own, where every
// event already has it. Sequence stages keep theirs.
type candidate struct {
	rule  *Rule
	conds []Condition
}

// stateShards is the number of correlation-state shards. 32 keeps lock
// contention negligible at 16+ cores while staying cache-friendly.
const stateShards = 32

// stateShard holds threshold and sequence state for the groups hashed
// to it, keyed by ruleID+"\x00"+group. Both maps are pointer-valued
// so the hot path can look an entry up with a stack-built []byte key
// (the compiler's alloc-free map[string(bytes)] pattern) and mutate
// it in place; a real string key is allocated only when a group is
// seen for the first time.
type stateShard struct {
	mu         sync.Mutex
	thresholds map[string]*threshState
	sequences  map[string]*seqState
}

type threshState struct {
	times []time.Time
}

type seqState struct {
	stage    int
	lastTime time.Time
}

// shardFor picks the shard owning a rule's correlation group via
// FNV-1a over the composite key.
func (en *Engine) shardFor(ruleID, group string) *stateShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(ruleID); i++ {
		h ^= uint64(ruleID[i])
		h *= prime64
	}
	// No separator byte is hashed between ruleID and group: a
	// cross-boundary collision only shares a shard lock, never a
	// state entry (the map key uses a real \x00 separator).
	for i := 0; i < len(group); i++ {
		h ^= uint64(group[i])
		h *= prime64
	}
	return &en.shards[h%stateShards]
}

// stateKey appends the composite correlation key to dst. Callers pass
// a stack array's prefix so the common case builds the key without a
// heap allocation; map lookups then use the m[string(key)] form the
// compiler compiles down to a no-copy lookup.
func stateKey(dst []byte, ruleID, group string) []byte {
	dst = append(dst, ruleID...)
	dst = append(dst, 0)
	return append(dst, group...)
}

// ruleSlots marks the byKind slots of the kinds a compiled rule can
// possibly match; a kind-agnostic rule marks every slot. A plain or
// threshold rule is pinned by an equals-condition on the "kind" field;
// a sequence rule is a candidate for every kind any of its stages
// pins, and agnostic if any stage is.
func ruleSlots(r *Rule) (in [trace.NumKinds + 1]bool) {
	pinned := true
	mark := func(conds []Condition) {
		if i := kindCond(conds); i >= 0 {
			in[trace.KindIndex(trace.Kind(conds[i].Equals))] = true
		} else {
			pinned = false
		}
	}
	if len(r.Sequence) == 0 {
		mark(r.Conditions)
	}
	for i := range r.Sequence {
		mark(r.Sequence[i].Conditions)
	}
	if !pinned {
		for i := range in {
			in[i] = true
		}
	}
	return in
}

// kindCond returns the index of the first condition that holds only
// when the event's kind equals a fixed value, or -1. A numeric
// comparison on "kind" does not count: Match tests it instead of
// Equals.
func kindCond(conds []Condition) int {
	for i := range conds {
		c := &conds[i]
		if c.Field == "kind" && c.Equals != "" && !c.HasGT && !c.HasLT {
			return i
		}
	}
	return -1
}

// newRuleSet indexes rs. Walking the rules once in registration order
// keeps every candidate list in that order, so evaluation order (and
// hence alert order within one event) is that of a linear scan.
func newRuleSet(rs []*Rule) *ruleSet {
	set := &ruleSet{rules: rs}
	for _, r := range rs {
		own, proven := -1, r.Conditions
		if i := kindCond(r.Conditions); i >= 0 && len(r.Sequence) == 0 {
			// KindIndex is an exact switch: every event in a known
			// kind's slot has that kind. The foreign slot proves none.
			if k := trace.KindIndex(trace.Kind(r.Conditions[i].Equals)); k < trace.NumKinds {
				own, proven = k, slices.Delete(slices.Clone(r.Conditions), i, i+1)
			}
		}
		for i, ok := range ruleSlots(r) {
			if !ok {
				continue
			}
			conds := r.Conditions
			if i == own {
				conds = proven
			}
			set.byKind[i] = append(set.byKind[i], candidate{rule: r, conds: conds})
		}
	}
	return set
}

// NewEngine returns an engine with the given compiled rules.
func NewEngine(ruleset []*Rule) (*Engine, error) {
	for _, r := range ruleset {
		if err := r.Compile(); err != nil {
			return nil, err
		}
	}
	en := &Engine{}
	for i := range en.shards {
		en.shards[i].thresholds = map[string]*threshState{}
		en.shards[i].sequences = map[string]*seqState{}
	}
	en.set.Store(newRuleSet(ruleset))
	return en, nil
}

// AddRule appends a rule at runtime (threat-intel distribution path).
// Every Batch begun after AddRule returns evaluates the rule; one in
// flight finishes on the set it began with, so an event is never
// judged by half an update.
func (en *Engine) AddRule(r *Rule) error {
	if err := r.Compile(); err != nil {
		return err
	}
	en.writeMu.Lock()
	defer en.writeMu.Unlock()
	cur := en.set.Load()
	en.set.Store(newRuleSet(append(cur.rules[:len(cur.rules):len(cur.rules)], r)))
	return nil
}

// RuleCount returns the number of loaded rules.
func (en *Engine) RuleCount() int {
	return len(en.set.Load().rules)
}

// Evaluated returns the number of events processed: exact whenever no
// Batch is in flight.
func (en *Engine) Evaluated() uint64 {
	return en.evaluated.Load()
}

// Process evaluates one event and returns any alerts fired.
func (en *Engine) Process(e trace.Event) []Alert {
	return en.ProcessEvent(&e)
}

// ProcessEvent is Process for a caller that already holds the event:
// no copy of the event is made, and e is only read — a fired alert
// carries a Clone.
func (en *Engine) ProcessEvent(e *trace.Event) []Alert {
	b := en.Begin()
	fired := b.Process(e)
	b.End()
	return fired
}

// ProcessBatch evaluates events in order and returns all alerts fired,
// in firing order. Batching amortizes per-call overhead on replay and
// high-rate ingest paths.
func (en *Engine) ProcessBatch(events []trace.Event) []Alert {
	b := en.Begin()
	var fired []Alert
	for i := range events {
		fired = append(fired, b.Process(&events[i])...)
	}
	b.End()
	return fired
}

// Batch is one caller's pass over a run of events: the rule set it
// began with and the events processed but not yet added to the engine's
// counter. It is the one per-event body behind Process, ProcessEvent
// and ProcessBatch, and the core engine holds one across each of its
// batches. One goroutine's value; pair every Begin with End.
type Batch struct {
	en      *Engine
	set     *ruleSet
	pending uint64
}

// Begin starts a Batch on the current rule set.
func (en *Engine) Begin() Batch {
	return Batch{en: en, set: en.set.Load()}
}

// Process evaluates one event against the candidate rules for its
// kind and returns any alerts fired. e is only read.
func (b *Batch) Process(e *trace.Event) []Alert {
	b.pending++
	var fired []Alert
	cands := b.set.byKind[trace.KindIndex(e.Kind)]
	for i := range cands {
		fired = b.en.evalRule(&cands[i], e, fired)
	}
	return fired
}

// End adds the events processed since Begin (or the last End) to the
// engine's counter. The Batch stays usable.
func (b *Batch) End() {
	b.en.evaluated.Add(b.pending)
	b.pending = 0
}

// evalRule routes one candidate rule and returns fired, extended by
// the rule's alert when it fires. Stateless matching happens
// lock-free; only stateful threshold/sequence tracking takes the
// owning shard's lock. The alert is appended rather than returned:
// an (Alert, bool) result zeroes and copies the ~300-byte Alert for
// every candidate rule of every event, fired or not.
func (en *Engine) evalRule(c *candidate, e *trace.Event, fired []Alert) []Alert {
	if len(c.rule.Sequence) > 0 {
		return en.evalSequence(c.rule, e, fired)
	}
	if !matchAll(c.conds, e) {
		return fired
	}
	r := c.rule
	if r.Threshold == nil {
		return append(fired, en.mkAlert(r, e, "", 1))
	}
	group := ""
	if r.Threshold.GroupBy != "" {
		group = FieldValue(e, r.Threshold.GroupBy)
	}
	sh := en.shardFor(r.ID, group)
	var kb [128]byte
	key := stateKey(kb[:0], r.ID, group)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.thresholds[string(key)] // alloc-free lookup form
	if st == nil {
		st = &threshState{}
		sh.thresholds[string(key)] = st // new group: key string allocated once
	}
	now := e.Time
	times := st.times
	fresh := times[:0]
	for _, t := range times {
		if r.Threshold.Window == 0 || now.Sub(t) <= r.Threshold.Window {
			fresh = append(fresh, t)
		}
	}
	fresh = append(fresh, now)
	st.times = fresh
	if len(fresh) >= r.Threshold.Count {
		st.times = st.times[:0] // reset after firing, keeping capacity
		return append(fired, en.mkAlert(r, e, group, len(fresh)))
	}
	return fired
}

func (en *Engine) evalSequence(r *Rule, e *trace.Event, fired []Alert) []Alert {
	group := ""
	switch {
	case r.Threshold != nil && r.Threshold.GroupBy != "":
		group = FieldValue(e, r.Threshold.GroupBy)
	case (e.Kind == trace.KindAuth || e.Kind == trace.KindHTTP || e.Kind == trace.KindConn) && e.SrcIP != "":
		// Auth/transport events key on the *source*: a guessing
		// campaign targets many accounts from one address.
		group = e.SrcIP
	case e.User != "":
		group = e.User
	default:
		group = e.SrcIP
	}
	sh := en.shardFor(r.ID, group)
	var kb [128]byte
	key := stateKey(kb[:0], r.ID, group)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.sequences[string(key)] // alloc-free lookup form
	if st == nil {
		st = &seqState{}
		sh.sequences[string(key)] = st // new group: key string allocated once
	}
	stage := &r.Sequence[st.stage]
	if stage.Within > 0 && st.stage > 0 && e.Time.Sub(st.lastTime) > stage.Within {
		// Too slow: restart the sequence at stage 0.
		st.stage = 0
		stage = &r.Sequence[0]
	}
	if !matchAll(stage.Conditions, e) {
		// A non-matching event does not reset progress (attackers
		// interleave benign traffic), it is simply ignored.
		return fired
	}
	st.stage++
	st.lastTime = e.Time
	if st.stage >= len(r.Sequence) {
		st.stage = 0
		return append(fired, en.mkAlert(r, e, group, len(r.Sequence)))
	}
	return fired
}

func (en *Engine) mkAlert(r *Rule, e *trace.Event, group string, count int) Alert {
	return Alert{
		RuleID: r.ID, Class: r.Class, Severity: r.Severity,
		Description: r.Description, Time: e.Time, Group: group,
		Trigger: e.Clone(), Count: count,
	}
}

// MarshalRules serializes rules to the JSON exchange format.
func MarshalRules(rs []*Rule) ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}

// UnmarshalRules parses the JSON exchange format and compiles rules.
func UnmarshalRules(data []byte) ([]*Rule, error) {
	var rs []*Rule
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("rules: parse: %w", err)
	}
	for i, r := range rs {
		if r == nil {
			return nil, fmt.Errorf("rules: entry %d is null", i)
		}
		if err := r.Compile(); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// SortAlerts orders alerts by time then rule id, for stable reports.
func SortAlerts(alerts []Alert) {
	sort.Slice(alerts, func(i, j int) bool {
		if !alerts[i].Time.Equal(alerts[j].Time) {
			return alerts[i].Time.Before(alerts[j].Time)
		}
		return alerts[i].RuleID < alerts[j].RuleID
	})
}
