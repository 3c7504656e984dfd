package rules

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// indexRules covers every way a rule lands in the candidate index:
// pinned to a known kind, pinned to one of two foreign kinds, kind-
// agnostic (plain and threshold), and sequences whose stages pin a
// known and a foreign kind or leave one stage open.
func indexRules() []*Rule {
	kind := func(k string) Condition { return Condition{Field: "kind", Equals: k} }
	return []*Rule{
		{ID: "R0-exec", Class: "zero_day", Conditions: []Condition{kind("exec"), {Field: "code", Contains: "x"}}},
		{ID: "R1-any-op", Class: "zero_day", Conditions: []Condition{{Field: "op", Equals: "write"}}},
		{ID: "R2-custom", Class: "zero_day", Conditions: []Condition{kind("custom")}},
		{ID: "R3-exec-again", Class: "zero_day", Conditions: []Condition{kind("exec")}},
		{ID: "R4-other", Class: "zero_day", Conditions: []Condition{kind("other"), {Field: "op", Equals: "write"}}},
		{ID: "R5-any-user", Class: "zero_day", Conditions: []Condition{{Field: "user", Equals: "u"}},
			Threshold: &Threshold{Count: 3, Window: time.Hour, GroupBy: "user"}},
		{ID: "R6-seq-custom-then-exec", Class: "zero_day", Sequence: []Stage{
			{Conditions: []Condition{kind("custom")}},
			{Conditions: []Condition{kind("exec")}, Within: time.Hour},
		}},
		{ID: "R7-seq-two-foreign", Class: "zero_day", Sequence: []Stage{
			{Conditions: []Condition{kind("custom")}},
			{Conditions: []Condition{kind("other")}},
		}},
		{ID: "R8-seq-open-stage", Class: "zero_day", Sequence: []Stage{
			{Conditions: []Condition{kind("file_op")}},
			{Conditions: []Condition{{Field: "op", Equals: "write"}}},
		}},
		{ID: "R9-file", Class: "zero_day", Conditions: []Condition{kind("file_op")}},
	}
}

func firedIDs(alerts []Alert) []string {
	ids := []string{}
	for _, a := range alerts {
		ids = append(ids, a.RuleID)
	}
	return ids
}

// TestCandidateIndexMatchesLinearScan holds the kind-indexed snapshot
// to a linear scan of all rules: per event, the same rules fire in the
// same (registration) order, for every known kind, two foreign kinds
// and the empty kind. A rule pinned to a foreign kind fires for that
// kind only; kind-agnostic rules see every kind.
func TestCandidateIndexMatchesLinearScan(t *testing.T) {
	indexed, err := NewEngine(indexRules())
	if err != nil {
		t.Fatal(err)
	}
	linear, err := NewEngine(indexRules())
	if err != nil {
		t.Fatal(err)
	}
	all := &ruleSet{rules: linear.set.Load().rules}
	for i := range all.byKind {
		for _, r := range all.rules {
			all.byKind[i] = append(all.byKind[i], candidate{rule: r, conds: r.Conditions})
		}
	}
	linear.set.Store(all)

	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	kinds := append(trace.KnownKinds(), "custom", "other", "")
	firedFor := map[string]map[trace.Kind]bool{}
	n := 0
	for round := 0; round < 3; round++ {
		for _, k := range kinds {
			e := trace.Event{Kind: k, User: "u", Op: "write", Code: "x", Time: base.Add(time.Duration(n) * time.Second)}
			n++
			got, want := firedIDs(indexed.Process(e)), firedIDs(linear.Process(e))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d kind %q: indexed engine fired %v, linear scan %v", round, k, got, want)
			}
			for _, id := range got {
				if firedFor[id] == nil {
					firedFor[id] = map[trace.Kind]bool{}
				}
				firedFor[id][k] = true
			}
		}
	}
	if got := firedFor["R2-custom"]; len(got) != 1 || !got["custom"] {
		t.Fatalf("the rule pinned to foreign kind %q fired for %v", "custom", got)
	}
	if got := firedFor["R4-other"]; len(got) != 1 || !got["other"] {
		t.Fatalf("the rule pinned to foreign kind %q fired for %v", "other", got)
	}
	if got := firedFor["R1-any-op"]; len(got) != len(kinds) {
		t.Fatalf("the kind-agnostic rule fired for %d of %d kinds: %v", len(got), len(kinds), got)
	}
	for _, id := range []string{"R0-exec", "R3-exec-again", "R5-any-user", "R6-seq-custom-then-exec", "R7-seq-two-foreign", "R8-seq-open-stage", "R9-file"} {
		if len(firedFor[id]) == 0 {
			t.Fatalf("rule %s never fired; the table does not exercise it", id)
		}
	}
	// The foreign slot lists each rule once, however many foreign
	// kinds its stages pin.
	seen := map[string]int{}
	for _, c := range indexed.set.Load().byKind[trace.NumKinds] {
		seen[c.rule.ID]++
	}
	if seen["R7-seq-two-foreign"] != 1 {
		t.Fatalf("the foreign slot lists the two-foreign-stage sequence %d times", seen["R7-seq-two-foreign"])
	}
}

// TestRuleSetSwapsWhole races AddRule against ProcessEvent and
// ProcessBatch. The writer adds rule i; every event matches every hot
// rule. An event judged by one snapshot fires a prefix HOT-0..HOT-k of
// the rules with no gap. Once the writer is done, every event sees
// every rule.
func TestRuleSetSwapsWhole(t *testing.T) {
	const hot, readers = 24, 8
	en, err := NewEngine(raceRules(t))
	if err != nil {
		t.Fatal(err)
	}
	ev := func(i int) trace.Event {
		return trace.Event{Kind: trace.KindTermCmd, User: "u", Code: "hot", Time: time.Unix(int64(i), 0)}
	}
	// checkPrefix reports how many hot rules fired, failing on a gap.
	checkPrefix := func(fired []Alert) int {
		for i, a := range fired {
			if want := fmt.Sprintf("HOT-%d", i); a.RuleID != want {
				t.Errorf("alert %d of one event is %s, want %s: a snapshot with a hole", i, a.RuleID, want)
				return -1
			}
		}
		return len(fired)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var processed atomic.Uint64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			batch := []trace.Event{ev(0), ev(1), ev(2), ev(3)}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r%2 == 0 {
					e := ev(i)
					checkPrefix(en.ProcessEvent(&e))
					processed.Add(1)
					continue
				}
				// One batch runs on one snapshot: every event in it
				// sees the same number of rules.
				fired := en.ProcessBatch(batch)
				processed.Add(uint64(len(batch)))
				if len(fired)%len(batch) != 0 {
					t.Errorf("a batch of %d events fired %d alerts: its events saw different rule sets", len(batch), len(fired))
					continue
				}
				per := len(fired) / len(batch)
				for j := 0; j < len(batch); j++ {
					checkPrefix(fired[j*per : (j+1)*per])
				}
			}
		}(r)
	}
	for i := 0; i < hot; i++ {
		if err := en.AddRule(&Rule{
			ID: fmt.Sprintf("HOT-%d", i), Class: "zero_day", Severity: SevLow,
			Conditions: []Condition{{Field: "kind", Equals: "term_cmd"}, {Field: "code", Equals: "hot"}},
		}); err != nil {
			t.Fatal(err)
		}
		// Let the readers run on this rule set before the next swap.
		for target := processed.Load() + 8*readers; processed.Load() < target; {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if got := en.Evaluated(); got != processed.Load() {
		t.Fatalf("evaluated = %d with no batch in flight, want %d", got, processed.Load())
	}

	e := ev(0)
	if got := checkPrefix(en.ProcessEvent(&e)); got != hot {
		t.Fatalf("after the writer stopped an event fired %d of %d hot rules", got, hot)
	}
	if en.RuleCount() != len(raceRules(t))+hot {
		t.Fatalf("rule count = %d", en.RuleCount())
	}
}

// TestEvaluatedIsPublishedPerBatch pins the counter contract: exact
// after every entry point returns, and not before a Batch ends.
func TestEvaluatedIsPublishedPerBatch(t *testing.T) {
	en, err := NewEngine(raceRules(t))
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	events := actorStream("u", base)

	want := uint64(0)
	check := func(label string, n int) {
		t.Helper()
		want += uint64(n)
		if got := en.Evaluated(); got != want {
			t.Fatalf("after %s: evaluated = %d, want %d", label, got, want)
		}
	}
	en.ProcessBatch(events)
	check("ProcessBatch", len(events))
	en.Process(events[1])
	check("Process", 1)
	en.ProcessEvent(&events[2])
	check("ProcessEvent", 1)
	quiet := trace.Event{Kind: trace.KindKernMsg, User: "u", Time: base}
	b := en.Begin()
	b.Process(&quiet)
	b.Process(&quiet)
	if got := en.Evaluated(); got != want {
		t.Fatalf("an open Batch already published: evaluated = %d, want %d", got, want)
	}
	b.End()
	b.End() // idempotent
	check("Batch.End", 2)
}

// TestKindConditionDroppedInOwnSlot: in its kind's own slot a pinned
// plain or threshold rule is tested without its kind condition, which
// the index has already proven; the foreign slot and sequence stages
// keep it, and a numeric comparison on "kind" pins nothing.
func TestKindConditionDroppedInOwnSlot(t *testing.T) {
	numeric := &Rule{ID: "R-numeric-kind", Conditions: []Condition{{Field: "kind", Equals: "exec", GT: 1, HasGT: true}}}
	en, err := NewEngine(append(indexRules(), numeric))
	if err != nil {
		t.Fatal(err)
	}
	set := en.set.Load()
	conds := func(slot int, id string) []Condition {
		for _, c := range set.byKind[slot] {
			if c.rule.ID == id {
				return c.conds
			}
		}
		t.Fatalf("rule %s is not a candidate in slot %d", id, slot)
		return nil
	}
	exec := trace.KindIndex(trace.KindExec)
	if got := conds(exec, "R0-exec"); len(got) != 1 || got[0].Field != "code" {
		t.Fatalf("R0-exec in the exec slot tests %+v, want only its code condition", got)
	}
	if got := conds(exec, "R3-exec-again"); len(got) != 0 {
		t.Fatalf("R3-exec-again in the exec slot tests %+v, want nothing", got)
	}
	if got := conds(trace.NumKinds, "R4-other"); len(got) != 2 {
		t.Fatalf("R4-other in the foreign slot tests %+v, want its kind condition kept", got)
	}
	if got := conds(exec, "R6-seq-custom-then-exec"); len(got) != 0 || len(set.rules[6].Sequence[1].Conditions) != 1 {
		t.Fatalf("the sequence's stage lost its kind condition")
	}
	if got := conds(trace.NumKinds, "R-numeric-kind"); len(got) != 1 {
		t.Fatalf("the numeric kind condition pinned its rule: %+v", got)
	}
	if ids := firedIDs(en.Process(trace.Event{Kind: "5"})); !slices.Contains(ids, "R-numeric-kind") {
		t.Fatalf("kind 5 fired %v; the numeric kind condition holds for it", ids)
	}
	// The rule's own list is untouched: AddRule and Marshal see it whole.
	if n := len(set.rules[0].Conditions); n != 2 {
		t.Fatalf("R0-exec has %d conditions after indexing, want 2", n)
	}
}
