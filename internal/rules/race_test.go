package rules

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// raceRules builds a ruleset exercising every stateful path: a plain
// signature, a grouped threshold, and a grouped sequence.
func raceRules(t testing.TB) []*Rule {
	t.Helper()
	return []*Rule{
		{
			ID: "R-plain", Description: "plain exec marker", Class: "zero_day",
			Severity: SevLow,
			Conditions: []Condition{
				{Field: "kind", Equals: "exec"},
				{Field: "code", Contains: "marker()"},
			},
		},
		{
			ID: "R-thresh", Description: "burst per user", Class: "ransomware",
			Severity: SevHigh,
			Conditions: []Condition{
				{Field: "kind", Equals: "file_op"},
				{Field: "op", Equals: "write"},
			},
			Threshold: &Threshold{Count: 5, Window: time.Minute, GroupBy: "user"},
		},
		{
			ID: "R-seq", Description: "read then post per user", Class: "data_exfiltration",
			Severity: SevCritical,
			Sequence: []Stage{
				{Conditions: []Condition{
					{Field: "kind", Equals: "file_op"},
					{Field: "op", Equals: "read"},
				}},
				{Conditions: []Condition{
					{Field: "kind", Equals: "net_op"},
					{Field: "op", Equals: "POST"},
				}, Within: time.Hour},
			},
		},
	}
}

// actorStream builds one actor's in-order event stream: enough writes
// to fire the threshold twice, plus a read→POST pair for the sequence
// and one plain match.
func actorStream(user string, base time.Time) []trace.Event {
	var evs []trace.Event
	at := func(i int) time.Time { return base.Add(time.Duration(i) * time.Second) }
	for i := 0; i < 10; i++ {
		evs = append(evs, trace.Event{
			Kind: trace.KindFileOp, Op: "write", User: user, Time: at(i),
		})
	}
	evs = append(evs,
		trace.Event{Kind: trace.KindExec, Code: "marker()", User: user, Time: at(10)},
		trace.Event{Kind: trace.KindFileOp, Op: "read", User: user, Time: at(11)},
		trace.Event{Kind: trace.KindNetOp, Op: "POST", User: user, Time: at(12)},
	)
	return evs
}

// alertKey flattens the identity of an alert for set comparison.
func alertKey(a Alert) string {
	return fmt.Sprintf("%s|%s|%d|%s", a.RuleID, a.Group, a.Count, a.Time.UTC().Format(time.RFC3339Nano))
}

func sortedKeys(alerts []Alert) []string {
	keys := make([]string, len(alerts))
	for i, a := range alerts {
		keys[i] = alertKey(a)
	}
	sort.Strings(keys)
	return keys
}

// TestConcurrentProcessMatchesSerial drives 16 goroutines — each a
// distinct correlation group — through one engine under the race
// detector and checks the alert set is identical to a serial run.
func TestConcurrentProcessMatchesSerial(t *testing.T) {
	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	const goroutines = 16

	streams := make([][]trace.Event, goroutines)
	for i := range streams {
		streams[i] = actorStream(fmt.Sprintf("user-%02d", i), base)
	}

	serial, err := NewEngine(raceRules(t))
	if err != nil {
		t.Fatal(err)
	}
	var sa []Alert
	for _, st := range streams {
		for _, e := range st {
			sa = append(sa, serial.Process(e)...)
		}
	}

	concurrent, err := NewEngine(raceRules(t))
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
		ca []Alert
	)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(st []trace.Event) {
			defer wg.Done()
			for _, e := range st {
				fired := concurrent.Process(e)
				mu.Lock()
				ca = append(ca, fired...)
				mu.Unlock()
			}
		}(streams[i])
	}
	wg.Wait()

	if got, want := concurrent.Evaluated(), serial.Evaluated(); got != want {
		t.Fatalf("evaluated = %d, want %d", got, want)
	}
	if len(ca) != len(sa) {
		t.Fatalf("alert count = %d, want %d", len(ca), len(sa))
	}
	sk, ck := sortedKeys(sa), sortedKeys(ca)
	for i := range sk {
		if sk[i] != ck[i] {
			t.Fatalf("alert sets diverge at %d:\nserial    %s\nconcurrent %s", i, sk[i], ck[i])
		}
	}
}

// TestConcurrentBatchAndStatsReads mixes ProcessBatch with hot stats
// reads and runtime rule loads — the contention pattern the atomic
// counter and the copy-on-write rule set exist for.
func TestConcurrentBatchAndStatsReads(t *testing.T) {
	en, err := NewEngine(BuiltinRules())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			en.ProcessBatch(actorStream(fmt.Sprintf("batch-user-%d", i), base))
		}(i)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = en.Evaluated()
			_ = en.RuleCount()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			err := en.AddRule(&Rule{
				ID: fmt.Sprintf("HOT-%d", i), Class: "zero_day", Severity: SevLow,
				Conditions: []Condition{
					{Field: "kind", Equals: "exec"},
					{Field: "code", Contains: fmt.Sprintf("never-%d", i)},
				},
			})
			if err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if en.Evaluated() != 8*13 {
		t.Fatalf("evaluated = %d, want %d", en.Evaluated(), 8*13)
	}
}

// TestKindIndexMatchesLinearScan replays one actor stream through the
// indexed engine and a single-candidate-list variant built from the
// same rules, ensuring indexing never changes which rules fire.
func TestKindIndexMatchesLinearScan(t *testing.T) {
	evs := actorStream("idx-user", time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
	// Force every rule onto the wildcard path by removing kind pins.
	wild := []*Rule{{
		ID: "W-any-write", Description: "any write", Class: "ransomware",
		Severity:   SevLow,
		Conditions: []Condition{{Field: "op", Equals: "write"}},
		Threshold:  &Threshold{Count: 5, Window: time.Minute, GroupBy: "user"},
	}}
	indexed, err := NewEngine(append(raceRules(t), wild...))
	if err != nil {
		t.Fatal(err)
	}
	// 10 writes: R-thresh fires at 5 and 10; W-any-write likewise.
	counts := map[string]int{}
	for _, e := range evs {
		for _, a := range indexed.Process(e) {
			counts[a.RuleID]++
		}
	}
	want := map[string]int{"R-plain": 1, "R-thresh": 2, "R-seq": 1, "W-any-write": 2}
	for id, n := range want {
		if counts[id] != n {
			t.Fatalf("rule %s fired %d times, want %d (all: %v)", id, counts[id], n, counts)
		}
	}
}
