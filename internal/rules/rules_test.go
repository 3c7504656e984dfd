package rules

import (
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

var t0 = time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

func at(offset time.Duration, e trace.Event) trace.Event {
	e.Time = t0.Add(offset)
	return e
}

func mustEngine(t *testing.T, rs ...*Rule) *Engine {
	t.Helper()
	en, err := NewEngine(rs)
	if err != nil {
		t.Fatal(err)
	}
	return en
}

func TestConditionOperators(t *testing.T) {
	e := trace.Event{
		Kind: trace.KindExec, Code: "encrypt(read_file(f), key)",
		User: "mallory", Bytes: 5000, Entropy: 7.8, Status: 403,
		Fields: map[string]string{"custom": "value"},
	}
	cases := []struct {
		cond Condition
		want bool
	}{
		{Condition{Field: "kind", Equals: "exec"}, true},
		{Condition{Field: "kind", Equals: "http"}, false},
		{Condition{Field: "code", Contains: "encrypt("}, true},
		{Condition{Field: "code", Regex: `encrypt\s*\(`}, true},
		{Condition{Field: "code", Regex: `^shell`}, false},
		{GTCond("bytes", 4999), true},
		{GTCond("bytes", 5000), false},
		{LTCond("entropy", 7.9), true},
		{GTCond("entropy", 7.0), true},
		{Condition{Field: "custom", Equals: "value"}, true},
		{Condition{Field: "user"}, true},    // existence
		{Condition{Field: "dst_ip"}, false}, // empty
		{Condition{Field: "status", Equals: "403"}, true},
	}
	for i, c := range cases {
		cond := c.cond
		if err := cond.compile(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := cond.Match(&e); got != c.want {
			t.Errorf("case %d: match = %v want %v (%+v)", i, got, c.want, c.cond)
		}
	}
}

func TestCompileRejectsBadRules(t *testing.T) {
	bad := []*Rule{
		{ID: "", Conditions: []Condition{{Field: "kind", Equals: "x"}}},
		{ID: "r1"}, // no conditions or sequence
		{ID: "r2", Conditions: []Condition{{Field: "code", Regex: "("}}},
		{ID: "r3", Conditions: []Condition{{Field: "kind", Equals: "x"}},
			Threshold: &Threshold{Count: 0}},
	}
	for i, r := range bad {
		if err := r.Compile(); err == nil {
			t.Errorf("rule %d compiled", i)
		}
	}
}

func TestSimpleRuleFires(t *testing.T) {
	en := mustEngine(t, &Rule{
		ID: "R1", Class: ClassRansomware, Severity: SevHigh,
		Conditions: []Condition{
			{Field: "kind", Equals: "exec"},
			{Field: "code", Contains: "encrypt("},
		},
	})
	alerts := en.Process(at(0, trace.Event{Kind: trace.KindExec, Code: "x = encrypt(d, k)"}))
	if len(alerts) != 1 || alerts[0].RuleID != "R1" {
		t.Fatalf("alerts = %+v", alerts)
	}
	// Non-matching event.
	if alerts := en.Process(at(time.Second, trace.Event{Kind: trace.KindExec, Code: "print(1)"})); len(alerts) != 0 {
		t.Fatalf("false positive: %+v", alerts)
	}
	if en.Evaluated() != 2 {
		t.Fatalf("evaluated = %d", en.Evaluated())
	}
}

func TestThresholdRule(t *testing.T) {
	en := mustEngine(t, &Rule{
		ID: "T1", Class: ClassAccountTakeover,
		Conditions: []Condition{{Field: "kind", Equals: "auth"}, {Field: "success", Equals: "false"}},
		Threshold:  &Threshold{Count: 3, Window: time.Minute, GroupBy: "src_ip"},
	})
	fail := trace.Event{Kind: trace.KindAuth, SrcIP: "6.6.6.6", Success: false}
	if a := en.Process(at(0, fail)); len(a) != 0 {
		t.Fatal("fired too early")
	}
	if a := en.Process(at(10*time.Second, fail)); len(a) != 0 {
		t.Fatal("fired too early")
	}
	a := en.Process(at(20*time.Second, fail))
	if len(a) != 1 || a[0].Count != 3 || a[0].Group != "6.6.6.6" {
		t.Fatalf("alerts = %+v", a)
	}
	// State resets after firing.
	if a := en.Process(at(25*time.Second, fail)); len(a) != 0 {
		t.Fatal("did not reset after firing")
	}
}

func TestThresholdWindowExpiry(t *testing.T) {
	en := mustEngine(t, &Rule{
		ID: "T2", Class: ClassDoS,
		Conditions: []Condition{{Field: "kind", Equals: "http"}},
		Threshold:  &Threshold{Count: 3, Window: 10 * time.Second, GroupBy: "src_ip"},
	})
	ev := trace.Event{Kind: trace.KindHTTP, SrcIP: "1.1.1.1"}
	en.Process(at(0, ev))
	en.Process(at(5*time.Second, ev))
	// Third event outside the window of the first: only 2 fresh.
	if a := en.Process(at(30*time.Second, ev)); len(a) != 0 {
		t.Fatalf("fired across expired window: %+v", a)
	}
}

func TestThresholdGroupIsolation(t *testing.T) {
	en := mustEngine(t, &Rule{
		ID: "T3", Class: ClassDoS,
		Conditions: []Condition{{Field: "kind", Equals: "http"}},
		Threshold:  &Threshold{Count: 2, Window: time.Minute, GroupBy: "src_ip"},
	})
	en.Process(at(0, trace.Event{Kind: trace.KindHTTP, SrcIP: "a"}))
	if a := en.Process(at(time.Second, trace.Event{Kind: trace.KindHTTP, SrcIP: "b"})); len(a) != 0 {
		t.Fatal("groups leaked")
	}
	if a := en.Process(at(2*time.Second, trace.Event{Kind: trace.KindHTTP, SrcIP: "a"})); len(a) != 1 {
		t.Fatal("group a did not fire")
	}
}

func TestSequenceRule(t *testing.T) {
	en := mustEngine(t, &Rule{
		ID: "S1", Class: ClassExfiltration,
		Sequence: []Stage{
			{Conditions: []Condition{{Field: "kind", Equals: "file_op"}, {Field: "op", Equals: "read"}}},
			{Conditions: []Condition{{Field: "kind", Equals: "net_op"}}, Within: time.Minute},
		},
	})
	// Benign interleaved traffic must not reset progress.
	en.Process(at(0, trace.Event{Kind: trace.KindFileOp, Op: "read", User: "m"}))
	en.Process(at(time.Second, trace.Event{Kind: trace.KindHTTP, User: "m"}))
	a := en.Process(at(2*time.Second, trace.Event{Kind: trace.KindNetOp, Op: "POST", User: "m"}))
	if len(a) != 1 || a[0].RuleID != "S1" {
		t.Fatalf("alerts = %+v", a)
	}
}

func TestSequenceWithinTimeout(t *testing.T) {
	en := mustEngine(t, &Rule{
		ID: "S2", Class: ClassExfiltration,
		Sequence: []Stage{
			{Conditions: []Condition{{Field: "op", Equals: "read"}}},
			{Conditions: []Condition{{Field: "op", Equals: "POST"}}, Within: time.Minute},
		},
	})
	en.Process(at(0, trace.Event{Kind: trace.KindFileOp, Op: "read", User: "m"}))
	// Second stage too late: sequence restarts; POST doesn't match stage 0.
	if a := en.Process(at(5*time.Minute, trace.Event{Kind: trace.KindNetOp, Op: "POST", User: "m"})); len(a) != 0 {
		t.Fatalf("slow sequence fired: %+v", a)
	}
}

func TestSequenceGroupsByUser(t *testing.T) {
	en := mustEngine(t, &Rule{
		ID: "S3", Class: ClassExfiltration,
		Sequence: []Stage{
			{Conditions: []Condition{{Field: "op", Equals: "read"}}},
			{Conditions: []Condition{{Field: "op", Equals: "POST"}}},
		},
	})
	en.Process(at(0, trace.Event{Kind: trace.KindFileOp, Op: "read", User: "alice"}))
	// Different user completes stage 2: must not fire for bob.
	if a := en.Process(at(time.Second, trace.Event{Kind: trace.KindNetOp, Op: "POST", User: "bob"})); len(a) != 0 {
		t.Fatalf("cross-user sequence fired: %+v", a)
	}
}

func TestAddRuleAtRuntime(t *testing.T) {
	en := mustEngine(t)
	if en.RuleCount() != 0 {
		t.Fatal("engine not empty")
	}
	err := en.AddRule(&Rule{ID: "HOT1", Conditions: []Condition{{Field: "kind", Equals: "exec"}}})
	if err != nil {
		t.Fatal(err)
	}
	if a := en.Process(at(0, trace.Event{Kind: trace.KindExec})); len(a) != 1 {
		t.Fatal("hot rule did not fire")
	}
}

func TestMarshalUnmarshalRules(t *testing.T) {
	rs := BuiltinRules()
	data, err := MarshalRules(rs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRules(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rs) {
		t.Fatalf("rules = %d want %d", len(back), len(rs))
	}
	// Round-tripped rules must behave: RW-001 still fires.
	en, err := NewEngine(back)
	if err != nil {
		t.Fatal(err)
	}
	a := en.Process(at(0, trace.Event{Kind: trace.KindExec, Code: "encrypt(x, k)", User: "m"}))
	found := false
	for _, al := range a {
		if al.RuleID == "RW-001-encrypt-call" {
			found = true
		}
	}
	if !found {
		t.Fatalf("RW-001 did not fire after round trip: %+v", a)
	}
}

func TestBuiltinRulesCompile(t *testing.T) {
	for _, r := range BuiltinRules() {
		if err := r.Compile(); err != nil {
			t.Errorf("builtin %s: %v", r.ID, err)
		}
	}
	if len(BuiltinRuleIDs()) < 15 {
		t.Fatalf("only %d builtin rules", len(BuiltinRuleIDs()))
	}
}

func TestBuiltinCoverageOfTaxonomy(t *testing.T) {
	classes := map[string]bool{}
	for _, r := range BuiltinRules() {
		classes[r.Class] = true
	}
	for _, want := range []string{
		ClassRansomware, ClassExfiltration, ClassCryptomining,
		ClassMisconfig, ClassAccountTakeover, ClassDoS, ClassZeroDay,
	} {
		if !classes[want] {
			t.Errorf("no builtin rule for class %s", want)
		}
	}
}

func TestSeverityRank(t *testing.T) {
	order := []Severity{SevInfo, SevLow, SevMedium, SevHigh, SevCritical}
	for i := 1; i < len(order); i++ {
		if order[i].Rank() <= order[i-1].Rank() {
			t.Fatalf("severity ordering broken at %s", order[i])
		}
	}
	if Severity("martian").Rank() != -1 {
		t.Fatal("unknown severity rank")
	}
}

func TestSortAlerts(t *testing.T) {
	alerts := []Alert{
		{RuleID: "B", Time: t0.Add(time.Second)},
		{RuleID: "A", Time: t0.Add(time.Second)},
		{RuleID: "C", Time: t0},
	}
	SortAlerts(alerts)
	ids := []string{alerts[0].RuleID, alerts[1].RuleID, alerts[2].RuleID}
	if strings.Join(ids, "") != "CAB" {
		t.Fatalf("order = %v", ids)
	}
}

func TestFieldValueCoverage(t *testing.T) {
	e := trace.Event{
		Kind: trace.KindKernMsg, SrcIP: "1.2.3.4", DstIP: "5.6.7.8",
		User: "u", Session: "s", Method: "GET", Path: "/p", Status: 200,
		WSOpcode: "text", MsgType: "execute_request", Channel: "shell",
		KernelID: "k1", Code: "c", Op: "o", Target: "t", Bytes: 9,
		Entropy: 1.5, Success: true, Detail: "d", CPUMillis: 7,
	}
	fields := map[string]string{
		"kind": "kern_msg", "src_ip": "1.2.3.4", "dst_ip": "5.6.7.8",
		"user": "u", "session": "s", "method": "GET", "path": "/p",
		"status": "200", "ws_opcode": "text", "msg_type": "execute_request",
		"channel": "shell", "kernel_id": "k1", "code": "c", "op": "o",
		"target": "t", "bytes": "9", "entropy": "1.5", "success": "true",
		"detail": "d", "cpu_millis": "7",
	}
	for f, want := range fields {
		if got := FieldValue(&e, f); got != want {
			t.Errorf("FieldValue(%s) = %q want %q", f, got, want)
		}
	}
}

// A candidate rule that does not fire must cost nothing: evalRule
// appends to the caller's slice on a hit instead of returning an
// (Alert, bool) that is zeroed and copied per rule either way.
func TestNonFiringEventAllocatesNothing(t *testing.T) {
	en, err := NewEngine(BuiltinRules())
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)
	events := []trace.Event{
		{Kind: trace.KindExec, Time: at, User: "alice", KernelID: "k1", Code: "df = load('data.csv')", Success: true},
		{Kind: trace.KindHTTP, Time: at, SrcIP: "10.0.0.7", User: "alice", Method: "GET", Path: "/api/contents", Status: 200, Success: true},
		{Kind: trace.KindFileOp, Time: at, User: "alice", Op: "read", Target: "/home/alice/nb.ipynb", Bytes: 2048, Entropy: 4.1, Success: true},
		{Kind: trace.KindSysRes, Time: at, KernelID: "k1", CPUMillis: 12},
	}
	for i := range events {
		if fired := en.ProcessEvent(&events[i]); len(fired) != 0 {
			t.Fatalf("benign event %d fired %d alerts; pick another", i, len(fired))
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		for i := range events {
			en.ProcessEvent(&events[i])
			en.Process(events[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("non-firing events cost %.1f allocations per round, want 0", allocs)
	}
}
