package rules

import (
	"testing"

	"repro/internal/trace"
)

// FuzzUnmarshalRules feeds hostile JSON rulesets to the exchange
// decoder: it must never panic, and any ruleset it accepts must
// survive a marshal/unmarshal round trip (the honeypot → production
// distribution path depends on that).
func FuzzUnmarshalRules(f *testing.F) {
	if seed, err := MarshalRules(BuiltinRules()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"id":"a","conditions":[{"field":"kind","equals":"exec"}]}]`))
	f.Add([]byte(`[{"id":"b","conditions":[{"field":"code","regex":"("}]}]`))
	f.Add([]byte(`[{"id":"c","threshold":{"count":-1}}]`))
	f.Add([]byte(`[{"id":"d","sequence":[{"conditions":[{"field":"op","equals":"read"}],"within":9e18}]}]`))
	f.Add([]byte(`{"not":"a list"}`))
	f.Add([]byte(`[null]`))
	f.Add([]byte{0xff, 0xfe, '['})

	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := UnmarshalRules(data)
		if err != nil {
			return
		}
		wire, err := MarshalRules(rs)
		if err != nil {
			t.Fatalf("accepted ruleset does not marshal: %v", err)
		}
		back, err := UnmarshalRules(wire)
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, wire)
		}
		if len(back) != len(rs) {
			t.Fatalf("round trip changed rule count: %d -> %d", len(rs), len(back))
		}
		for i := range rs {
			if back[i].ID != rs[i].ID {
				t.Fatalf("rule %d id changed: %q -> %q", i, rs[i].ID, back[i].ID)
			}
		}
	})
}

// FuzzConditionMatchesRegexp holds every compiled regex condition —
// each one in BuiltinRules and every agreement pattern — to its bare
// regexp: Condition.Match must equal regexp.MatchString on any value.
func FuzzConditionMatchesRegexp(f *testing.F) {
	for _, in := range agreementInputs {
		f.Add(in)
	}
	for _, in := range []string{"ſ", "K", "\xff\xfe", "write\n", "notes.enc\n", "/api/\n", "ſtratum+tcp", "xmrıg"} {
		f.Add(in)
	}
	var conds []Condition
	for _, p := range append(builtinPatterns(), agreementPatterns...) {
		c := Condition{Field: "code", Regex: p}
		if err := c.compile(); err != nil {
			f.Fatal(err)
		}
		conds = append(conds, c)
	}
	f.Fuzz(func(t *testing.T, v string) {
		e := trace.Event{Kind: trace.KindExec, Code: v}
		for i := range conds {
			c := &conds[i]
			if got, want := c.Match(&e), c.m.re.MatchString(v); got != want {
				t.Fatalf("pattern %q value %q: Match %v, regexp %v", c.Regex, v, got, want)
			}
		}
	})
}

// builtinPatterns lists the Regex of every condition in BuiltinRules,
// sequence stages included.
func builtinPatterns() []string {
	var out []string
	add := func(conds []Condition) {
		for _, c := range conds {
			if c.Regex != "" {
				out = append(out, c.Regex)
			}
		}
	}
	for _, r := range BuiltinRules() {
		add(r.Conditions)
		for _, s := range r.Sequence {
			add(s.Conditions)
		}
	}
	return out
}
