package rules

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRequiredLiteralsExtraction checks how representative patterns
// are classified: the mode that decides them and the literals it uses.
func TestRequiredLiteralsExtraction(t *testing.T) {
	cases := []struct {
		pattern       string
		mode          matchMode
		plain, folded []string
	}{
		// Literal sets: the regexp never runs on ASCII values.
		{`^(create|write)$`, modeExact, []string{"create", "write"}, nil},
		{`^/api/`, modePrefix, []string{"/api/"}, nil},
		{`^(whoami|id|uname|nproc|cat /etc/passwd)`, modePrefix,
			[]string{"whoami", "id", "uname", "nproc", "cat /etc/passwd"}, nil},
		{`\.(locked|enc|crypt|encrypted)$`, modeSuffix,
			[]string{".locked", ".enc", ".crypt", ".encrypted"}, nil},
		{`(?i)(xmrig|minerd)`, modeContains, nil, []string{"minerd", "xmrig"}},
		// The parser factors c(ryptonight|oinhive); the set expands it.
		{`(?i)(stratum\+tcp|xmrig|minerd|cryptonight|coinhive|pool\.min)`, modeContains, nil,
			[]string{"coinhive", "cryptonight", "minerd", "pool.min", "stratum+tcp", "xmrig"}},
		{`https?://`, modeContains, []string{"https://", "http://"}, nil},
		{`a|[0-9]`, modeContains, []string{"0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "a"}, nil}, // one class
		{`(abc)?`, modeContains, []string{"abc", ""}, nil},
		{`^$`, modeExact, []string{""}, nil},
		{`x`, modeContains, []string{"x"}, nil},
		// Guards: the regexp decides what the literals do not rule out.
		{`encrypt\s*\(`, modeGuard, []string{"encrypt"}, nil},
		{`b64encode\s*\(`, modeGuard, []string{"b64encode"}, nil},
		{`(curl|wget).*(\||;|&&).*(sh|bash|python)`, modeGuard, []string{"curl", "wget"}, nil},
		{`(?i)(readme.*(ransom|decrypt|restore)|ransom|how_to_recover)`, modeGuard, nil,
			[]string{"ansom", "decrypt", "how_to_recover", "ransom", "restore"}},
		{`(?i)ab(?-i:CD)`, modeGuard, nil, []string{"ab"}}, // one part folds, one does not
		{`(?m)^abc$`, modeGuard, []string{"abc"}, nil},     // line anchors stay with the regexp
		{`\bword\b`, modeGuard, []string{"word"}, nil},
		{`ünïcode|über`, modeGuard, []string{"ünïcode", "über"}, nil}, // non-ASCII sets stay guards
		{`(?i)1€2`, modeGuard, []string{"1€2"}, nil},                  // no rune has another case: plain
		// No provable literal: class-only, starred, folded non-ASCII,
		// or a one-byte guard.
		{`[0-9]+`, modeRegexp, nil, nil},
		{`(ab)*`, modeRegexp, nil, nil},
		{`(?i)ünïcode`, modeRegexp, nil, nil},
		{`(?i)пароль`, modeRegexp, nil, nil}, // no ASCII letter, still folds
		{`(?i)é`, modeRegexp, nil, nil},
		{`x+`, modeRegexp, nil, nil},
		{`\x{FFFD}abc`, modeRegexp, nil, nil}, // U+FFFD matches any invalid byte
	}
	// Past maxSetLits literals a set is neither decided alone nor a guard.
	var words []string
	for i := 0; i <= maxSetLits; i++ {
		words = append(words, fmt.Sprintf("w%02d", i))
	}
	alt := "(?i)(" + strings.Join(words, "|") + ")"
	cases = append(cases, struct {
		pattern       string
		mode          matchMode
		plain, folded []string
	}{alt, modeRegexp, nil, nil}, struct {
		pattern       string
		mode          matchMode
		plain, folded []string
	}{alt + ".*z", modeRegexp, nil, nil})
	for _, tc := range cases {
		mode, set := classify(tc.pattern)
		if mode != tc.mode || !slices.Equal(set.plain, tc.plain) || !slices.Equal(set.folded, tc.folded) {
			t.Errorf("%q: mode %d plain %q folded %q, want mode %d plain %q folded %q",
				tc.pattern, mode, set.plain, set.folded, tc.mode, tc.plain, tc.folded)
		}
	}
}

// agreementPatterns are guarded and literal-set patterns, shipped and
// otherwise; agreementInputs stress their boundaries: near-miss
// literals, case variants, anchors and fold edge cases.
var (
	agreementPatterns = []string{
		`encrypt\s*\(`,
		`b64encode\s*\(`,
		`^(create|write)$`,
		`(?i)(readme.*(ransom|decrypt|restore)|ransom|how_to_recover)`,
		`\.(locked|enc|crypt|encrypted)$`,
		`(?i)(stratum\+tcp|xmrig|minerd|cryptonight|pool\.min)`,
		`^/api/`,
		`^(whoami|id|uname|nproc|cat /etc/passwd)`,
		`(curl|wget).*(\||;|&&).*(sh|bash|python)`,
		`(?i)^(create|write)$`,
		`(?i)^/API/`,
		`(?i)\.(locked|enc)$`,
		`(?i)ab(?-i:CD)`,
		`https?://`,
		`(abc)?`,
		`^$`,
		`ünïcode|über`,
		`(?i)пароль`,
		`(?i)é`,
		`(?i)σ`,
		`(?i)1€2`,
	}
	agreementInputs = []string{
		"",
		"import pandas as pd",
		"encrypt(data)",
		"encrypt (data)",
		"ENCRYPT(data)", // case miss for case-sensitive pattern
		"deencrypted",
		"x = b64encode(body)",
		"b64decode(body)",
		"create", "created", "write", "rewrite", "WRITE", "Create\n",
		"README_RANSOM.txt", "readme how to restore files",
		"notes.enc", "notes.encrypted", "notes.enc.bak", "NOTES.ENC",
		"stratum+tcp://pool", "XMRig --threads 4", "pool.minexmr.com",
		"/api/kernels", "/apifront", "prefix/api/", "/API/x",
		"whoami", "id", "uname -a", "cat /etc/passwd", "guid",
		"curl http://x | sh", "wget x && bash", "curl x",
		"results/output-17.csv", "abCD", "ABcd", "https://x",
		"über", "ÜBER",
		// ſ (U+017F) folds to s and K (U+212A) to k under (?i): the
		// regexp matches these, so an ASCII fold scan must not be the
		// last word on them.
		"notes/RANſOM.txt",
		"pool = 'ſtratum+tcp://x'",
		"KKelvin xmrig", // Kelvin sign near a folded literal
		"/API/x\xff", "\xffcreate",
		// Non-ASCII letters fold too: a (?i) literal without ASCII
		// letters is not a plain one.
		"пароль", "ПАРОЛЬ", "мой Пароль", "é", "É", "σ", "Σ", "ς", "1€2",
	}
)

// TestPrefilterAgreesWithRegexp demands that every compiled condition
// give the verdict of its bare regexp on every input.
func TestPrefilterAgreesWithRegexp(t *testing.T) {
	for _, p := range agreementPatterns {
		re := regexp.MustCompile(p)
		c := Condition{Field: "code", Regex: p}
		if err := c.compile(); err != nil {
			t.Fatalf("%q: %v", p, err)
		}
		for _, in := range agreementInputs {
			e := trace.Event{Kind: trace.KindExec, Code: in}
			if got, want := c.Match(&e), re.MatchString(in); got != want {
				t.Errorf("pattern %q input %q: compiled=%v regexp=%v (mode %d, plain %q, folded %q)",
					p, in, got, want, c.m.mode, c.m.lits.plain, c.m.lits.folded)
			}
		}
	}
}

// BenchmarkRegexCondition times compiled conditions against their bare
// regexps on benign values, where neither matches.
func BenchmarkRegexCondition(b *testing.B) {
	for _, bc := range []struct{ name, pattern, value string }{
		{"guard", `(curl|wget).*(\||;|&&).*(sh|bash|python)`,
			"df = pd.read_csv('data.csv'); df.groupby('user').agg({'bytes': 'sum'})"},
		{"contains-folded", `(?i)(stratum\+tcp|xmrig|minerd|cryptonight|coinhive|pool\.min)`,
			"df = pd.read_csv('data.csv'); df.groupby('user').agg({'bytes': 'sum'})"},
		{"exact", `^(create|write)$`, "read"},
		{"suffix", `\.(locked|enc|crypt|encrypted)$`, "results/output-17.csv"},
	} {
		c := Condition{Field: "code", Regex: bc.pattern}
		if err := c.compile(); err != nil {
			b.Fatal(err)
		}
		bare := c
		bare.m = &matcher{re: c.m.re}
		e := trace.Event{Kind: trace.KindExec, Code: bc.value}
		for _, v := range []struct {
			name string
			c    *Condition
		}{{"compiled", &c}, {"regexp", &bare}} {
			b.Run(bc.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if v.c.Match(&e) {
						b.Fatal("unexpected match")
					}
				}
			})
		}
	}
}

// conditionsHeld keeps BenchmarkRuleConditions' calls from being
// optimised away.
var conditionsHeld bool

// BenchmarkRuleConditions times, per stock rule tested without state,
// the condition list its own kind's slot tests (kind condition
// dropped) over up to 1000 events of that kind from a standard mix,
// reported per event.
func BenchmarkRuleConditions(b *testing.B) {
	byKind := map[trace.Kind][]*trace.Event{}
	tr := workload.StandardMix(11, 20000)
	for i := range tr.Events {
		if e := &tr.Events[i]; len(byKind[e.Kind]) < 1000 {
			byKind[e.Kind] = append(byKind[e.Kind], e)
		}
	}
	en, err := NewEngine(BuiltinRules())
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range en.set.Load().rules {
		i := kindCond(r.Conditions)
		if i < 0 || len(r.Sequence) > 0 {
			continue
		}
		k := trace.Kind(r.Conditions[i].Equals)
		evs := byKind[k]
		if len(evs) == 0 {
			continue
		}
		var conds []Condition
		for _, c := range en.set.Load().byKind[trace.KindIndex(k)] {
			if c.rule == r {
				conds = c.conds
			}
		}
		b.Run(r.ID, func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for _, e := range evs {
					conditionsHeld = matchAll(conds, e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}
