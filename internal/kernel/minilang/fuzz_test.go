package minilang

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// The parser and interpreter process attacker-controlled input (cell
// sources arrive from the network), so they must never panic and must
// always terminate within the step budget, for ANY input. These
// property tests throw structured garbage at both.

func TestParseNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse panicked on %q: %v", src, r)
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseNeverPanicsOnTokenSoup(t *testing.T) {
	// Random sequences of valid tokens are more likely to reach deep
	// parser states than random unicode.
	fragments := []string{
		"for", "in", "if", "else", "end", "while", "and", "or", "not",
		"break", "x", "print", "(", ")", "[", "]", ",", "+", "-", "*",
		"/", "%", "=", "==", "!=", "<", ">", "<=", ">=", "\n", `"s"`,
		"42", "3.14", ";", "read_file", "encrypt",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		var b strings.Builder
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			b.WriteString(fragments[rng.Intn(len(fragments))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse panicked on token soup %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

func TestRunTerminatesOnTokenSoup(t *testing.T) {
	fragments := []string{
		"x = 1", "while 1", "for i in range(10)", "end", "break",
		"if x", "else", "print(x)", "x = x + 1", "\n",
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		n := rng.Intn(12)
		for i := 0; i < n; i++ {
			b.WriteString(fragments[rng.Intn(len(fragments))])
			b.WriteByte('\n')
		}
		src := b.String()
		h := newHarness(Limits{MaxSteps: 50000})
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked on %q: %v", src, r)
				}
			}()
			// Errors are fine; panics and hangs are not.
			_, _ = h.exec(src)
		}()
	}
}

func TestDeepNestingBounded(t *testing.T) {
	// Deeply nested expressions must parse (or error) without stack
	// exhaustion at sane depths.
	src := strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000)
	if _, err := Parse("x = " + src); err != nil {
		t.Logf("deep nesting rejected: %v (acceptable)", err)
	}
	// Unbalanced versions must error, not hang.
	if _, err := Parse("x = " + strings.Repeat("(", 5000) + "1"); err == nil {
		t.Fatal("unbalanced parens accepted")
	}
}

func TestHugeLiteralsRejectedByLimits(t *testing.T) {
	_, err := newHarness(Limits{MaxSteps: 100000, MaxValueBytes: 4096}).exec(`x = "` + strings.Repeat("a", 2000) + `"
y = x + x + x`)
	if err == nil {
		t.Fatal("oversized value accepted")
	}
}

// FuzzInterp throws generated programs at the interpreter under tight
// limits. No input may panic it; the step, stdout, string-size,
// list-size and spin limits must hold; and two fresh interpreters on identical hosts
// must agree on error, stdout, variables, host-call trace and usage
// counters. Seeds: the corpus, the attack payloads and a regression
// in testdata/fuzz/FuzzInterp, and the inputs that once panicked the
// runtime (1 % 0.5 and range(NaN)).
func FuzzInterp(f *testing.F) {
	for _, src := range corpus {
		f.Add(src)
	}
	f.Add("x = " + strings.Repeat("1 + (", 40) + "0" + strings.Repeat(")", 40))
	f.Add("while 1\nif 1\nbreak\nend\nend\nprint(\"out\")")
	f.Add("for i in range(3)\nif 1 and 1\nbreak\nend\nend")
	f.Add("while 1 == 1\nspin(1)\nbreak\nend")
	f.Add("c = encrypt(\"\\xff\\xfe raw\", \"k\")\nprint(len(c), c == c, c[0])")
	f.Add("if 0\nbreak\nend\nbreak")
	f.Add("x = 1/0 and shell(\"id\")")
	f.Add("print(1 % 0.5, 7 % -0.9)")
	f.Add("print(range(num(\"nan\")))")
	f.Add("x = [1]\nfor i in range(30)\nx = x + x\nend")
	f.Add("x = [1]\nfor i in range(40)\nx = [x, x]\nend\nprint(x == x, str(x))")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		h := newFuzzHarness()
		checkLimits(t, h, stepTwins(t, h, newFuzzHarness(), src))
	})
}

// checkLimits fails unless the run of h that produced o stayed inside
// h's limits.
func checkLimits(t *testing.T, h *harness, o outcome) {
	t.Helper()
	lim := h.in.limits
	// The tick past the budget is the one that reports it.
	if h.in.steps > lim.MaxSteps+1 || h.in.steps == lim.MaxSteps+1 && !strings.Contains(o.Err, ErrTooManySteps.Error()) {
		t.Fatalf("%d steps under MaxSteps %d, err %s", h.in.steps, lim.MaxSteps, o.Err)
	}
	if len(o.Stdout) > lim.MaxOutputBytes {
		t.Fatalf("stdout is %d bytes, MaxOutputBytes %d", len(o.Stdout), lim.MaxOutputBytes)
	}
	// A list nested in itself shares its items: each backing array
	// is walked once, or the walk is exponential in the program.
	seen := map[*Value]bool{}
	var walk func(name string, v Value)
	walk = func(name string, v Value) {
		switch v := v.(type) {
		case Str:
			if len(v) > lim.MaxValueBytes {
				t.Fatalf("%s holds a %d-byte string, MaxValueBytes %d", name, len(v), lim.MaxValueBytes)
			}
		case List:
			if len(v) > lim.MaxValueBytes {
				t.Fatalf("%s holds a %d-item list, MaxValueBytes %d", name, len(v), lim.MaxValueBytes)
			}
			if len(v) == 0 || seen[&v[0]] {
				return
			}
			seen[&v[0]] = true
			for _, e := range v {
				walk(name, e)
			}
		}
	}
	for name, v := range h.in.Vars() {
		walk(name, v)
	}
	for _, call := range o.Calls {
		if ms, ok := strings.CutPrefix(call, "spin:"); ok {
			if n, _ := strconv.ParseInt(ms, 10, 64); n > lim.MaxSpinMillis {
				t.Fatalf("spin(%d) reached the host, MaxSpinMillis %d", n, lim.MaxSpinMillis)
			}
		}
	}
}

// newFuzzHarness is FuzzInterp's harness. Tight budgets keep hostile
// loops fast and make the limits part of what the target checks. The
// host also holds a small notebook server's files — notebooks/, data/
// and models/, the directories the attack payloads in the seed corpus
// sweep — so those seeds run their loops and host calls instead of
// stopping at an empty listing.
func newFuzzHarness() *harness {
	h := newHarness(Limits{
		MaxSteps:       20_000,
		MaxOutputBytes: 4096,
		MaxValueBytes:  1 << 16,
		MaxSpinMillis:  50,
	})
	for i := 0; i < 4; i++ {
		h.mem.files[fmt.Sprintf("notebooks/exp_%c.ipynb", 'a'+i)] = fmt.Sprintf(`{"cells":[],"n":%d}`, i)
	}
	h.mem.files["data/train.csv"] = "f1,f2,label\n0.1,0.2,1\n"
	h.mem.files["models/weights.bin"] = "Wq7Wq7Wq7Wq7Wq7Wq7Wq7Wq7"
	return h
}

// TestAttackSeedsRunPastFirstHostCall holds the attack payloads in
// FuzzInterp's seed corpus (testdata/fuzz/FuzzInterp/
// attack-*, written by internal/attacks' TestAttackPayloadFuzzSeeds) to
// their purpose: on the harness's hosts and under its limits each one
// runs to completion, makes more than one host call, and reads data or
// burns CPU — a payload that found no file to sweep would do neither.
func TestAttackSeedsRunPastFirstHostCall(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzInterp", "attack-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no attack seeds in the corpus")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(data), "go test fuzz v1\nstring(")
		lit, ok2 := strings.CutSuffix(lit, ")\n")
		src, err := strconv.Unquote(lit)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-string seed file", path)
		}
		h := newFuzzHarness()
		if _, err := h.exec(src); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		c := h.in.Counters()
		if len(h.host.calls) < 2 || c.BytesRead == 0 && c.CPUMillis == 0 {
			t.Fatalf("%s: stopped at its first host call: calls %v, counters %+v", path, h.host.calls, c)
		}
	}
}
