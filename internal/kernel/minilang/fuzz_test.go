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
		p := newEnginePair(Limits{MaxSteps: 50000})
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked on %q: %v", src, r)
				}
			}()
			// Errors are fine; panics, hangs and divergence are not.
			_, _ = p.runBoth(t, src)
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
	p := newEnginePair(Limits{MaxSteps: 100000, MaxValueBytes: 4096})
	_, err := p.runBoth(t, `x = "`+strings.Repeat("a", 2000)+`"
y = x + x + x`)
	if err == nil {
		t.Fatal("oversized value accepted")
	}
}

// FuzzVMMatchesInterp is the standing differential harness from the
// VM work: every generated program runs on both engines, which must
// agree on error (type, line, message), stdout, final variables,
// host-call trace, and usage counters. The tree-walking interpreter
// is the oracle; any divergence is a VM (or compiler/folder) bug.
// Seeds cover the whole differential corpus plus VM corner cases:
// folded constants near the step limit, break inside constant-folded
// branches, and keystream output that is not valid UTF-8.
func FuzzVMMatchesInterp(f *testing.F) {
	for _, src := range diffCorpus {
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
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip()
		}
		newFuzzPair().runBoth(t, src)
	})
}

// newFuzzPair is FuzzVMMatchesInterp's engine pair. Tight budgets keep
// hostile loops fast and make limit accounting part of the
// differential surface. The hosts also hold a small notebook server's
// files — notebooks/, data/ and models/, the directories the attack
// payloads in the seed corpus sweep — so those seeds run their loops
// and host calls instead of stopping at an empty listing.
func newFuzzPair() *enginePair {
	p := newEnginePair(Limits{
		MaxSteps:       20_000,
		MaxOutputBytes: 4096,
		MaxValueBytes:  1 << 16,
		MaxSpinMillis:  50,
	})
	for _, h := range []*memHost{p.mi, p.mv} {
		for i := 0; i < 4; i++ {
			h.files[fmt.Sprintf("notebooks/exp_%c.ipynb", 'a'+i)] = fmt.Sprintf(`{"cells":[],"n":%d}`, i)
		}
		h.files["data/train.csv"] = "f1,f2,label\n0.1,0.2,1\n"
		h.files["models/weights.bin"] = "Wq7Wq7Wq7Wq7Wq7Wq7Wq7Wq7"
	}
	return p
}

// TestAttackSeedsRunPastFirstHostCall holds the attack payloads in
// FuzzVMMatchesInterp's seed corpus (testdata/fuzz/FuzzVMMatchesInterp/
// attack-*, written by internal/attacks' TestAttackPayloadFuzzSeeds) to
// their purpose: on the harness's hosts and under its limits each one
// runs to completion, makes more than one host call, and reads data or
// burns CPU — a payload that found no file to sweep would do neither.
func TestAttackSeedsRunPastFirstHostCall(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzVMMatchesInterp", "attack-*"))
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
		p := newFuzzPair()
		if _, err := p.runBoth(t, src); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		c := p.vm.Counters()
		if len(p.hv.calls) < 2 || c.BytesRead == 0 && c.CPUMillis == 0 {
			t.Fatalf("%s: stopped at its first host call: calls %v, counters %+v", path, p.hv.calls, c)
		}
	}
}
