package minilang

import "testing"

// minilangCases are straight-line arithmetic, builtin dispatch and two
// numeric loops of the kind attack payloads run.
var minilangCases = []struct {
	name string
	src  string
}{
	{"basic-ops", `a = 3
b = 4
c = a * a + b * b
d = c > 24 and c < 26
s = "py" + "thia"
t = s + str(c)`},
	{"builtin-calls", `parts = split("a,b,c,d,e,f,g,h", ",")
s = join(parts, "-")
u = upper(s)
n = len(u) + len(parts)
h = sha256(u)`},
	{"fib-iter", `a = 0
b = 1
k = 0
while k < 60
t = a + b
a = b
b = t
k = k + 1
end`},
	{"tight-loop", `s = 0
i = 0
while i < 200
s = s + i * (3 * 7 + 2)
i = i + 1
end`},
}

// BenchmarkMinilang times the interpreter on minilangCases, each a
// parsed program re-run on one interpreter, and on a host-call-heavy
// cell two ways: one-shot (parse and run on a fresh interpreter, as a
// kernel runs a program-cache miss) and cached (a parsed program
// re-run, as a kernel runs a hit).
//
//	go test -run '^$' -bench BenchmarkMinilang -benchtime=2000x -benchmem ./internal/kernel/minilang
func BenchmarkMinilang(b *testing.B) {
	for _, tc := range minilangCases {
		b.Run(tc.name, func(b *testing.B) {
			benchRunProgram(b, tc.src)
		})
	}
	const hostCell = `d = read_file("/var/log/auth.log")
n = len(d)
s1 = http_post("http://collector.internal/ingest", d)
s2 = http_post("http://collector.internal/ack", "probe")
o = shell("id")
r = str(n) + ":" + str(s1) + ":" + str(s2) + ":" + o`
	b.Run("host-cell/oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := NewInterp(benchHost{}, Limits{}).Run(hostCell); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-cell/cached", func(b *testing.B) {
		benchRunProgram(b, hostCell)
	})
}

// benchRunProgram times RunProgram of src's parsed program on one
// interpreter.
func benchRunProgram(b *testing.B, src string) {
	prog, err := Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	in := NewInterp(benchHost{}, Limits{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
		in.TakeStdout()
	}
}

// benchHost is a no-op minilang host for interpreter micro-benchmarks.
type benchHost struct{}

func (benchHost) ReadFile(string) ([]byte, error)    { return nil, nil }
func (benchHost) WriteFile(string, []byte) error     { return nil }
func (benchHost) DeleteFile(string) error            { return nil }
func (benchHost) RenameFile(string, string) error    { return nil }
func (benchHost) ListFiles(string) ([]string, error) { return nil, nil }
func (benchHost) HTTPRequest(string, string, []byte) (int, []byte, error) {
	return 200, nil, nil
}
func (benchHost) Shell(string) (string, error) { return "", nil }
func (benchHost) Spin(int64)                   {}
func (benchHost) Hostname() string             { return "bench" }
func (benchHost) Env(string) string            { return "" }
