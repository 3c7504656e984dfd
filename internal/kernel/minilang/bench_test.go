package minilang

import (
	"testing"
	"time"
)

// Engine benchmarks: the bytecode VM against the tree-walking
// interpreter it is differentially tested against. They live here
// because the interpreter exists only in this package's tests.
//
//	go test -run '^$' -bench 'BenchmarkMinilang|BenchmarkAuditCell' -benchtime=2000x -benchmem ./internal/kernel/minilang

func BenchmarkMinilangInterp(b *testing.B) {
	host := benchHost{}
	in := NewInterp(host, Limits{})
	src := `total = 0
for i in range(100)
    total = total + i
end`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Run(src); err != nil {
			b.Fatal(err)
		}
		in.TakeStdout()
	}
}

// minilangEngineCases are the tree-vs-VM comparison workloads. fib-iter
// and tight-loop are the paper-table cases the bench gate pins a ≥5x
// VM speedup on: pure numeric loops where slot-resolved variables,
// unboxed numbers, constant folding, and fused compare-branch
// superinstructions all pay off. basic-ops and builtin-calls bound the
// other end: work dominated by host/builtin dispatch, where both
// engines share the same runtime substrate.
var minilangEngineCases = []struct {
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

// BenchmarkMinilangEngines runs each workload on both engines. The vm
// sub-benchmarks additionally report a "speedup" metric (tree ns/op ÷
// vm ns/op, measured in the same process) so the ≥5x claim on
// fib-iter and tight-loop is one number from one run rather than a
// cross-run subtraction.
func BenchmarkMinilangEngines(b *testing.B) {
	limits := Limits{MaxSteps: 1_000_000}
	for _, tc := range minilangEngineCases {
		prog, err := Parse(tc.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/tree", func(b *testing.B) {
			in := NewInterp(benchHost{}, limits)
			if err := in.RunProgram(prog); err != nil { // warm up
				b.Fatal(err)
			}
			in.TakeStdout()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.RunProgram(prog); err != nil {
					b.Fatal(err)
				}
				in.TakeStdout()
			}
		})
		b.Run(tc.name+"/vm", func(b *testing.B) {
			vm := NewVM(benchHost{}, limits)
			if err := vm.RunProgram(prog); err != nil { // warm up: compile the chunk
				b.Fatal(err)
			}
			vm.TakeStdout()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := vm.RunProgram(prog); err != nil {
					b.Fatal(err)
				}
				vm.TakeStdout()
			}
			vmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.StopTimer()
			// Reference the tree-walker on the same program, same
			// process, so the ratio is insensitive to machine speed.
			in := NewInterp(benchHost{}, limits)
			const probe = 2000
			start := time.Now()
			for i := 0; i < probe; i++ {
				if err := in.RunProgram(prog); err != nil {
					b.Fatal(err)
				}
				in.TakeStdout()
			}
			treeNs := float64(time.Since(start).Nanoseconds()) / probe
			if vmNs > 0 {
				b.ReportMetric(treeNs/vmNs, "speedup")
			}
		})
	}

	// host-cell is the one-shot case that used to favor the tree
	// engine: a cell dominated by host dispatch, executed once per
	// request (the fleet-census shape — one probe notebook replayed
	// against many servers). Pre-cache, every execution paid
	// Run(src) = parse + (vm only) compile, so the VM's front-end
	// overhead bought nothing — the oneshot variants pin that
	// penalty. With the manager program cache, the steady-state
	// per-execution cost is RunProgram on a shared parsed program
	// through the kernel's persistent engine (parse skipped by the
	// cache, bytecode compile skipped by the VM's per-program chunk
	// memo) — the "cached" variants — and the VM no longer trails the
	// tree-walker on its worst-case workload. vm/cached reports the
	// ratio against a same-process tree cached probe so the claim is
	// one number from one run.
	const hostCell = `d = read_file("/var/log/auth.log")
n = len(d)
s1 = http_post("http://collector.internal/ingest", d)
s2 = http_post("http://collector.internal/ack", "probe")
o = shell("id")
r = str(n) + ":" + str(s1) + ":" + str(s2) + ":" + o`
	hostProg, err := Parse(hostCell)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("host-cell/tree/oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := NewInterp(benchHost{}, limits)
			if err := in.Run(hostCell); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-cell/vm/oneshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vm := NewVM(benchHost{}, limits)
			if err := vm.Run(hostCell); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-cell/tree/cached", func(b *testing.B) {
		in := NewInterp(benchHost{}, limits)
		if err := in.RunProgram(hostProg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := in.RunProgram(hostProg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("host-cell/vm/cached", func(b *testing.B) {
		vm := NewVM(benchHost{}, limits)
		if err := vm.RunProgram(hostProg); err != nil { // warm: compile the chunk once
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := vm.RunProgram(hostProg); err != nil {
				b.Fatal(err)
			}
		}
		vmNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.StopTimer()
		const probe = 2000
		in := NewInterp(benchHost{}, limits)
		start := time.Now()
		for i := 0; i < probe; i++ {
			if err := in.RunProgram(hostProg); err != nil {
				b.Fatal(err)
			}
		}
		treeNs := float64(time.Since(start).Nanoseconds()) / probe
		if vmNs > 0 {
			b.ReportMetric(treeNs/vmNs, "vs-tree-cached")
		}
	})
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

// BenchmarkAuditCell runs the file-heavy cell of the root package's
// BenchmarkAblationKernelAudit on both engines, without a kernel or
// the audit tracer: the interpreter's cost for the cell whose audit
// overhead that ablation measures on the VM.
func BenchmarkAuditCell(b *testing.B) {
	const cell = `files = list_files("data")
total = 0
for f in files
    total = total + len(read_file(f))
end
write_file("out/summary.txt", str(total))`
	prog, err := Parse(cell)
	if err != nil {
		b.Fatal(err)
	}
	host := newMemHost()
	for _, name := range []string{"data/a.csv", "data/b.csv", "data/c.csv"} {
		host.files[name] = "col1,col2\n1,2\n3,4\n"
	}
	for _, eng := range []struct {
		name string
		run  func(*Program) error
	}{
		{"tree", NewInterp(host, Limits{}).RunProgram},
		{"vm", NewVM(host, Limits{}).RunProgram},
	} {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := eng.run(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
