// Ablation benchmarks for the design choices DESIGN.md calls out:
// signature vs anomaly detection coverage, the cost of message
// signing, and the overhead of embedded kernel auditing (the paper's
// proposed tracing tool, measured against its own worry about
// "unsustainable performance overhead").
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/jmsg"
	"repro/internal/kernel"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// BenchmarkAblationDetectorSuites measures ransomware detection
// latency (files encrypted before first alert) under three detector
// configurations. Signatures catch the payload at the source (0 files
// lost) but require code visibility; anomaly detection needs no code
// but pays in damage done before the statistical evidence accumulates.
func BenchmarkAblationDetectorSuites(b *testing.B) {
	mkTrace := func() *workload.Trace {
		g := workload.NewGenerator(1, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
		tr := &workload.Trace{}
		g.InjectRansomware(tr, "mallory", 100)
		return tr
	}
	measure := func(b *testing.B, opts core.Options) {
		tr := mkTrace()
		var filesBefore int
		for i := 0; i < b.N; i++ {
			eng, err := core.NewEngine(opts)
			if err != nil {
				b.Fatal(err)
			}
			writes := 0
			filesBefore = -1
		scan:
			for _, e := range tr.Events {
				if e.Kind == trace.KindFileOp && e.Op == "write" {
					writes++
				}
				for _, a := range eng.Process(e) {
					if a.Class == "ransomware" {
						filesBefore = writes
						break scan
					}
				}
			}
			if filesBefore < 0 {
				b.Fatal("ransomware missed entirely")
			}
		}
		b.ReportMetric(float64(filesBefore), "files-encrypted-before-alert")
	}
	b.Run("signatures-only", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.Detectors = nil
		measure(b, opts)
	})
	b.Run("anomaly-only", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.Rules = nil
		opts.Detectors = anomaly.SuiteFactories()
		measure(b, opts)
	})
	b.Run("both", func(b *testing.B) {
		measure(b, core.DefaultOptions())
	})
}

// BenchmarkAblationSigning compares message marshaling with HMAC
// signing enabled vs disabled — the integrity cost per kernel message
// that a "no connection key" misconfiguration trades away.
func BenchmarkAblationSigning(b *testing.B) {
	msg, err := jmsg.New(jmsg.TypeExecuteRequest, "m1", "sess", "alice",
		time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
		jmsg.ExecuteRequest{Code: `data = read_file("data/train.csv")`})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("signed", func(b *testing.B) {
		s := jmsg.NewSigner([]byte("connection-key-0123456789abcdef"))
		for i := 0; i < b.N; i++ {
			if _, err := msg.Marshal(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsigned", func(b *testing.B) {
		s := jmsg.NewSigner(nil)
		for i := 0; i < b.N; i++ {
			if _, err := msg.Marshal(s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKernelAudit measures the embedded kernel auditing
// tool's overhead on a file-heavy cell — the direct answer to whether
// the paper's proposed in-kernel tracing is affordable.
func BenchmarkAblationKernelAudit(b *testing.B) {
	const cell = `files = list_files("data")
total = 0
for f in files
    total = total + len(read_file(f))
end
write_file("out/summary.txt", str(total))`

	seed := func(fs *vfs.FS) {
		for _, name := range []string{"data/a.csv", "data/b.csv", "data/c.csv"} {
			if err := fs.Write(name, "setup", []byte("col1,col2\n1,2\n3,4\n")); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("no-audit", func(b *testing.B) {
		fs := vfs.New()
		seed(fs)
		mgr := kernel.NewManager(kernel.Config{FS: fs})
		k := mgr.Start("", "bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := k.Execute(cell, nil); err != nil || res.Status != "ok" {
				b.Fatalf("%+v %v", res, err)
			}
		}
	})
	b.Run("audited", func(b *testing.B) {
		fs := vfs.New()
		seed(fs)
		log := audit.NewLog(nil)
		tracer := audit.NewTracer(log)
		mgr := kernel.NewManager(kernel.Config{
			FS:          fs,
			HostWrapper: tracer.WrapHost,
			ExecHook: func(id, user, code string) {
				tracer.RecordExec(id, user, code)
			},
		})
		k := mgr.Start("", "bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := k.Execute(cell, nil); err != nil || res.Status != "ok" {
				b.Fatalf("%+v %v", res, err)
			}
		}
		b.StopTimer()
		if log.Len() == 0 {
			b.Fatal("audit log empty")
		}
	})
}

// BenchmarkAblationEngineScaling measures detection throughput as the
// rule count grows — the scalability axis behind the paper's "network
// traffic will keep increasing" worry.
func BenchmarkAblationEngineScaling(b *testing.B) {
	tr := workload.StandardMix(13, 1000)
	for _, extra := range []int{0, 50, 200} {
		name := map[int]string{0: "rules=builtin", 50: "rules=builtin+50", 200: "rules=builtin+200"}[extra]
		b.Run(name, func(b *testing.B) {
			eng := core.MustEngine()
			for i := 0; i < extra; i++ {
				if err := eng.AddRule(ruleN(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				eng.Process(tr.Events[n%len(tr.Events)])
				n++
			}
		})
	}
}

// ruleN builds a synthetic non-matching signature (models a large
// threat-intel feed).
func ruleN(i int) *rules.Rule {
	return &rules.Rule{
		ID:          fmt.Sprintf("INTEL-SYN-%04d", i),
		Description: "synthetic intel signature",
		Class:       "zero_day",
		Severity:    rules.SevHigh,
		Conditions: []rules.Condition{
			{Field: "kind", Equals: "exec"},
			{Field: "code", Contains: fmt.Sprintf("payload-that-never-appears-%04d", i)},
		},
	}
}
