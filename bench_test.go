// Benchmark harness: each benchmark regenerates the measurement
// backing a figure, table, or quantitative prose claim of the paper or
// of DESIGN.md (the "Benchmarks" and "Performance budget" sections);
// run with
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/audit"
	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cryptoaudit"
	"repro/internal/evstore"
	"repro/internal/fleet"
	"repro/internal/histstore"
	"repro/internal/ingest"
	"repro/internal/jmsg"
	"repro/internal/kernel/minilang"
	"repro/internal/misconfig"
	"repro/internal/netmon"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/workload"
	"repro/internal/wsproto"
)

// bootServer starts a hardened server, optionally behind the wire
// monitor and/or with the detection engine subscribed.
func bootServer(b *testing.B, withMonitor, withEngine bool) (*client.Client, func()) {
	b.Helper()
	cfg := server.HardenedConfig("bench-token")
	srv := server.NewServer(cfg)
	if withEngine {
		srv.Bus().Subscribe(core.MustEngine())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	if withMonitor {
		mon := netmon.NewMonitor(netmon.FullVisibility(), nil)
		if withEngine {
			mon.Bus().Subscribe(core.MustEngine())
		}
		ln = mon.WrapListener(ln)
	}
	addr, err := srv.Serve(ln)
	if err != nil {
		b.Fatal(err)
	}
	return client.New(addr, "bench-token"), func() { srv.Close() }
}

// ---- E2 / Fig. 2: kernel execute round trip ----

func BenchmarkExecuteRoundTrip(b *testing.B) {
	c, done := bootServer(b, false, false)
	defer done()
	k, err := c.StartKernel("minilang")
	if err != nil {
		b.Fatal(err)
	}
	kc, err := c.ConnectKernel(k.ID, "bench")
	if err != nil {
		b.Fatal(err)
	}
	defer kc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := kc.Execute(`x = 6 * 7`)
		if err != nil || res.Status != "ok" {
			b.Fatalf("exec: %v %+v", err, res)
		}
	}
}

// ---- E4: ransomware detection throughput and latency ----

func BenchmarkRansomwareDetection(b *testing.B) {
	for _, files := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("files=%d", files), func(b *testing.B) {
			g := workload.NewGenerator(1, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
			tr := &workload.Trace{}
			g.InjectRansomware(tr, "mallory", files)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.MustEngine()
				detected := false
				for _, e := range tr.Events {
					for _, a := range eng.Process(e) {
						if a.Class == "ransomware" {
							detected = true
						}
					}
				}
				if !detected {
					b.Fatal("ransomware missed")
				}
			}
			b.ReportMetric(float64(len(tr.Events)), "events/incident")
		})
	}
}

// BenchmarkRansomwareDetectionLatency reports how many files the
// sweep encrypts before the first alert — the paper's "early
// detection" motivation quantified.
func BenchmarkRansomwareDetectionLatency(b *testing.B) {
	g := workload.NewGenerator(1, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	tr := &workload.Trace{}
	g.InjectRansomware(tr, "mallory", 100)
	var filesBeforeAlert int
	for i := 0; i < b.N; i++ {
		eng := core.MustEngine()
		filesBeforeAlert = 0
		writes := 0
	scan:
		for _, e := range tr.Events {
			if e.Kind == trace.KindFileOp && e.Op == "write" {
				writes++
			}
			for _, a := range eng.Process(e) {
				if a.Class == "ransomware" {
					filesBeforeAlert = writes
					break scan
				}
			}
		}
	}
	b.ReportMetric(float64(filesBeforeAlert), "files-encrypted-before-alert")
}

// ---- E5: exfiltration detection vs chunking ----

func BenchmarkExfilDetection(b *testing.B) {
	for _, chunks := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			g := workload.NewGenerator(1, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
			tr := &workload.Trace{}
			g.InjectExfil(tr, "mallory", 16<<20, chunks)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.MustEngine()
				detected := false
				for _, e := range tr.Events {
					for _, a := range eng.Process(e) {
						if a.Class == "data_exfiltration" {
							detected = true
						}
					}
				}
				if !detected {
					b.Fatal("exfil missed")
				}
			}
		})
	}
}

// ---- E6: miner detection vs duty cycle ----

func BenchmarkMinerDetection(b *testing.B) {
	for _, duty := range []struct {
		name       string
		burn, idle time.Duration
	}{
		{"duty=90pct", 54 * time.Second, 6 * time.Second},
		{"duty=70pct", 42 * time.Second, 18 * time.Second},
	} {
		b.Run(duty.name, func(b *testing.B) {
			g := workload.NewGenerator(1, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
			tr := &workload.Trace{}
			g.InjectMiner(tr, "mallory", 8, duty.burn, duty.idle)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.MustEngine()
				detected := false
				for _, e := range tr.Events {
					for _, a := range eng.Process(e) {
						if a.Class == "cryptomining" {
							detected = true
						}
					}
				}
				if !detected {
					b.Fatal("miner missed")
				}
			}
		})
	}
}

// ---- E7: misconfiguration scan ----

func BenchmarkMisconfigScan(b *testing.B) {
	cfg := server.SloppyConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		findings := misconfig.Scan(cfg)
		if len(findings) < 10 {
			b.Fatal("findings missing")
		}
	}
}

// ---- E7b: fleet census throughput ----
//
// The paper's methodology is a wide scan over many servers; this
// measures how fast the concurrent sweep covers a fleet at several
// worker-pool sizes — the scaling knob for internet-scale coverage.

func BenchmarkFleetScan(b *testing.B) {
	const fleetSize = 32
	fl, err := fleet.Spawn(fleet.Generate(1, fleetSize))
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()
	targets := fl.Targets()
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Scan(context.Background(), targets, fleet.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Scanned != fleetSize {
					b.Fatalf("scanned %d/%d", rep.Scanned, fleetSize)
				}
			}
			b.ReportMetric(float64(fleetSize)*float64(b.N)/b.Elapsed().Seconds(), "targets/sec")
		})
	}
}

// BenchmarkFleetDeepScan measures the multi-suite sweep: every target
// gets the full posture audit, live probe, notebook deep scan, crypto
// inventory, and threat-intel enrichment. Throughput must scale with
// the worker pool — the knob that takes the paper's census from one
// server to internet scale.
func BenchmarkFleetDeepScan(b *testing.B) {
	const fleetSize = 32
	fl, err := fleet.Spawn(fleet.Generate(1, fleetSize))
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()
	targets := fl.Targets()
	suites := []string{"misconfig", "nbscan", "crypto", "intel"}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := fleet.Scan(context.Background(), targets, fleet.Options{
					Workers: workers, Suites: suites,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Scanned != fleetSize {
					b.Fatalf("scanned %d/%d", rep.Scanned, fleetSize)
				}
				if rep.BySuite["nbscan"] == 0 || rep.BySuite["crypto"] == 0 {
					b.Fatal("deep-scan suites produced no findings")
				}
			}
			b.ReportMetric(float64(fleetSize)*float64(b.N)/b.Elapsed().Seconds(), "targets/sec")
		})
	}
}

// ---- E8: brute-force detection ----

func BenchmarkBruteForceDetection(b *testing.B) {
	g := workload.NewGenerator(1, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	tr := &workload.Trace{}
	g.InjectBruteForce(tr, "203.0.113.66", 12, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.MustEngine()
		detected := false
		for _, e := range tr.Events {
			for _, a := range eng.Process(e) {
				if a.Class == "account_takeover" {
					detected = true
				}
			}
		}
		if !detected {
			b.Fatal("brute force missed")
		}
	}
}

// ---- E9: monitoring overhead (the scalability claim) ----
//
// Three configurations over the same live request load: no monitoring,
// host-bus detection engine, and full wire tap + engine. The deltas
// are the overhead the paper worries about.

func BenchmarkMonitorOverhead(b *testing.B) {
	run := func(b *testing.B, withMonitor, withEngine bool) {
		c, done := bootServer(b, withMonitor, withEngine)
		defer done()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Status(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false, false) })
	b.Run("host-engine", func(b *testing.B) { run(b, false, true) })
	b.Run("wiretap+engine", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkEnginePipeline measures raw detection throughput
// (events/sec) — the headroom against growing traffic.
func BenchmarkEnginePipeline(b *testing.B) {
	tr := workload.StandardMix(11, 2000)
	eng := core.MustEngine()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		eng.Process(tr.Events[n%len(tr.Events)])
		n++
	}
}

// ---- E9b: sharded engine multi-core scaling ----

// BenchmarkEngineParallel contrasts the serial (one-goroutine,
// global-order) signature engine against concurrent processing on the
// sharded engine over the same mixed-trace workload. On 4+ cores the
// parallel variant should sustain ≥2x the serial throughput: the
// stateless match path is lock-free and correlation state is sharded
// per group, so goroutines only contend when two actors hash to one
// shard.
func BenchmarkEngineParallel(b *testing.B) {
	tr := workload.StandardMix(11, 2000)
	events := tr.Events
	b.Run("serial", func(b *testing.B) {
		eng, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Process(events[i%len(events)])
		}
	})
	b.Run("parallel", func(b *testing.B) {
		eng, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			b.Fatal(err)
		}
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1)
				eng.Process(events[int(i)%len(events)])
			}
		})
	})
	// Batched replay across actor shards — the jsentinel --workers
	// path, which also preserves per-group determinism.
	b.Run("replay-sharded", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := rules.NewEngine(rules.BuiltinRules())
			if err != nil {
				b.Fatal(err)
			}
			workload.Replay(events, 4, 256, func(batch []trace.Event) {
				eng.ProcessBatch(batch)
			})
		}
		b.ReportMetric(float64(len(events)), "events/op")
	})
}

// ---- E9c: sharded core engine multi-core scaling ----

// BenchmarkCoreParallel is BenchmarkEngineParallel for the full brain:
// signatures + per-shard anomaly detectors + incident correlation +
// OSCRP scoring. The serial variant is the single-goroutine baseline
// (what the old single-mutex engine could do at best); parallel and
// replay-sharded exercise the actor-sharded paths that PRs 2 and 4
// hand N workers. On 4+ cores the sharded core must beat the serial
// baseline — the number DESIGN.md quotes.
func BenchmarkCoreParallel(b *testing.B) {
	tr := workload.StandardMix(11, 2000)
	events := tr.Events
	b.Run("serial", func(b *testing.B) {
		eng := core.MustEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.Process(events[i%len(events)])
		}
	})
	// Approximation of the pre-refactor architecture: every Process
	// call serialized behind one engine-wide mutex (a 1-shard engine,
	// so per-shard locking adds no extra lock beyond the old detector
	// mutexes; the external mutex plays the old engine mutex). Kept as
	// a live baseline so the sharded win is re-measured on every CI
	// run instead of quoted from a one-off. The approximation pays a
	// couple of uncontended lock acquisitions the old engine did not,
	// so read small deltas with that in mind.
	b.Run("parallel-globalmutex", func(b *testing.B) {
		opts := core.DefaultOptions()
		opts.Shards = 1
		eng, err := core.NewEngine(opts)
		if err != nil {
			b.Fatal(err)
		}
		var mu sync.Mutex
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1)
				mu.Lock()
				eng.Process(events[int(i)%len(events)])
				mu.Unlock()
			}
		})
	})
	b.Run("parallel-sharded", func(b *testing.B) {
		eng := core.MustEngine()
		var next atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1)
				eng.Process(events[int(i)%len(events)])
			}
		})
	})
	// Batched actor-sharded replay — the jsentinel --replay --workers
	// path, which also preserves the alert- and incident-set
	// guarantees of TestShardedCoreMatchesSerial.
	b.Run("replay-sharded", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh engine per iteration is needed for correctness,
			// but its construction (rule compilation, 32 detector
			// sets) must not pollute the replay timing.
			b.StopTimer()
			eng := core.MustEngine()
			b.StartTimer()
			workload.Replay(events, 4, 256, func(batch []trace.Event) {
				eng.ProcessBatch(batch)
			})
		}
		b.ReportMetric(float64(len(events)), "events/op")
	})
	// The shape that shows or hides a per-event write to shared memory:
	// GOMAXPROCS goroutines, each feeding its own actors' events in
	// 256-event batches into one engine. With disjoint actors the
	// shard locks are uncontended, so what is left between the
	// goroutines is whatever every event touches whatever its actor —
	// a counter, a lock word, a rule-set pointer.
	b.Run("batch-shared", func(b *testing.B) {
		big := workload.StandardMix(11, 80000).Events
		parts := workload.Partition(big, runtime.GOMAXPROCS(0))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng := core.MustEngine()
			b.StartTimer()
			var wg sync.WaitGroup
			for _, part := range parts {
				wg.Add(1)
				go func(part []trace.Event) {
					defer wg.Done()
					for len(part) > 0 {
						n := min(256, len(part))
						eng.ProcessBatch(part[:n])
						part = part[n:]
					}
				}(part)
			}
			wg.Wait()
			if got := eng.Stats().Events; got != uint64(len(big)) {
				b.Fatalf("engine counted %d of %d events", got, len(big))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(big)), "ns/event")
	})
}

// BenchmarkFleetCensusWithCore measures the full jscan --fleet path
// after the core wiring: every census finding flows through a bounded
// stage into the core engine, and the census closes with the OSCRP
// incident summary. The engine must not slow the sweep measurably —
// findings are a trickle next to probe I/O — while upgrading its
// output from an alert tally to incidents and risk.
func BenchmarkFleetCensusWithCore(b *testing.B) {
	const fleetSize = 32
	fl, err := fleet.Spawn(fleet.Generate(1, fleetSize))
	if err != nil {
		b.Fatal(err)
	}
	defer fl.Close()
	targets := fl.Targets()
	suites := []string{"misconfig", "nbscan", "crypto", "intel"}
	for _, workers := range []int{4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng := core.MustEngine()
				stage := trace.NewStage(eng, workers, 4096, trace.Block)
				rep, err := fleet.Scan(context.Background(), targets, fleet.Options{
					Workers: workers, Suites: suites, Events: stage,
				})
				if err != nil {
					b.Fatal(err)
				}
				stage.Close()
				if rep.Scanned != fleetSize {
					b.Fatalf("scanned %d/%d", rep.Scanned, fleetSize)
				}
				if st := eng.Stats(); st.Incidents == 0 {
					b.Fatal("census produced no incidents through the core engine")
				}
			}
			b.ReportMetric(float64(fleetSize)*float64(b.N)/b.Elapsed().Seconds(), "targets/sec")
		})
	}
}

// ---- E10: low-and-slow evasion vs detection crossover ----

func BenchmarkLowSlowDetection(b *testing.B) {
	for _, interval := range []time.Duration{5 * time.Second, 30 * time.Second, 120 * time.Second} {
		b.Run(fmt.Sprintf("interval=%s", interval), func(b *testing.B) {
			g := workload.NewGenerator(1, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
			tr := &workload.Trace{}
			g.InjectLowSlow(tr, "198.51.100.9", 30, interval)
			b.ResetTimer()
			caught := 0
			for i := 0; i < b.N; i++ {
				det := anomaly.NewLowSlow(anomaly.DefaultLowSlowConfig())
				for _, e := range tr.Events {
					if len(det.Process(e)) > 0 {
						caught++
						break
					}
				}
			}
			b.ReportMetric(float64(caught)/float64(b.N), "detection-rate")
		})
	}
}

// ---- E11: WebSocket/Jupyter wire parsing throughput ----

func BenchmarkWSParse(b *testing.B) {
	// A realistic execute_request frame as it appears on the wire.
	msg, err := jmsg.New(jmsg.TypeExecuteRequest, "m1", "sess", "alice",
		time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
		jmsg.ExecuteRequest{Code: `data = read_file("data/train.csv")` + "\n" + `print(len(data))`})
	if err != nil {
		b.Fatal(err)
	}
	msg.Channel = jmsg.ChannelShell
	payload, err := msg.MarshalWS()
	if err != nil {
		b.Fatal(err)
	}
	frame := wsproto.EncodeFrame(true, wsproto.OpText, payload, []byte{1, 2, 3, 4})
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := wsproto.NewFrameReader(newRepeatReader(frame, 1), 0)
		f, err := fr.ReadFrame()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := jmsg.UnmarshalWS(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E13: message signing cost, classical and post-quantum ----

func BenchmarkHMACSigning(b *testing.B) {
	signer := jmsg.NewSigner([]byte("bench-connection-key-0123456789"))
	msg, _ := jmsg.New(jmsg.TypeExecuteRequest, "m1", "sess", "alice",
		time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
		jmsg.ExecuteRequest{Code: "print(1)"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msg.Marshal(signer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHMACVerify(b *testing.B) {
	signer := jmsg.NewSigner([]byte("bench-connection-key-0123456789"))
	msg, _ := jmsg.New(jmsg.TypeExecuteRequest, "m1", "sess", "alice",
		time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC),
		jmsg.ExecuteRequest{Code: "print(1)"})
	wire, _ := msg.Marshal(signer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jmsg.Unmarshal(wire, signer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLamportKeyGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cryptoaudit.GenerateKey(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLamportSign(b *testing.B) {
	msg := []byte("audit head 0123456789abcdef")
	template, err := cryptoaudit.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Keys are one-time; a struct copy of the unused template is a
		// cheap fresh key (the ~48 KB copy is included and small next
		// to the hashing itself).
		k := *template
		if _, err := k.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLamportVerify(b *testing.B) {
	msg := []byte("audit head 0123456789abcdef")
	key, err := cryptoaudit.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	sig, err := key.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	pub := key.Public()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pub.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

// ---- E14: mixed-trace detection ----

func BenchmarkMixedTraceDetection(b *testing.B) {
	tr := workload.StandardMix(7, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := core.MustEngine()
		for _, e := range tr.Events {
			eng.Process(e)
		}
		if eng.Stats().Incidents == 0 {
			b.Fatal("no incidents")
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

// ---- E15: audit log append + verify ----

func BenchmarkAuditAppend(b *testing.B) {
	log := audit.NewLog(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Append("k1", "alice", "write", "data/file.csv", "", 4096, true)
	}
}

func BenchmarkAuditVerify(b *testing.B) {
	log := audit.NewLog(nil)
	for i := 0; i < 10000; i++ {
		log.Append("k1", "alice", "write", "data/file.csv", "", 4096, true)
	}
	records := log.Records()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if audit.Verify(records) != -1 {
			b.Fatal("chain broken")
		}
	}
	b.ReportMetric(float64(len(records)), "records/verify")
}

// ---- Supporting micro-benchmarks ----

func BenchmarkEntropy(b *testing.B) {
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vfs.Entropy(data)
	}
}

// BenchmarkBuiltinNames pins that the memoized builtin listing is
// allocation-free after the first call (the completion path sorts it
// once, not per keystroke).
func BenchmarkBuiltinNames(b *testing.B) {
	minilang.BuiltinNames() // prime the sync.Once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(minilang.BuiltinNames()) == 0 {
			b.Fatal("no builtins")
		}
	}
}

// repeatReader yields the same byte slice n times.
type repeatReader struct {
	data []byte
	pos  int
	left int
}

func newRepeatReader(data []byte, n int) *repeatReader {
	return &repeatReader{data: data, left: n}
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.left == 0 {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	if r.pos == len(r.data) {
		r.pos = 0
		r.left--
	}
	return n, nil
}

// ---- E16: event-store replay vs flat JSONL ----
//
// The storage-layer claim: a filtered, segment-parallel store replay
// beats loading a whole JSONL trace into memory and replaying it,
// because segments decode concurrently, the sidecar index skips
// segments that cannot match, and the engine only sees matching
// events. The mixed trace is ~100k events (the paper's "production
// traffic" scale knob); jsonl-full is the pre-store pipeline.
//
// The store is written in the binary-v2 segment codec. The
// pushdown-skip case is the codec's headline: a benign-user actor
// filter that appears in every segment, defeating sidecar pruning, so
// only the frame headers let replay discard non-matching bodies
// undecoded.
func BenchmarkStoreReplay(b *testing.B) {
	tr := workload.StandardMix(11, 75000)
	dir := b.TempDir()

	jsonlPath := filepath.Join(dir, "trace.jsonl")
	jf, err := os.Create(jsonlPath)
	if err != nil {
		b.Fatal(err)
	}
	jw := trace.NewJSONLWriter(jf)
	for _, e := range tr.Events {
		jw.Emit(e)
	}
	if err := jw.Flush(); err != nil {
		b.Fatal(err)
	}
	jf.Close()

	storeDir := filepath.Join(dir, "store-v2")
	st, err := evstore.Open(storeDir, evstore.Options{SegmentBytes: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendBatch(tr.Events); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	store, err := evstore.OpenRead(storeDir)
	if err != nil {
		b.Fatal(err)
	}
	// The "binary-v2" suffix keeps the names the bench artifacts of
	// builds with a second segment codec recorded these cases under.
	const codec = "binary-v2"

	newEng := func() *rules.Engine {
		eng, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}
	const workers, batch = 8, 256

	b.Run("jsonl-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f, err := os.Open(jsonlPath)
			if err != nil {
				b.Fatal(err)
			}
			events, err := trace.ReadJSONL(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			eng := newEng()
			workload.Replay(events, workers, batch, func(bt []trace.Event) {
				eng.ProcessBatch(bt)
			})
			if eng.Evaluated() != uint64(len(tr.Events)) {
				b.Fatalf("evaluated %d of %d", eng.Evaluated(), len(tr.Events))
			}
		}
		b.ReportMetric(float64(len(tr.Events)), "events/op")
	})

	b.Run("store-full/"+codec, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := newEng()
			stats, err := store.Replay(evstore.Filter{}, workers, batch, func(bt []trace.Event) {
				eng.ProcessBatch(bt)
			})
			if err != nil {
				b.Fatal(err)
			}
			if stats.Events != int64(len(tr.Events)) {
				b.Fatalf("replayed %d of %d", stats.Events, len(tr.Events))
			}
		}
		b.ReportMetric(float64(len(tr.Events)), "events/op")
	})

	b.Run("store-filter-kind/"+codec, func(b *testing.B) {
		var matched int64
		for i := 0; i < b.N; i++ {
			eng := newEng()
			stats, err := store.Replay(evstore.Filter{
				Kinds: []trace.Kind{trace.KindAuth},
			}, workers, batch, func(bt []trace.Event) {
				eng.ProcessBatch(bt)
			})
			if err != nil {
				b.Fatal(err)
			}
			matched = stats.Events
			if matched == 0 {
				b.Fatal("kind filter matched nothing")
			}
		}
		b.ReportMetric(float64(matched), "events/op")
	})

	// The brute-force source address appears in one injection
	// window: the actor index prunes nearly every segment, so this
	// is the needle-in-haystack query the sidecar exists for.
	b.Run("store-filter-actor/"+codec, func(b *testing.B) {
		var selected int
		for i := 0; i < b.N; i++ {
			eng := newEng()
			stats, err := store.Replay(evstore.Filter{
				Actor: "203.0.113.66",
			}, workers, batch, func(bt []trace.Event) {
				eng.ProcessBatch(bt)
			})
			if err != nil {
				b.Fatal(err)
			}
			if stats.Events == 0 {
				b.Fatal("actor filter matched nothing")
			}
			if len(eng.Alerts()) == 0 {
				b.Fatal("brute-force campaign not re-detected from filtered replay")
			}
			selected = stats.SegmentsSelected
		}
		b.ReportMetric(float64(selected), "segments-read/op")
	})

	// A benign user active from first segment to last: the sidecar
	// selects everything, so the entire win must come from skipping
	// frame-body decodes — most of the store.
	b.Run("store-pushdown-skip/"+codec, func(b *testing.B) {
		var skipped int64
		for i := 0; i < b.N; i++ {
			eng := newEng()
			stats, err := store.Replay(evstore.Filter{
				Actor: "alice",
			}, workers, batch, func(bt []trace.Event) {
				eng.ProcessBatch(bt)
			})
			if err != nil {
				b.Fatal(err)
			}
			if stats.Events == 0 {
				b.Fatal("benign-actor filter matched nothing")
			}
			skipped = stats.Skipped
		}
		b.ReportMetric(float64(skipped), "frames-skipped/op")
	})
}

// BenchmarkIncidentQuery pins the history layer's perf contract: a
// filtered incident query over the recorded history must answer the
// same question as replay-based re-detection — byte-identical rendered
// table — at ≥50x less cost on the ~100k-event production-scale trace.
// The "indexed" case reports a "speedup" metric (re-detection ns/op ÷
// query ns/op, probed in the same process) so the claim is a pinned
// number in the published bench JSON, not a cross-run subtraction. The
// equality check runs inside both loops: a fast path that answers a
// different question would be a regression, not a win.
func BenchmarkIncidentQuery(b *testing.B) {
	tr := workload.StandardMix(11, 75000)
	dir := b.TempDir()
	const workers, batch = 8, 256

	// The events store — what re-detection has to chew through.
	storeDir := filepath.Join(dir, "events")
	st, err := evstore.Open(storeDir, evstore.Options{SegmentBytes: 2 << 20})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.AppendBatch(tr.Events); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	store, err := evstore.OpenRead(storeDir)
	if err != nil {
		b.Fatal(err)
	}

	// The history — recorded once by the detection pass, exactly as
	// the CLIs record it, then opened read-only like `jsentinel query`.
	histDir := filepath.Join(dir, "history")
	hs, err := histstore.OpenWith(histDir, histstore.OpenReplace, histstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	hrec := histstore.NewRecorder(hs)
	engOpts := core.DefaultOptions()
	engOpts.OnAlert = hrec.OnAlert
	engOpts.OnIncidentUpdate = hrec.OnIncidentUpdate
	eng, err := core.NewEngine(engOpts)
	if err != nil {
		b.Fatal(err)
	}
	workload.Replay(tr.Events, workers, batch, func(bt []trace.Event) {
		eng.ProcessBatch(bt)
	})
	if err := hrec.Err(); err != nil {
		b.Fatal(err)
	}
	if err := hs.Close(); err != nil {
		b.Fatal(err)
	}
	reader, err := histstore.OpenRead(histDir)
	if err != nil {
		b.Fatal(err)
	}

	// The operator question: which incidents reached high severity?
	q := histstore.Query{MinSeverity: rules.SevHigh}
	want := core.RenderTopIncidents(histstore.FilterIncidents(eng.Incidents(), q), len(tr.Events))
	if want == "" {
		b.Fatal("no high-severity incidents in the trace — benchmark is vacuous")
	}

	redetect := func() string {
		e2, err := core.NewEngine(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.Replay(evstore.Filter{}, workers, batch, func(bt []trace.Event) {
			e2.ProcessBatch(bt)
		}); err != nil {
			b.Fatal(err)
		}
		return core.RenderTopIncidents(histstore.FilterIncidents(e2.Incidents(), q), len(tr.Events))
	}

	b.Run("redetect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := redetect(); got != want {
				b.Fatalf("re-detection table drifted:\n%s\nvs\n%s", got, want)
			}
		}
		b.ReportMetric(float64(len(tr.Events)), "events/op")
	})

	b.Run("indexed", func(b *testing.B) {
		var scanned int
		for i := 0; i < b.N; i++ {
			incs, qst, err := histstore.QueryIncidents(reader, q)
			if err != nil {
				b.Fatal(err)
			}
			if got := core.RenderTopIncidents(incs, len(tr.Events)); got != want {
				b.Fatalf("indexed query table != re-detection table:\n%s\nvs\n%s", got, want)
			}
			scanned = qst.Records
		}
		queryNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.StopTimer()
		// Probe re-detection in the same process so the ratio is
		// insensitive to machine speed — this is the ≥50x contract.
		const probe = 3
		start := time.Now()
		for i := 0; i < probe; i++ {
			redetect()
		}
		redetectNs := float64(time.Since(start).Nanoseconds()) / probe
		if queryNs > 0 {
			b.ReportMetric(redetectNs/queryNs, "speedup")
		}
		b.ReportMetric(float64(scanned), "records/op")
	})
}

// BenchmarkStoreAppend is the encode-path companion: the same trace
// appended through Store.AppendBatch, reporting the on-disk footprint
// alongside the encode cost.
func BenchmarkStoreAppend(b *testing.B) {
	tr := workload.StandardMix(11, 25000)
	b.Run("binary-v2", func(b *testing.B) {
		var storeBytes int64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := filepath.Join(b.TempDir(), "store")
			b.StartTimer()
			st, err := evstore.Open(dir, evstore.Options{SegmentBytes: 2 << 20})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.AppendBatch(tr.Events); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			storeBytes = 0
			for _, seg := range st.Segments() {
				storeBytes += seg.Index.Bytes
			}
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(len(tr.Events)), "events/op")
		b.ReportMetric(float64(storeBytes)/float64(len(tr.Events)), "disk-B/event")
	})
}

// ---- Ingest front-end under sustained multi-tenant load ----

// BenchmarkIngestSustained drives the multi-tenant ingest service
// with 1024 concurrent WebSocket connections across 16 tenants over
// real TCP, then drains and audits the books: for every tenant the
// identity submitted == accepted + dropped + denied must hold to the
// event, with processed == accepted after the drain. Sub-benchmarks
// cover both backpressure policies and the recorded (engine + event
// store) configuration.
func BenchmarkIngestSustained(b *testing.B) {
	const (
		tenantCount = 16
		connCount   = 1024
		batchSize   = 16 // events per WebSocket message
	)

	run := func(b *testing.B, policy trace.DropPolicy, withStore bool) {
		kr := auth.NewKeyring()
		names := make([]string, tenantCount)
		for i := range names {
			names[i] = fmt.Sprintf("tenant-%02d", i)
			if err := kr.AddTenant(names[i], []byte("secret-"+names[i])); err != nil {
				b.Fatal(err)
			}
		}
		eng := core.MustEngine()
		sink := trace.Sink(eng)
		var store *evstore.Store
		if withStore {
			var err error
			store, err = evstore.Open(b.TempDir(), evstore.Options{})
			if err != nil {
				b.Fatal(err)
			}
			sink = trace.Tee(eng, store)
		}
		svc := ingest.New(ingest.Config{
			Keyring:  kr,
			MaxConns: 2 * connCount,
			Queue:    4096,
			Policy:   policy,
		}, sink)
		addr, err := svc.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}

		// One pre-encoded message per connection: batchSize events
		// with a per-connection source address so actors spread over
		// the engine shards.
		conns := make([]*wsproto.Conn, connCount)
		msgs := make([][]byte, connCount)
		for i := range conns {
			name := names[i%tenantCount]
			tok, ok := kr.Mint(name)
			if !ok {
				b.Fatal("mint failed")
			}
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				b.Fatalf("conn %d: %v", i, err)
			}
			hdr := http.Header{}
			hdr.Set("X-Tenant", name)
			hdr.Set("Authorization", "Bearer "+tok)
			conns[i], err = wsproto.Dial(raw, addr, "/ingest/ws", hdr)
			if err != nil {
				b.Fatalf("ws dial %d: %v", i, err)
			}
			var msg []byte
			for j := 0; j < batchSize; j++ {
				msg = append(msg, fmt.Sprintf(
					`{"kind":"http","src_ip":"10.%d.%d.7","method":"GET","path":"/api/contents/%d","status":200,"success":true}`+"\n",
					i/256, i%256, j)...)
			}
			msgs[i] = msg
		}

		// Each connection sends the same share of b.N, rounded up to
		// whole messages, so the submitted count per tenant is exact.
		perConn := (b.N + connCount - 1) / connCount
		msgsPerConn := (perConn + batchSize - 1) / batchSize
		sentPerConn := msgsPerConn * batchSize
		total := uint64(connCount * sentPerConn)
		sentPerTenant := uint64(connCount / tenantCount * sentPerConn)

		b.ResetTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for i := range conns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for m := 0; m < msgsPerConn; m++ {
					if err := conns[i].WriteMessage(wsproto.OpText, msgs[i]); err != nil {
						b.Errorf("conn %d write: %v", i, err)
						return
					}
				}
			}(i)
		}
		wg.Wait()
		// The writes are async from the server's perspective: wait
		// until every submitted event is accounted for before closing.
		deadline := time.Now().Add(60 * time.Second)
		for {
			var seen uint64
			for _, ts := range svc.Stats().Tenants {
				seen += ts.Accepted + ts.Dropped + ts.Denied
			}
			if seen >= total {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("server accounted %d of %d events within 60s", seen, total)
			}
			time.Sleep(time.Millisecond)
		}
		elapsed := time.Since(start)
		b.StopTimer()
		b.ReportMetric(float64(total)/elapsed.Seconds(), "events/sec")

		for i := range conns {
			_ = conns[i].Close(wsproto.CloseNormal, "")
		}
		svc.Drain()

		// The books must balance exactly, tenant by tenant.
		snap := svc.Stats()
		if len(snap.Tenants) != tenantCount {
			b.Fatalf("%d tenants in stats, want %d", len(snap.Tenants), tenantCount)
		}
		var accepted uint64
		for _, ts := range snap.Tenants {
			if got := ts.Accepted + ts.Dropped + ts.Denied; got != sentPerTenant {
				b.Fatalf("tenant %s: accepted %d + dropped %d + denied %d = %d, want %d submitted",
					ts.Tenant, ts.Accepted, ts.Dropped, ts.Denied, got, sentPerTenant)
			}
			if ts.Processed != ts.Accepted {
				b.Fatalf("tenant %s: processed %d != accepted %d after drain",
					ts.Tenant, ts.Processed, ts.Accepted)
			}
			if policy == trace.Block && (ts.Dropped != 0 || ts.Denied != 0) {
				b.Fatalf("tenant %s: lost %d+%d events under Block",
					ts.Tenant, ts.Dropped, ts.Denied)
			}
			accepted += ts.Accepted
		}
		if withStore {
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			ro, err := evstore.OpenRead(store.Dir())
			if err != nil {
				b.Fatal(err)
			}
			if loss := ro.Recovered(); len(loss) != 0 {
				b.Fatalf("tail loss after drain: %+v", loss)
			}
			if got := uint64(ro.Events()); got != accepted {
				b.Fatalf("store recorded %d events, want %d accepted", got, accepted)
			}
		}
	}

	b.Run("block-engine", func(b *testing.B) { run(b, trace.Block, false) })
	b.Run("drop-engine", func(b *testing.B) { run(b, trace.DropNewest, false) })
	b.Run("block-engine-store", func(b *testing.B) { run(b, trace.Block, true) })
}

// BenchmarkJSONDecode is the decode hop of live ingest on its own:
// 64-line JSONL messages of the standard mix (one line in four has an
// escaped code string), one message per op. std is encoding/json on
// every line, which is what Decoder.Next did before it had a parser of
// its own and still does for the lines that parser declines; fast is
// Decoder.Next. fast also reports "speedup" (std ns/op ÷ fast ns/op,
// measured in the same process), and -benchmem shows the allocation
// claim: one per event plus one per escaped string.
func BenchmarkJSONDecode(b *testing.B) {
	const perMessage = 64
	events := workload.StandardMix(11, 3000).Events
	var messages [][]byte
	for lo := 0; lo+perMessage <= len(events); lo += perMessage {
		var msg bytes.Buffer
		for _, e := range events[lo : lo+perMessage] {
			line, err := json.Marshal(e)
			if err != nil {
				b.Fatal(err)
			}
			msg.Write(line)
			msg.WriteByte('\n')
		}
		messages = append(messages, msg.Bytes())
	}
	std := func(msg []byte) {
		for _, line := range bytes.Split(bytes.TrimSuffix(msg, []byte("\n")), []byte("\n")) {
			var e trace.Event
			if err := json.Unmarshal(line, &e); err != nil {
				b.Fatal(err)
			}
		}
	}
	fast := func(msg []byte) {
		d := trace.NewBytesDecoder(msg)
		for n := 0; ; n++ {
			if _, err := d.Next(); err != nil {
				if n != perMessage {
					b.Fatalf("decoded %d of %d events: %v", n, perMessage, err)
				}
				return
			}
		}
	}
	b.Run("std", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			std(messages[i%len(messages)])
		}
	})
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fast(messages[i%len(messages)])
		}
		fastNs := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.StopTimer()
		const probe = 200
		start := time.Now()
		for i := 0; i < probe; i++ {
			std(messages[i%len(messages)])
		}
		stdNs := float64(time.Since(start).Nanoseconds()) / probe
		if fastNs > 0 {
			b.ReportMetric(stdNs/fastNs, "speedup")
		}
	})
}

// emitOnlySink hides a sink's EmitBatch, so a stage in front of it
// hands events over one Emit at a time — the hand-off every sink got
// before trace.BatchSink existed, and still gets when wrapped by a
// type that has no EmitBatch.
type emitOnlySink struct{ inner trace.Sink }

func (s emitOnlySink) Emit(e trace.Event) { s.inner.Emit(e) }

// BenchmarkStageHandoff is the hop between a tenant's connection
// handler and the sinks on its own: one producer, one stage worker,
// Tee(core engine, event store) behind it, 4096 events of the standard
// mix per op (Close included, so every event is through the sinks; op
// k replays the window k spans later, so time never runs backwards for
// the detectors).
// emit hides the Tee's EmitBatch and so pays one Tee walk, one store
// lock and one by-value copy per sink per event; batch is the stage as
// the daemons run it. batch also reports "speedup" (emit ns/op ÷ batch
// ns/op, measured in the same process).
func BenchmarkStageHandoff(b *testing.B) {
	const perOp = 4096
	events := workload.StandardMix(11, 4000).Events
	if len(events) < perOp {
		b.Fatalf("standard mix has %d events, want %d", len(events), perOp)
	}
	events = events[:perOp]
	span := events[perOp-1].Time.Sub(events[0].Time) + time.Hour
	run := func(b *testing.B, batch bool, n int) time.Duration {
		eng, err := core.NewEngine(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		store, err := evstore.Open(b.TempDir(), evstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sink := trace.Tee(eng, store)
		if !batch {
			sink = emitOnlySink{sink}
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			st := trace.NewStage(sink, 1, 0, trace.Block)
			shift := time.Duration(i) * span
			for j := range events {
				e := events[j]
				e.Time = e.Time.Add(shift)
				st.Emit(e)
			}
			st.Close()
			if st.Processed() != perOp {
				b.Fatalf("processed %d of %d events", st.Processed(), perOp)
			}
		}
		elapsed := time.Since(start)
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	b.Run("emit", func(b *testing.B) {
		b.ReportAllocs()
		run(b, false, b.N)
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		batchNs := float64(run(b, true, b.N).Nanoseconds()) / float64(b.N)
		b.StopTimer()
		const probe = 20
		emitNs := float64(run(b, false, probe).Nanoseconds()) / probe
		if batchNs > 0 {
			b.ReportMetric(emitNs/batchNs, "speedup")
		}
	})
}

// BenchmarkRulesProcess is the signature engine's cost for the event
// that fires nothing — almost every event: one op is one benign event
// against the builtin rules, by pointer as the core engine calls it.
// -benchmem pins the claim that a candidate rule which does not fire
// allocates and copies nothing (0 allocs/op).
func BenchmarkRulesProcess(b *testing.B) {
	gen := workload.NewGenerator(11, time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
	tr := &workload.Trace{}
	gen.Benign(tr, []string{"alice", "bob", "carol", "dave"}, 2000)
	eng, err := rules.NewEngine(rules.BuiltinRules())
	if err != nil {
		b.Fatal(err)
	}
	var quiet []trace.Event
	for i := range tr.Events {
		if len(eng.ProcessEvent(&tr.Events[i])) == 0 {
			quiet = append(quiet, tr.Events[i])
		}
	}
	if len(quiet) < len(tr.Events)/2 {
		b.Fatalf("only %d of %d benign events fire nothing", len(quiet), len(tr.Events))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ProcessEvent(&quiet[i%len(quiet)])
	}
}
