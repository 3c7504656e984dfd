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
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cryptoaudit"
	"repro/internal/evstore"
	"repro/internal/fleet"
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
			stageReplay(batchFunc(func(batch []trace.Event) { eng.ProcessBatch(batch) }), events, 4)
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
			stageReplay(eng, events, 4)
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
		parts := make([][]trace.Event, runtime.GOMAXPROCS(0))
		for _, e := range big {
			i := trace.ShardIndex(e.ActorKey(), len(parts))
			parts[i] = append(parts[i], e)
		}
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
		fr := wsproto.NewFrameReader(bytes.NewReader(frame), 0)
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
