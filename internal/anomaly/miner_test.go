package anomaly

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workload"
)

// oracleMiner is Miner as it was before the ring window, kept as the
// oracle of TestMinerMatchesOracle: every sample rebuilds its kernel's
// window by testing each held sample against the new one's time.
type oracleMiner struct {
	cfg MinerConfig

	mu    sync.Mutex
	usage map[string][]cpuSample // actor key (the kernel) -> samples
}

func (d *oracleMiner) Process(e trace.Event) []rules.Alert {
	if e.Kind != trace.KindSysRes || e.CPUMillis <= 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var alerts []rules.Alert
	actor := trace.ActorKey(e)
	if e.CPUMillis >= d.cfg.CPUMillisPerExec {
		alerts = append(alerts, rules.Alert{
			RuleID: "ANOM-CM-single-burn", Class: rules.ClassCryptomining,
			Severity:    rules.SevHigh,
			Description: fmt.Sprintf("one execution burned %dms CPU on %s", e.CPUMillis, e.KernelID),
			Time:        e.Time, Group: actor, Trigger: e.Clone(), Count: 1,
		})
	}
	samples := append(d.usage[actor], cpuSample{t: e.Time, ms: e.CPUMillis})
	fresh := samples[:0]
	var burned int64
	for _, s := range samples {
		if e.Time.Sub(s.t) <= d.cfg.Window {
			fresh = append(fresh, s)
			burned += s.ms
		}
	}
	d.usage[actor] = fresh
	if len(fresh) >= 3 {
		span := e.Time.Sub(fresh[0].t)
		if span > 0 {
			duty := float64(burned) / float64(span.Milliseconds())
			if duty >= d.cfg.DutyCycle {
				d.usage[actor] = nil
				alerts = append(alerts, rules.Alert{
					RuleID: "ANOM-CM-duty-cycle", Class: rules.ClassCryptomining,
					Severity: rules.SevCritical,
					Description: fmt.Sprintf("kernel %s CPU duty cycle %.0f%% over %s",
						e.KernelID, duty*100, span.Round(time.Second)),
					Time: e.Time, Group: actor, Trigger: e.Clone(), Count: len(fresh),
				})
			}
		}
	}
	return alerts
}

// sysRes returns the sys_res events of a trace.
func sysRes(tr *workload.Trace) []trace.Event {
	var out []trace.Event
	for _, e := range tr.Events {
		if e.Kind == trace.KindSysRes {
			out = append(out, e)
		}
	}
	return out
}

// minerTrain injects one mining train at the given burn/idle ratio.
func minerTrain(seed int64, rounds int, burn, idle time.Duration) []trace.Event {
	g := workload.NewGenerator(seed, t0)
	tr := &workload.Trace{}
	g.InjectMiner(tr, "mallory-cm", rounds, burn, idle)
	return sysRes(tr)
}

// sample is one hand-built sys_res row: kernel, offset from t0, CPU ms.
func sample(kern string, off time.Duration, ms int64) trace.Event {
	return at(off, trace.Event{Kind: trace.KindSysRes, KernelID: kern, CPUMillis: ms, Success: true})
}

// TestMinerMatchesOracle is the differential for the ring window: on
// every input the Miner fires exactly the oracle's alerts, in order,
// with the same rule, description, count, time and group.
func TestMinerMatchesOracle(t *testing.T) {
	minute, sec := time.Minute, time.Second
	var compaction []trace.Event
	for i := 0; i < 400; i++ { // a light kernel sampled every 20 s: ~15 held, one expiry per sample
		compaction = append(compaction, sample("k-long", time.Duration(i)*20*sec, 1_000))
	}
	random := func(seed int64) []trace.Event {
		rng := rand.New(rand.NewSource(seed))
		var evs []trace.Event
		off := time.Duration(0)
		for i := 0; i < 3000; i++ {
			off += time.Duration(rng.Intn(40)) * sec
			if rng.Intn(12) == 0 {
				off -= time.Duration(rng.Intn(400)) * sec // late sample
			}
			evs = append(evs, sample(fmt.Sprintf("k%d", rng.Intn(3)), off, int64(rng.Intn(40_000))+1))
		}
		return evs
	}
	cases := map[string][]trace.Event{
		"standard-mix-11": sysRes(workload.StandardMix(11, 3000)),
		"standard-mix-37": sysRes(workload.StandardMix(37, 3000)),
		"burn-45-idle-15": minerTrain(1, 40, 45*sec, 15*sec),
		"burn-30-idle-30": minerTrain(2, 40, 30*sec, 30*sec),
		"burn-20-idle-40": minerTrain(3, 40, 20*sec, 40*sec),
		"burn-10-idle-50": minerTrain(4, 40, 10*sec, 50*sec),
		"burn-59-idle-1":  minerTrain(5, 40, 59*sec, sec),
		"out-of-order": {
			sample("k", 0, 10_000), sample("k", 2*minute, 50_000), sample("k", minute, 50_000),
			sample("k", 3*minute, 50_000), sample("k", 10*minute, 10_000), sample("k", 11*minute, 60_000),
			sample("k", 12*minute, 60_000),
		},
		"late-then-in-order": {
			sample("k", 4*minute, 1_000), sample("k", 0, 1_000), sample("k", 5*minute, 1_000),
			sample("k", 6*minute, 1_000), sample("k", 9*minute, 100_000), sample("k", 9*minute+sec, 100_000),
			sample("k", 9*minute+2*sec, 100_000),
		},
		"equal-timestamps": {
			sample("k", minute, 40_000), sample("k", minute, 40_000), sample("k", minute, 40_000),
			sample("k", 2*minute, 40_000), sample("k", 2*minute, 40_000),
		},
		"exactly-window-old": {
			sample("k", 0, 100_000), sample("k", 2*minute, 1_000), sample("k", 5*minute, 1_000),
			sample("k", 5*minute+time.Nanosecond, 1_000), sample("k", 10*minute, 200_000),
			sample("k", 10*minute+time.Millisecond, 200_000),
		},
		"fire-reset-refill": {
			sample("k", 0, 50_000), sample("k", minute, 50_000), sample("k", 2*minute, 50_000),
			sample("k", 3*minute, 50_000), sample("k", 4*minute, 50_000), sample("k", 5*minute, 50_000),
			sample("k", 6*minute, 50_000), sample("k", 7*minute, 50_000),
		},
		"compaction":  compaction,
		"single-burn": {sample("k", 0, 60_000)},
		"two-kernels": {
			sample("a", 0, 50_000), sample("b", 0, 1_000), sample("a", minute, 50_000),
			sample("b", 30*sec, 1_000), sample("a", 2*minute, 50_000), sample("b", minute, 1_000),
		},
		"random-1": random(1),
		"random-2": random(2),
	}
	fired := 0
	for name, evs := range cases {
		want := &oracleMiner{cfg: DefaultMinerConfig(), usage: map[string][]cpuSample{}}
		got := NewMiner(DefaultMinerConfig())
		if len(evs) == 0 {
			t.Fatalf("%s: no sys_res events", name)
		}
		for i, e := range evs {
			w, g := want.Process(e), got.Process(e)
			if len(w) != len(g) {
				t.Fatalf("%s event %d: %d alerts, oracle %d: %+v vs %+v", name, i, len(g), len(w), g, w)
			}
			for j := range w {
				if w[j].RuleID != g[j].RuleID || w[j].Description != g[j].Description || w[j].Count != g[j].Count ||
					!w[j].Time.Equal(g[j].Time) || w[j].Group != g[j].Group {
					t.Fatalf("%s event %d alert %d:\n got %s %q count=%d %s %s\nwant %s %q count=%d %s %s", name, i, j,
						g[j].RuleID, g[j].Description, g[j].Count, g[j].Time, g[j].Group,
						w[j].RuleID, w[j].Description, w[j].Count, w[j].Time, w[j].Group)
				}
			}
			fired += len(w)
		}
	}
	if fired == 0 {
		t.Fatal("no case fired an alert; the differential proves nothing")
	}
}

// TestMinerSteadySampleDoesNotAllocate: a sample that fires nothing on
// a kernel whose window is warm expires one sample and holds one more,
// without allocating.
func TestMinerSteadySampleDoesNotAllocate(t *testing.T) {
	d := NewMiner(DefaultMinerConfig())
	off := time.Duration(0)
	next := func() trace.Event {
		off += 10 * time.Second
		return sample("kern-b01", off, 500)
	}
	for i := 0; i < 200; i++ {
		d.Process(next())
	}
	if allocs := testing.AllocsPerRun(500, func() {
		if a := d.Process(next()); len(a) != 0 {
			t.Fatalf("a light sample fired %+v", a)
		}
	}); allocs != 0 {
		t.Fatalf("a steady sample costs %.1f allocations, want 0", allocs)
	}
}
