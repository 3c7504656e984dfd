package anomaly

import (
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/rules"
	"repro/internal/trace"
)

var t0 = time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

func at(offset time.Duration, e trace.Event) trace.Event {
	e.Time = t0.Add(offset)
	return e
}

func TestEWMAConverges(t *testing.T) {
	e := &EWMA{Alpha: 0.3}
	for i := 0; i < 100; i++ {
		e.Update(10)
	}
	if math.Abs(e.Mean()-10) > 0.01 {
		t.Fatalf("mean = %f", e.Mean())
	}
	if e.StdDev() > 0.5 {
		t.Fatalf("stddev = %f", e.StdDev())
	}
	if e.Samples() != 100 {
		t.Fatalf("samples = %d", e.Samples())
	}
}

func TestEWMAZScoreFlagsOutlier(t *testing.T) {
	e := &EWMA{Alpha: 0.2}
	for i := 0; i < 50; i++ {
		e.Update(100 + float64(i%5)) // baseline ~100-104
	}
	z := e.Update(10000)
	if z < 6 {
		t.Fatalf("outlier z = %f", z)
	}
}

func TestEWMAWarmupNoZ(t *testing.T) {
	e := &EWMA{Alpha: 0.2}
	for i := 0; i < 4; i++ {
		if z := e.Update(float64(i * 1000)); z != 0 {
			t.Fatalf("warmup z = %f", z)
		}
	}
}

func TestRansomwareBurst(t *testing.T) {
	d := NewRansomware(DefaultRansomwareConfig())
	var alerts []rules.Alert
	for i := 0; i < 5; i++ {
		alerts = append(alerts, d.Process(at(time.Duration(i)*time.Second, trace.Event{
			Kind: trace.KindFileOp, Op: "write", User: "mallory",
			Target: "nb" + string(rune('a'+i)), Entropy: 7.9, Success: true,
		}))...)
	}
	found := false
	for _, a := range alerts {
		if a.RuleID == "ANOM-RW-write-burst" {
			found = true
			if a.Class != rules.ClassRansomware || a.Group != "mallory" {
				t.Fatalf("alert = %+v", a)
			}
		}
	}
	if !found {
		t.Fatalf("burst not detected: %+v", alerts)
	}
}

func TestRansomwareEntropyJump(t *testing.T) {
	d := NewRansomware(DefaultRansomwareConfig())
	// First write: text entropy.
	if a := d.Process(at(0, trace.Event{
		Kind: trace.KindFileOp, Op: "write", User: "m",
		Target: "nb.ipynb", Entropy: 4.0, Success: true,
	})); len(a) != 0 {
		t.Fatalf("first write alerted: %+v", a)
	}
	// Rewrite as ciphertext.
	a := d.Process(at(time.Second, trace.Event{
		Kind: trace.KindFileOp, Op: "write", User: "m",
		Target: "nb.ipynb", Entropy: 7.95, Success: true,
	}))
	found := false
	for _, al := range a {
		if al.RuleID == "ANOM-RW-entropy-jump" {
			found = true
		}
	}
	if !found {
		t.Fatalf("entropy jump not detected: %+v", a)
	}
}

// Entropy history is keyed by the (actor, target) pair itself: a NUL
// inside either string must not let one actor's file stand in for
// another's baseline.
func TestRansomwareEntropyHistoryPerActorAndTarget(t *testing.T) {
	d := NewRansomware(DefaultRansomwareConfig())
	write := func(off time.Duration, user, target string, entropy float64) []rules.Alert {
		return d.Process(at(off, trace.Event{
			Kind: trace.KindFileOp, Op: "write", User: user,
			Target: target, Entropy: entropy, Success: true,
		}))
	}
	if a := write(0, "a\x00b", "c", 1.0); len(a) != 0 {
		t.Fatalf("first write alerted: %+v", a)
	}
	// Another actor's first write of another file: no history to jump from.
	if a := write(time.Second, "a", "b\x00c", 7.95); len(a) != 0 {
		t.Fatalf("actor %q writing %q was judged against another pair's baseline: %+v", "a", "b\x00c", a)
	}
	// Each pair still has its own history.
	if a := write(2*time.Second, "a\x00b", "c", 7.95); len(a) != 1 || a[0].RuleID != "ANOM-RW-entropy-jump" {
		t.Fatalf("the first pair lost its history: %+v", a)
	}
}

// A notebook save to a known (actor, file) is the common file_op of a
// benign mix; it must not build a key.
func TestRansomwareRepeatWriteDoesNotAllocate(t *testing.T) {
	d := NewRansomware(DefaultRansomwareConfig())
	e := at(0, trace.Event{
		Kind: trace.KindFileOp, Op: "write", User: "alice",
		Target: "work/nb.ipynb", Entropy: 4.2, Success: true,
	})
	d.Process(e)
	if allocs := testing.AllocsPerRun(200, func() { d.Process(e) }); allocs != 0 {
		t.Fatalf("a repeat write costs %.1f allocations, want 0", allocs)
	}
}

// TestDetectorStateKeysAreClones: every detector map that keys state
// by an event string stores a clone made on first insert, so its state
// never pins the memory the event's strings live in (a whole replay
// arena chunk, or an ingest line), and a repeat event updates the
// state in place without allocating.
func TestDetectorStateKeysAreClones(t *testing.T) {
	// own gives s memory of its own, as each decoded event's strings have.
	own := func(s string) string { return string([]byte(s)) }
	cases := []struct {
		name  string
		d     Detector
		event func(i int) trace.Event // the i-th repeat
	}{{
		name: "ransomware", d: NewRansomware(DefaultRansomwareConfig()),
		event: func(i int) trace.Event {
			// High entropy, but three minutes apart: never a burst.
			return at(time.Duration(i)*3*time.Minute, trace.Event{Kind: trace.KindFileOp, Op: "write",
				User: own("mallory"), Target: own("nb.ipynb"), Entropy: 7.9, Success: true})
		},
	}, {
		name: "exfil", d: NewExfil(DefaultExfilConfig()),
		event: func(i int) trace.Event {
			return at(time.Duration(i)*time.Second, trace.Event{Kind: trace.KindNetOp, Op: "GET",
				User: own("alice"), Target: own("http://conda/pkg"), Bytes: 1000, Entropy: 4, Success: true})
		},
	}, {
		name: "miner", d: NewMiner(DefaultMinerConfig()),
		event: func(i int) trace.Event {
			return at(time.Duration(i)*10*time.Second, trace.Event{Kind: trace.KindSysRes,
				KernelID: own("kern-b01"), CPUMillis: 500, Success: true})
		},
	}, {
		name: "lowslow", d: NewLowSlow(DefaultLowSlowConfig()),
		event: func(int) trace.Event {
			return at(0, trace.Event{Kind: trace.KindHTTP, SrcIP: own("198.51.100.7"), Status: 200, Success: true})
		},
	}}
	for _, c := range cases {
		events := make([]trace.Event, 300)
		for i := range events {
			events[i] = c.event(i)
		}
		stored := func() []string {
			var keys []string
			switch d := c.d.(type) {
			case *Ransomware:
				for k := range d.writeTimes {
					keys = append(keys, k)
				}
				for k := range d.lastEntropy {
					keys = append(keys, k.actor, k.target)
				}
			case *Exfil:
				for k := range d.baselines {
					keys = append(keys, k)
				}
			case *Miner:
				for k := range d.usage {
					keys = append(keys, k)
				}
			case *LowSlow:
				for k := range d.sources {
					keys = append(keys, k)
				}
			}
			return keys
		}
		for i, e := range events[:2] {
			if a := c.d.Process(e); len(a) != 0 {
				t.Fatalf("%s: event %d fired %+v", c.name, i, a)
			}
			keys := stored()
			if len(keys) == 0 {
				t.Fatalf("%s: no state stored", c.name)
			}
			for _, k := range keys {
				for _, seen := range events[:i+1] {
					for _, s := range []string{seen.User, seen.Target, seen.KernelID, seen.SrcIP} {
						if s != "" && unsafe.StringData(k) == unsafe.StringData(s) {
							t.Fatalf("%s: after event %d a stored key shares the memory of an event's %q", c.name, i, k)
						}
					}
				}
			}
		}
		next := 2
		if allocs := testing.AllocsPerRun(200, func() {
			c.d.Process(events[next])
			next++
		}); allocs != 0 {
			t.Fatalf("%s: a repeat event costs %.1f allocations, want 0", c.name, allocs)
		}
	}
}

func TestRansomwareIgnoresBenignWrites(t *testing.T) {
	d := NewRansomware(DefaultRansomwareConfig())
	for i := 0; i < 50; i++ {
		a := d.Process(at(time.Duration(i)*time.Second, trace.Event{
			Kind: trace.KindFileOp, Op: "write", User: "alice",
			Target: "nb.ipynb", Entropy: 4.2, Success: true,
		}))
		if len(a) != 0 {
			t.Fatalf("benign write alerted: %+v", a)
		}
	}
}

func TestRansomwareBurstWindowExpires(t *testing.T) {
	cfg := DefaultRansomwareConfig()
	d := NewRansomware(cfg)
	// 5 high-entropy writes but spread 1 minute apart each — outside
	// the 2-minute window only 2-3 remain fresh at once... spread
	// wider: 3 minutes apart so never more than one in window.
	for i := 0; i < 5; i++ {
		a := d.Process(at(time.Duration(i)*3*time.Minute, trace.Event{
			Kind: trace.KindFileOp, Op: "write", User: "m",
			Target: "f" + string(rune('a'+i)), Entropy: 7.9, Success: true,
		}))
		for _, al := range a {
			if al.RuleID == "ANOM-RW-write-burst" {
				t.Fatalf("slow writes alerted: %+v", al)
			}
		}
	}
}

func TestExfilAbsoluteVolume(t *testing.T) {
	d := NewExfil(DefaultExfilConfig())
	a := d.Process(at(0, trace.Event{
		Kind: trace.KindNetOp, Op: "POST", User: "m",
		Target: "http://evil/drop", Bytes: 4 << 20, Entropy: 4.0, Success: true,
	}))
	found := false
	for _, al := range a {
		if al.RuleID == "ANOM-EX-volume-abs" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bulk transfer not detected: %+v", a)
	}
}

func TestExfilEntropy(t *testing.T) {
	d := NewExfil(DefaultExfilConfig())
	a := d.Process(at(0, trace.Event{
		Kind: trace.KindNetOp, Op: "POST", User: "m",
		Target: "http://evil/drop", Bytes: 4096, Entropy: 7.9, Success: true,
	}))
	found := false
	for _, al := range a {
		if al.RuleID == "ANOM-EX-entropy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("high-entropy upload not detected: %+v", a)
	}
}

func TestExfilBaselineZ(t *testing.T) {
	d := NewExfil(DefaultExfilConfig())
	// Establish a small-transfer baseline.
	for i := 0; i < 30; i++ {
		d.Process(at(time.Duration(i)*time.Second, trace.Event{
			Kind: trace.KindNetOp, Op: "GET", User: "alice",
			Target: "http://conda/pkg", Bytes: int64(400 + i%50), Entropy: 4.0, Success: true,
		}))
	}
	a := d.Process(at(time.Minute, trace.Event{
		Kind: trace.KindNetOp, Op: "POST", User: "alice",
		Target: "http://somewhere/up", Bytes: 600_000, Entropy: 4.0, Success: true,
	}))
	found := false
	for _, al := range a {
		if al.RuleID == "ANOM-EX-volume-z" {
			found = true
		}
	}
	if !found {
		t.Fatalf("volume z-score not detected: %+v", a)
	}
}

func TestExfilIgnoresFailedOps(t *testing.T) {
	d := NewExfil(DefaultExfilConfig())
	if a := d.Process(at(0, trace.Event{
		Kind: trace.KindNetOp, Op: "POST", Bytes: 10 << 20, Entropy: 8, Success: false,
	})); len(a) != 0 {
		t.Fatalf("failed op alerted: %+v", a)
	}
}

func TestMinerSingleBurn(t *testing.T) {
	d := NewMiner(DefaultMinerConfig())
	a := d.Process(at(0, trace.Event{
		Kind: trace.KindSysRes, KernelID: "k1", CPUMillis: 60_000, Success: true,
	}))
	found := false
	for _, al := range a {
		if al.RuleID == "ANOM-CM-single-burn" {
			found = true
		}
	}
	if !found {
		t.Fatalf("single burn not detected: %+v", a)
	}
}

func TestMinerDutyCycle(t *testing.T) {
	d := NewMiner(DefaultMinerConfig())
	var all []rules.Alert
	// 4 samples of 50s CPU each, one per minute: duty ~0.83.
	for i := 0; i < 4; i++ {
		all = append(all, d.Process(at(time.Duration(i)*time.Minute, trace.Event{
			Kind: trace.KindSysRes, KernelID: "k-miner", CPUMillis: 25_000, Success: true,
		}))...)
	}
	found := false
	for _, al := range all {
		if al.RuleID == "ANOM-CM-duty-cycle" {
			found = true
		}
	}
	if !found {
		t.Fatalf("duty cycle not detected: %+v", all)
	}
}

func TestMinerIgnoresLightUse(t *testing.T) {
	d := NewMiner(DefaultMinerConfig())
	for i := 0; i < 20; i++ {
		a := d.Process(at(time.Duration(i)*time.Minute, trace.Event{
			Kind: trace.KindSysRes, KernelID: "k1", CPUMillis: 500, Success: true,
		}))
		if len(a) != 0 {
			t.Fatalf("light use alerted: %+v", a)
		}
	}
}

func TestLowSlowDetectsRegularTrain(t *testing.T) {
	d := NewLowSlow(DefaultLowSlowConfig())
	var all []rules.Alert
	for i := 0; i < 20; i++ {
		all = append(all, d.Process(at(time.Duration(i)*30*time.Second, trace.Event{
			Kind: trace.KindHTTP, SrcIP: "198.51.100.9", Status: 403, Success: false,
		}))...)
	}
	if len(all) != 1 || all[0].RuleID != "ANOM-DS-low-slow" {
		t.Fatalf("alerts = %+v", all)
	}
	// Alerted flag prevents repeats.
	more := d.Process(at(20*30*time.Second, trace.Event{
		Kind: trace.KindHTTP, SrcIP: "198.51.100.9", Status: 403, Success: false,
	}))
	if len(more) != 0 {
		t.Fatal("re-alerted on same source")
	}
}

func TestLowSlowIgnoresJitteryHumans(t *testing.T) {
	d := NewLowSlow(DefaultLowSlowConfig())
	offsets := []time.Duration{0, 3, 40, 42, 100, 130, 135, 300, 310, 420, 500, 620, 700, 710, 800}
	for _, off := range offsets {
		a := d.Process(at(off*time.Second, trace.Event{
			Kind: trace.KindHTTP, SrcIP: "10.0.0.5", Status: 403, Success: false,
		}))
		if len(a) != 0 {
			t.Fatalf("human jitter alerted: %+v", a)
		}
	}
}

func TestLowSlowIgnoresSuccessfulTraffic(t *testing.T) {
	d := NewLowSlow(DefaultLowSlowConfig())
	for i := 0; i < 30; i++ {
		a := d.Process(at(time.Duration(i)*30*time.Second, trace.Event{
			Kind: trace.KindHTTP, SrcIP: "10.0.0.7", Status: 200, Success: true,
		}))
		if len(a) != 0 {
			t.Fatalf("successful traffic alerted: %+v", a)
		}
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if cv := coefficientOfVariation([]float64{10, 10, 10, 10}); cv != 0 {
		t.Fatalf("regular cv = %f", cv)
	}
	if cv := coefficientOfVariation([]float64{1, 100, 2, 200}); cv < 0.5 {
		t.Fatalf("jittery cv = %f", cv)
	}
	if cv := coefficientOfVariation([]float64{1, 2}); cv != -1 {
		t.Fatalf("short cv = %f", cv)
	}
}

func TestSuiteComplete(t *testing.T) {
	ds := Build(SuiteFactories())
	if len(ds) != 4 {
		t.Fatalf("suite = %d detectors", len(ds))
	}
	desc := Describe(ds)
	for _, want := range []string{"ransomware", "exfil", "miner", "lowslow"} {
		if !strings.Contains(desc, want) {
			t.Errorf("describe missing %s: %s", want, desc)
		}
	}
}

// Factory.Kinds is an index, never a filter: a suite detector must
// return nil for an event of any kind it does not list, however
// alarming the event's other fields are.
func TestSuiteKindsCoverWhatProcessLooksAt(t *testing.T) {
	for _, f := range SuiteFactories() {
		if len(f.Kinds) == 0 {
			t.Fatalf("%s declares no kinds", f.Name)
		}
		listed := map[trace.Kind]bool{}
		for _, k := range f.Kinds {
			listed[k] = true
		}
		d := f.New()
		for _, k := range append(trace.KnownKinds(), "", "custom") {
			if listed[k] {
				continue
			}
			for i := 0; i < 20; i++ {
				a := d.Process(at(time.Duration(i)*time.Minute, trace.Event{
					Kind: k, Op: "write", User: "m", SrcIP: "203.0.113.9", KernelID: "k1",
					Target: "nb.ipynb", Entropy: 7.99, Bytes: 1 << 30, CPUMillis: 1 << 30,
					Success: i == 0,
				}))
				if len(a) != 0 {
					t.Fatalf("%s alerted on unlisted kind %q: %+v", f.Name, k, a)
				}
			}
		}
	}
}
