package workload

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestDeterminism(t *testing.T) {
	a := StandardMix(7, 300)
	b := StandardMix(7, 300)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Kind != b.Events[i].Kind || !a.Events[i].Time.Equal(b.Events[i].Time) {
			t.Fatalf("event %d differs", i)
		}
	}
	c := StandardMix(8, 300)
	same := len(a.Events) == len(c.Events)
	if same {
		diff := false
		for i := range a.Events {
			if a.Events[i].Kind != c.Events[i].Kind {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// StandardMix reserves the whole trace up front; the trace must be
// what the same calls append to a trace that reserves nothing.
func TestStandardMixReservationChangesNothing(t *testing.T) {
	const seed, steps = 7, 900
	g := NewGenerator(seed, time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
	want := &Trace{}
	users := []string{"alice", "bob", "carol", "dave"}
	g.Benign(want, users, steps/3)
	g.InjectRansomware(want, "mallory-rw", 12)
	g.InjectExfil(want, "mallory-ex", 8<<20, 4)
	g.Benign(want, users, steps/3)
	g.InjectMiner(want, "mallory-cm", 6, 45*time.Second, 15*time.Second)
	g.InjectBruteForce(want, "203.0.113.66", 12, true)
	g.Benign(want, users, steps-2*(steps/3))
	g.InjectLowSlow(want, "198.51.100.9", 30, 30*time.Second)
	g.InjectTerminalRecon(want, "mallory-tr", "203.0.113.99")

	got := StandardMix(seed, steps)
	if !reflect.DeepEqual(got.Events, want.Events) || !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("StandardMix differs from its calls on an unreserved trace: %d events and %d labels, want %d and %d",
			len(got.Events), len(got.Labels), len(want.Events), len(want.Labels))
	}
	if cap(got.Events) < len(got.Events) || cap(got.Events) > 2*len(got.Events) {
		t.Fatalf("reserved %d for %d events", cap(got.Events), len(got.Events))
	}
}

func TestEventsAreTimeOrdered(t *testing.T) {
	tr := StandardMix(3, 400)
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Time.Before(tr.Events[i-1].Time) {
			t.Fatalf("event %d out of order", i)
		}
	}
}

func TestLabelsCoverAllClasses(t *testing.T) {
	tr := StandardMix(1, 100)
	classes := map[string]bool{}
	for _, l := range tr.Labels {
		classes[l.Class] = true
		if l.End.Before(l.Start) {
			t.Fatalf("label %+v has negative window", l)
		}
	}
	for _, want := range []string{
		"ransomware", "data_exfiltration", "cryptomining",
		"account_takeover", "denial_of_service", "zero_day",
	} {
		if !classes[want] {
			t.Errorf("label class %s missing", want)
		}
	}
}

func TestMaliciousActorsDistinctFromBenign(t *testing.T) {
	tr := StandardMix(5, 200)
	actors := tr.MaliciousActors()
	for _, benign := range []string{"alice", "bob", "carol", "dave"} {
		if _, bad := actors[benign]; bad {
			t.Errorf("benign user %s labelled malicious", benign)
		}
	}
	if len(actors) != 6 {
		t.Fatalf("actors = %v", actors)
	}
}

func TestBenignEntropyRealistic(t *testing.T) {
	g := NewGenerator(2, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	tr := &Trace{}
	g.Benign(tr, []string{"alice"}, 500)
	for _, e := range tr.Events {
		if e.Kind == trace.KindFileOp && e.Op == "write" && e.Entropy > 7.0 {
			t.Fatalf("benign write with ciphertext entropy: %+v", e)
		}
	}
}

func TestRansomwareInjectionShape(t *testing.T) {
	g := NewGenerator(2, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	tr := &Trace{}
	g.InjectRansomware(tr, "m", 10)
	var highEntropyWrites, renames, notes int
	for _, e := range tr.Events {
		if e.Kind != trace.KindFileOp {
			continue
		}
		switch {
		case e.Op == "write" && e.Entropy > 7.2:
			highEntropyWrites++
		case e.Op == "rename":
			renames++
		case e.Op == "create" && e.Target == "README_RANSOM.txt":
			notes++
		}
	}
	if highEntropyWrites != 10 || renames != 10 || notes != 1 {
		t.Fatalf("writes=%d renames=%d notes=%d", highEntropyWrites, renames, notes)
	}
}

func TestLowSlowPacingIsRegular(t *testing.T) {
	g := NewGenerator(2, time.Date(2026, 6, 1, 0, 0, 0, 0, time.UTC))
	tr := &Trace{}
	g.InjectLowSlow(tr, "9.9.9.9", 10, 30*time.Second)
	var prev time.Time
	for i, e := range tr.Events {
		if i > 0 {
			if gap := e.Time.Sub(prev); gap != 30*time.Second {
				t.Fatalf("gap %d = %v", i, gap)
			}
		}
		prev = e.Time
	}
}

func TestGeneratorSeqMonotone(t *testing.T) {
	tr := StandardMix(4, 100)
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i].Seq <= tr.Events[i-1].Seq {
			t.Fatalf("seq not monotone at %d", i)
		}
	}
}
