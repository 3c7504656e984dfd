package workload

import (
	"reflect"
	"sync"
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

func TestEntropyOfMatchesVFS(t *testing.T) {
	if e := EntropyOf([]byte("aaaa")); e != 0 {
		t.Fatalf("entropy = %f", e)
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

func TestActorKeyPrecedence(t *testing.T) {
	cases := []struct {
		e    trace.Event
		want string
	}{
		{trace.Event{Kind: trace.KindAuth, SrcIP: "1.2.3.4", User: "alice"}, "1.2.3.4"},
		{trace.Event{Kind: trace.KindHTTP, SrcIP: "1.2.3.4", User: "alice"}, "1.2.3.4"},
		{trace.Event{Kind: trace.KindExec, SrcIP: "1.2.3.4", User: "alice"}, "alice"},
		{trace.Event{Kind: trace.KindFileOp, SrcIP: "1.2.3.4"}, "1.2.3.4"},
		// sys_res keys by kernel even when a user is present: CM-003
		// thresholds group resource samples by kernel_id.
		{trace.Event{Kind: trace.KindSysRes, KernelID: "kern-1", User: "alice"}, "kern-1"},
		{trace.Event{Kind: trace.KindSysRes, KernelID: "kern-1"}, "kern-1"},
	}
	for i, c := range cases {
		if got := ActorKey(c.e); got != c.want {
			t.Errorf("case %d: ActorKey = %q, want %q", i, got, c.want)
		}
	}
}

func TestPartitionPreservesActorOrder(t *testing.T) {
	tr := StandardMix(31, 300)
	shards := Partition(tr.Events, 8)
	total := 0
	for _, sh := range shards {
		total += len(sh)
		// Within a shard, seq must stay monotone per actor (and in
		// fact globally, since shards preserve stream order).
		for i := 1; i < len(sh); i++ {
			if sh[i].Seq <= sh[i-1].Seq {
				t.Fatalf("shard order broken: seq %d after %d", sh[i].Seq, sh[i-1].Seq)
			}
		}
		// An actor never spans shards.
	}
	if total != len(tr.Events) {
		t.Fatalf("partition lost events: %d != %d", total, len(tr.Events))
	}
	seen := map[string]int{}
	for si, sh := range shards {
		for _, e := range sh {
			key := ActorKey(e)
			if prev, ok := seen[key]; ok && prev != si {
				t.Fatalf("actor %q split across shards %d and %d", key, prev, si)
			}
			seen[key] = si
		}
	}
}

func TestReplayCoversAllEventsInBatches(t *testing.T) {
	tr := StandardMix(32, 200)
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		count := 0
		maxBatch := 0
		Replay(tr.Events, workers, 64, func(b []trace.Event) {
			mu.Lock()
			count += len(b)
			if len(b) > maxBatch {
				maxBatch = len(b)
			}
			mu.Unlock()
		})
		if count != len(tr.Events) {
			t.Fatalf("workers=%d: replayed %d of %d events", workers, count, len(tr.Events))
		}
		if maxBatch > 64 {
			t.Fatalf("workers=%d: batch of %d exceeds limit", workers, maxBatch)
		}
	}
}

// TestReplayStreamMatchesReplay verifies the streaming replay covers
// every event with the same per-actor single-shard guarantee as the
// slice-based Replay, without the caller ever holding the full trace.
func TestReplayStreamMatchesReplay(t *testing.T) {
	tr := StandardMix(33, 300)
	for _, workers := range []int{1, 4} {
		i := 0
		next := func() (trace.Event, bool) {
			if i >= len(tr.Events) {
				return trace.Event{}, false
			}
			e := tr.Events[i]
			i++
			return e, true
		}
		var mu sync.Mutex
		count := 0
		perActor := map[string][]uint64{}
		n := ReplayStream(next, workers, 64, func(b []trace.Event) {
			mu.Lock()
			defer mu.Unlock()
			count += len(b)
			for _, e := range b {
				key := ActorKey(e)
				perActor[key] = append(perActor[key], e.Seq)
			}
		})
		if n != len(tr.Events) || count != len(tr.Events) {
			t.Fatalf("workers=%d: fed %d, processed %d, want %d", workers, n, count, len(tr.Events))
		}
		for actor, seqs := range perActor {
			for j := 1; j < len(seqs); j++ {
				if seqs[j] <= seqs[j-1] {
					t.Fatalf("workers=%d: actor %s out of order: %v", workers, actor, seqs)
				}
			}
		}
	}
}
