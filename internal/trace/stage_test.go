package trace

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStageDeliversAll(t *testing.T) {
	var n atomic.Uint64
	st := NewStage(SinkFunc(func(Event) { n.Add(1) }), 4, 8, Block)
	for i := 0; i < 500; i++ {
		st.Emit(Event{Kind: KindHTTP})
	}
	st.Close()
	if n.Load() != 500 {
		t.Fatalf("delivered = %d, want 500", n.Load())
	}
	if st.Accepted() != 500 || st.Processed() != 500 || st.Dropped() != 0 {
		t.Fatalf("counters = %d/%d/%d", st.Accepted(), st.Processed(), st.Dropped())
	}
}

func TestStageSingleWorkerPreservesOrder(t *testing.T) {
	var got []uint64
	st := NewStage(SinkFunc(func(e Event) { got = append(got, e.Seq) }), 1, 4, Block)
	for i := 1; i <= 200; i++ {
		st.Emit(Event{Seq: uint64(i)})
	}
	st.Close()
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("order broken at %d: %d", i, s)
		}
	}
}

func TestStageDropNewestCountsOverflow(t *testing.T) {
	release := make(chan struct{})
	st := NewStage(SinkFunc(func(Event) { <-release }), 1, 2, DropNewest)
	// One event occupies the worker; two fill the queue; the rest drop.
	for i := 0; i < 10; i++ {
		st.Emit(Event{})
	}
	if st.Dropped() == 0 {
		t.Fatal("expected drops with a stalled worker and depth 2")
	}
	close(release)
	st.Close()
	if st.Accepted()+st.Dropped() != 10 {
		t.Fatalf("accepted %d + dropped %d != 10", st.Accepted(), st.Dropped())
	}
	if st.Processed() != st.Accepted() {
		t.Fatalf("processed %d != accepted %d", st.Processed(), st.Accepted())
	}
}

func TestStageBlockNeverDrops(t *testing.T) {
	var n atomic.Uint64
	st := NewStage(SinkFunc(func(Event) {
		time.Sleep(100 * time.Microsecond)
		n.Add(1)
	}), 2, 1, Block)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st.Emit(Event{})
			}
		}()
	}
	wg.Wait()
	st.Close()
	if n.Load() != 200 || st.Dropped() != 0 {
		t.Fatalf("delivered = %d dropped = %d", n.Load(), st.Dropped())
	}
}

func TestStageEmitAfterCloseIsDropped(t *testing.T) {
	st := NewStage(Discard, 1, 4, Block)
	st.Emit(Event{})
	st.Close()
	st.Emit(Event{})
	st.Close() // idempotent
	if st.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", st.Dropped())
	}
}

func TestStageAsBusSubscriber(t *testing.T) {
	var n atomic.Uint64
	bus := NewBus(NewFakeClock(t0))
	st := NewStage(SinkFunc(func(e Event) {
		if e.Seq == 0 {
			t.Error("event not stamped")
		}
		n.Add(1)
	}), 2, 16, Block)
	bus.Subscribe(st)
	for i := 0; i < 64; i++ {
		bus.Emit(Event{Kind: KindExec})
	}
	st.Close()
	if n.Load() != 64 {
		t.Fatalf("delivered = %d, want 64", n.Load())
	}
}

// batchRecorder is a BatchSink that records what it was handed: every
// event's Seq in arrival order and the size of every batch. A non-nil
// gate stalls each call until the gate is closed.
type batchRecorder struct {
	mu    sync.Mutex
	seqs  []uint64
	sizes []int
	gate  chan struct{}
}

func (r *batchRecorder) Emit(e Event) { r.EmitBatch([]Event{e}) }

func (r *batchRecorder) EmitBatch(events []Event) {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sizes = append(r.sizes, len(events))
	for i := range events {
		r.seqs = append(r.seqs, events[i].Seq)
	}
}

// waitFor polls cond until it holds; the conditions waited on here
// (a goroutine parked inside the stage) have no channel to select on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func emitSeqs(st *Stage, from, to uint64) {
	for s := from; s <= to; s++ {
		st.Emit(Event{Seq: s})
	}
}

func sortedSeqs(seqs []uint64) []uint64 {
	out := append([]uint64(nil), seqs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestStageBatchSinkOrderAcrossTakes(t *testing.T) {
	rec := &batchRecorder{}
	st := NewStage(rec, 1, 64, Block)
	emitSeqs(st, 1, 20000)
	st.Close()
	if len(rec.seqs) != 20000 {
		t.Fatalf("delivered %d events, want 20000", len(rec.seqs))
	}
	for i, s := range rec.seqs {
		if s != uint64(i+1) {
			t.Fatalf("order broken at %d: seq %d", i, s)
		}
	}
	if len(rec.sizes) < 2 {
		t.Fatalf("20000 events through depth 64 arrived in %d takes", len(rec.sizes))
	}
	if st.Accepted() != 20000 || st.Processed() != 20000 || st.Dropped() != 0 || st.Pending() != 0 {
		t.Fatalf("counters = %d/%d/%d pending %d", st.Accepted(), st.Processed(), st.Dropped(), st.Pending())
	}
}

func TestStageDropNewestExactAccounting(t *testing.T) {
	const producers, each = 8, 500
	rec := &batchRecorder{gate: make(chan struct{})}
	st := NewStage(rec, 1, 16, DropNewest)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			emitSeqs(st, uint64(p*each+1), uint64((p+1)*each))
		}(p)
	}
	wg.Wait() // DropNewest never stalls a producer, stalled sink or not
	// The worker holds one take in the stalled sink — at most a quarter
	// of the queue; 16 more events fit the queue; every other event
	// found it full.
	if got := st.Accepted(); got > 16+16/takeFraction {
		t.Fatalf("accepted %d events into a depth-16 queue behind a stalled sink", got)
	}
	if st.Accepted()+st.Dropped() != producers*each {
		t.Fatalf("accepted %d + dropped %d != %d emitted", st.Accepted(), st.Dropped(), producers*each)
	}
	close(rec.gate)
	st.Close()
	if st.Accepted()+st.Dropped() != producers*each {
		t.Fatalf("after close: accepted %d + dropped %d != %d", st.Accepted(), st.Dropped(), producers*each)
	}
	if st.Processed() != st.Accepted() || uint64(len(rec.seqs)) != st.Accepted() {
		t.Fatalf("processed %d, delivered %d, accepted %d", st.Processed(), len(rec.seqs), st.Accepted())
	}
	seen := map[uint64]bool{}
	for _, s := range rec.seqs {
		if seen[s] {
			t.Fatalf("seq %d delivered twice", s)
		}
		seen[s] = true
	}
}

func TestStageBlockParksAtDepthAndResumes(t *testing.T) {
	const depth = 4
	rec := &batchRecorder{gate: make(chan struct{})}
	st := NewStage(rec, 1, depth, Block)
	st.Emit(Event{Seq: 1})
	// The worker takes the first event and stalls in the sink with it.
	waitFor(t, "worker to take the first event", func() bool { return st.Pending() == 0 })
	done := make(chan struct{})
	var lastEmitStarted atomic.Bool
	go func() {
		defer close(done)
		emitSeqs(st, 2, depth+1) // fill the queue
		lastEmitStarted.Store(true)
		st.Emit(Event{Seq: depth + 2}) // one more must park
	}()
	waitFor(t, "producer to reach the full queue", lastEmitStarted.Load)
	// Give the last Emit every chance to return early, be accepted or be
	// dropped; a correct stage does none of the three while full.
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	time.Sleep(2 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("producer returned while the queue was full")
	default:
	}
	if st.Pending() != depth || st.Accepted() != depth+1 || st.Dropped() != 0 {
		t.Fatalf("full queue: pending %d accepted %d dropped %d, want %d, %d and 0",
			st.Pending(), st.Accepted(), st.Dropped(), depth, depth+1)
	}
	close(rec.gate)
	<-done
	st.Close()
	if st.Dropped() != 0 || len(rec.seqs) != depth+2 {
		t.Fatalf("dropped %d delivered %d, want 0 and %d", st.Dropped(), len(rec.seqs), depth+2)
	}
	for i, s := range rec.seqs {
		if s != uint64(i+1) {
			t.Fatalf("order broken at %d: seq %d", i, s)
		}
	}
}

func TestStageCloseRacesEmitters(t *testing.T) {
	for _, policy := range []DropPolicy{Block, DropNewest} {
		t.Run(policy.String(), func(t *testing.T) {
			const producers, each = 8, 3000
			rec := &batchRecorder{}
			st := NewStage(rec, 2, 32, policy)
			var wg sync.WaitGroup
			var emitted atomic.Uint64
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						st.Emit(Event{Seq: uint64(p*each + i + 1)})
						if emitted.Add(1) == producers*each/2 {
							st.Close() // mid-stream, from an emitter
						}
					}
				}(p)
			}
			wg.Wait()
			st.Close()
			if st.Accepted()+st.Dropped() != producers*each {
				t.Fatalf("accepted %d + dropped %d != %d emitted", st.Accepted(), st.Dropped(), producers*each)
			}
			if st.Processed() != st.Accepted() || uint64(len(rec.seqs)) != st.Accepted() || st.Pending() != 0 {
				t.Fatalf("processed %d delivered %d accepted %d pending %d", st.Processed(), len(rec.seqs), st.Accepted(), st.Pending())
			}
			if st.Dropped() == 0 {
				t.Fatal("no drops although half the events were emitted after Close")
			}
		})
	}
}

func TestStageFourWorkersDeliverEveryEventOnce(t *testing.T) {
	rec := &batchRecorder{}
	st := NewStage(rec, 4, 64, Block)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for s := uint64(p*5000 + 1); s <= uint64((p+1)*5000); s++ {
				st.Emit(Event{Seq: s, User: actorName(int(s % 16))})
			}
		}(p)
	}
	wg.Wait()
	st.Close()
	got := sortedSeqs(rec.seqs)
	if len(got) != 20000 {
		t.Fatalf("delivered %d events, want 20000", len(got))
	}
	for i, s := range got {
		if s != uint64(i+1) {
			t.Fatalf("seq %d missing or duplicated (found %d at its place)", i+1, s)
		}
	}
	for _, n := range rec.sizes {
		if n > 64/4 {
			t.Fatalf("a worker took %d events; with 4 workers on depth 64 the ceiling is 16", n)
		}
	}
}

// actorName names actor i; actor 0 is the empty key.
func actorName(i int) string {
	if i == 0 {
		return ""
	}
	return "actor-" + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

// The lane contract: however many workers, every event is delivered
// once and each actor's events reach the sink in the order they were
// emitted. Producers share actors, so the order checked is each
// producer's own per actor; Seq carries producer, actor and index.
func TestStageLanesKeepActorOrder(t *testing.T) {
	const producers, actors, each = 4, 64, 2000
	for _, workers := range []int{1, 2, 3, 8} {
		rec := &batchRecorder{}
		st := NewStage(rec, workers, 48, Block)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					// Runs of three per actor, the actors interleaved:
					// every actor gets events from every producer.
					a := (i/3*7 + p) % actors
					st.Emit(Event{Seq: uint64(p)<<40 | uint64(a)<<32 | uint64(i), User: actorName(a)})
				}
			}(p)
		}
		wg.Wait()
		st.Close()
		if len(rec.seqs) != producers*each || st.Processed() != producers*each || st.Dropped() != 0 {
			t.Fatalf("workers=%d: delivered %d, processed %d, dropped %d, want %d, %d and 0",
				workers, len(rec.seqs), st.Processed(), st.Dropped(), producers*each, producers*each)
		}
		last := map[uint64]int64{} // producer<<8|actor -> last index seen
		for _, s := range rec.seqs {
			key, i := s>>32, int64(s&(1<<32-1))
			prev, ok := last[key]
			if !ok {
				prev = -1
			}
			if i <= prev {
				t.Fatalf("workers=%d: producer %d actor %d: index %d after %d", workers, key>>8, key&0xff, i, prev)
			}
			last[key] = i
		}
		if len(last) != producers*actors {
			t.Fatalf("workers=%d: %d producer-actor pairs delivered, want %d", workers, len(last), producers*actors)
		}
	}
}

// twoLaneActors returns two actor keys that land on different lanes of
// a two-worker stage.
func twoLaneActors(t *testing.T) (string, string) {
	t.Helper()
	a := actorName(1)
	for i := 2; i < 64; i++ {
		if b := actorName(i); ShardIndex(b, 2) != ShardIndex(a, 2) {
			return a, b
		}
	}
	t.Fatal("no two actors on different lanes")
	return "", ""
}

func TestStageDropNewestIsPerLane(t *testing.T) {
	a, b := twoLaneActors(t)
	rec := &batchRecorder{gate: make(chan struct{})}
	st := NewStage(rec, 2, 4, DropNewest) // two lanes of two
	st.Emit(Event{Seq: 1, User: a})
	waitFor(t, "a's worker to take the first event", func() bool { return st.Pending() == 0 })
	emitActor := func(user string, from, to uint64) {
		for s := from; s <= to; s++ {
			st.Emit(Event{Seq: s, User: user})
		}
	}
	emitActor(a, 2, 4) // two fill a's lane behind the stalled sink, the third drops
	if st.Accepted() != 3 || st.Dropped() != 1 {
		t.Fatalf("a's full lane: accepted %d dropped %d, want 3 and 1", st.Accepted(), st.Dropped())
	}
	emitActor(b, 5, 6) // b's lane is empty: both accepted while a's stays full
	if st.Accepted() != 5 || st.Dropped() != 1 {
		t.Fatalf("b on its own lane: accepted %d dropped %d, want 5 and 1", st.Accepted(), st.Dropped())
	}
	close(rec.gate)
	st.Close()
	if st.Processed() != 5 || len(rec.seqs) != 5 {
		t.Fatalf("processed %d delivered %d, want 5", st.Processed(), len(rec.seqs))
	}
}

func TestStageCloseDropsEmitParkedOnFullLane(t *testing.T) {
	a, _ := twoLaneActors(t)
	rec := &batchRecorder{gate: make(chan struct{})}
	st := NewStage(rec, 2, 2, Block) // two lanes of one
	st.Emit(Event{Seq: 1, User: a})
	waitFor(t, "the worker to take the first event", func() bool { return st.Pending() == 0 })
	st.Emit(Event{Seq: 2, User: a}) // fills the lane
	parked := make(chan struct{})
	var started atomic.Bool
	go func() {
		defer close(parked)
		started.Store(true)
		st.Emit(Event{Seq: 3, User: a})
	}()
	waitFor(t, "the producer to reach the full lane", started.Load)
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	time.Sleep(2 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		st.Close() // waits for the stalled worker
	}()
	<-parked // Close must release the parked Emit before the workers finish
	if st.Dropped() != 1 || st.Accepted() != 2 {
		t.Fatalf("parked emit at Close: dropped %d accepted %d, want 1 and 2", st.Dropped(), st.Accepted())
	}
	close(rec.gate)
	<-closed
	if st.Processed() != 2 || len(rec.seqs) != 2 {
		t.Fatalf("processed %d delivered %d, want 2", st.Processed(), len(rec.seqs))
	}
}

func TestStageEmitOnlyAndBatchSinkSeeSameEvents(t *testing.T) {
	var plain []uint64
	rec := &batchRecorder{}
	a := NewStage(SinkFunc(func(e Event) { plain = append(plain, e.Seq) }), 1, 32, Block)
	b := NewStage(rec, 1, 32, Block)
	for s := uint64(1); s <= 5000; s++ {
		e := Event{Seq: s, Kind: KindHTTP, Path: "/api"}
		a.Emit(e)
		b.Emit(e)
	}
	a.Close()
	b.Close()
	if len(plain) != 5000 || len(rec.seqs) != 5000 {
		t.Fatalf("delivered %d and %d, want 5000 each", len(plain), len(rec.seqs))
	}
	for i := range plain {
		if plain[i] != rec.seqs[i] {
			t.Fatalf("sinks disagree at %d: %d vs %d", i, plain[i], rec.seqs[i])
		}
	}
}

// The latency rule: a batch grows with the backlog only. A stage that
// keeps up hands over single events, so batching adds nothing to an
// event's delay at low rates.
func TestStageIdleHandsOverOnes(t *testing.T) {
	rec := &batchRecorder{}
	st := NewStage(rec, 1, 1024, Block)
	for s := uint64(1); s <= 200; s++ {
		st.Emit(Event{Seq: s})
		waitFor(t, "the event to be processed", func() bool { return st.Processed() == s })
	}
	st.Close()
	for i, n := range rec.sizes {
		if n != 1 {
			t.Fatalf("take %d of an idle stage handed over %d events", i, n)
		}
	}
}

func TestStagePrefilledNeverExceedsCap(t *testing.T) {
	rec := &batchRecorder{gate: make(chan struct{})}
	st := NewStage(rec, 1, 1024, Block)
	st.Emit(Event{Seq: 1})
	waitFor(t, "worker to take the first event", func() bool { return st.Pending() == 0 })
	emitSeqs(st, 2, 1025) // fills the queue behind the stalled sink
	if st.Pending() != 1024 {
		t.Fatalf("pending %d, want 1024", st.Pending())
	}
	close(rec.gate)
	st.Close()
	if len(rec.seqs) != 1025 {
		t.Fatalf("delivered %d events, want 1025", len(rec.seqs))
	}
	largest := 0
	for _, n := range rec.sizes {
		if n > largest {
			largest = n
		}
	}
	if largest != takeCap {
		t.Fatalf("largest take from a full depth-1024 queue = %d, want the cap %d", largest, takeCap)
	}
	// Draining without new arrivals, the takes shrink with the backlog
	// down to single events.
	if last := rec.sizes[len(rec.sizes)-1]; last != 1 {
		t.Fatalf("last take of the drain = %d events, want 1", last)
	}
}

// emitOnly hides a sink's EmitBatch, as a wrapper written before
// BatchSink existed would.
type emitOnly struct{ inner Sink }

func (s emitOnly) Emit(e Event) { s.inner.Emit(e) }

func TestTeeBatchMatchesEmit(t *testing.T) {
	events := make([]Event, 300)
	for i := range events {
		events[i] = Event{Seq: uint64(i + 1), Kind: KindExec}
	}
	build := func() (Sink, *batchRecorder, *batchRecorder, *[]uint64) {
		batch, wrapped := &batchRecorder{}, &batchRecorder{}
		var fn []uint64
		tee := Tee(batch, nil, emitOnly{wrapped}, SinkFunc(func(e Event) { fn = append(fn, e.Seq) }), nil)
		return tee, batch, wrapped, &fn
	}
	perEvent, b1, w1, f1 := build()
	for _, e := range events {
		perEvent.Emit(e)
	}
	batched, b2, w2, f2 := build()
	bs, ok := batched.(BatchSink)
	if !ok {
		t.Fatal("Tee of several sinks is not a BatchSink")
	}
	bs.EmitBatch(events[:100])
	bs.EmitBatch(events[100:101])
	bs.EmitBatch(events[101:])
	bs.EmitBatch(nil)
	for name, pair := range map[string][2][]uint64{
		"batch member":    {b1.seqs, b2.seqs},
		"emit-only":       {w1.seqs, w2.seqs},
		"SinkFunc member": {*f1, *f2},
	} {
		if len(pair[0]) != len(events) || len(pair[1]) != len(events) {
			t.Fatalf("%s saw %d per-event and %d batched events, want %d", name, len(pair[0]), len(pair[1]), len(events))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s: order differs at %d", name, i)
			}
		}
	}
	// A batch reaches a BatchSink member in one call and an Emit-only
	// member one event at a time.
	if len(b2.sizes) != 4 || b2.sizes[0] != 100 || b2.sizes[1] != 1 || b2.sizes[2] != 199 || b2.sizes[3] != 0 {
		t.Fatalf("batch member saw calls of %v", b2.sizes)
	}
	if len(w2.sizes) != len(events) {
		t.Fatalf("emit-only member saw %d calls, want %d", len(w2.sizes), len(events))
	}

	one := &batchRecorder{}
	if got := Tee(nil, one, nil); got != Sink(one) {
		t.Fatalf("single survivor was wrapped: %T", got)
	}
	if got := Tee(nil, nil); got == nil {
		t.Fatal("empty Tee is nil")
	} else {
		got.Emit(Event{}) // Discard
	}
}
