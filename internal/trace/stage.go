package trace

import (
	"sync"
	"sync/atomic"
)

// DropPolicy selects what a full Stage queue does with a new event.
type DropPolicy int

const (
	// Block applies backpressure: Emit waits until queue space frees.
	// Nothing is ever lost; producers slow to the consumer's pace.
	Block DropPolicy = iota
	// DropNewest discards the incoming event when the queue is full and
	// increments the dropped counter. Producers never stall; the
	// counter makes the loss explicit and monitorable.
	DropNewest
)

// String names the policy for logs and reports.
func (p DropPolicy) String() string {
	if p == DropNewest {
		return "drop_newest"
	}
	return "block"
}

// The take rule: a worker that finds q events queued removes
// max(1, min(q/takeFraction, takeCap)) of them under one lock hold and
// hands them to the sink as one batch. The batch grows with the
// backlog only, and the worker never waits to fill one, so an idle
// stage hands over single events (a Tee runs a batch sink-major, so a
// batch of n delays its first event by n-1 events of every earlier
// member's work) while a saturated one hands over takeCap at a time.
//
// Measured on the 2-vCPU dev box with `go run ./bench`, seed 11
// (DESIGN.md, "Batch hand-off", has the table). live_saturate,
// events/s, three runs each; the channel stage this replaced does
// ~640k: q/4 capped at 8: 597k 823k 979k; at 32: 981k 872k 871k; at
// 128 (this rule): 902k 913k 1090k; q/2 at 128: 1082k 1020k 1059k;
// everything queued, at most 128: 1060k 1045k 1016k; everything queued
// (at most 1024): 1090k 1087k 1099k, but disk_bytes_per_event 39.75 to
// 39.79 in every run where this rule's median is 39.47 and the
// parent's 39.64 — a run of 1024 events from one tenant hands the
// segment dictionary's one-byte ids to that tenant's rare strings.
// live_paced latency_p50_ms, median of six rounds: parent 0.156, this
// rule 0.142, q/2 0.145, everything queued up to 128: 0.159 (the
// worker wakes to a whole 32-event frame).
const (
	takeFraction = 4
	takeCap      = 128
)

// Stage decouples event producers from a slow Sink: events are queued
// into bounded rings drained by workers that hand them to the wrapped
// sink — in batches through EmitBatch when the sink is a BatchSink, one
// Emit per event otherwise. It implements Sink, so any producer (a Bus
// subscriber, a monitor, a honeypot observer) can be made asynchronous
// by wrapping its downstream sink in a Stage.
//
// Each worker owns one lane: a ring of ceil(depth/workers) events with
// its own lock. Emit picks the lane by ShardIndex of the event's actor
// key, so every event of one actor passes through one ring and one
// worker: each actor's events reach the sink in the order they were
// emitted, and the relative order of different actors is unspecified.
// With N > 1 workers the sink must be safe for concurrent use (the
// sharded rules and core engines are). Under DropNewest an event is
// dropped when its own lane is full, whatever the other lanes hold.
//
// Events emitted after Close — including an Emit still parked on a
// full lane when Close arrives — are counted as dropped regardless of
// policy, never delivered, and never panic.
type Stage struct {
	sink    Sink
	policy  DropPolicy
	takeMax int // per-take ceiling: takeCap, or the lane size if smaller
	lanes   []lane

	wg        sync.WaitGroup
	accepted  atomic.Uint64
	processed atomic.Uint64
	dropped   atomic.Uint64
}

// lane is one worker's queue.
type lane struct {
	mu       sync.Mutex
	notEmpty sync.Cond // the worker parks here
	notFull  sync.Cond // Block producers park here
	ring     []Event   // the queue: ring[head], ring[head+1], ... (mod len), queued of them
	head     int
	queued   int
	closed   bool
}

// NewStage starts a stage delivering to sink with the given worker
// count (min 1), queue depth (default 1024) split evenly across the
// workers' lanes, and drop policy.
func NewStage(sink Sink, workers, depth int, policy DropPolicy) *Stage {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 1024
	}
	size := (depth + workers - 1) / workers
	st := &Stage{sink: sink, policy: policy, takeMax: min(size, takeCap), lanes: make([]lane, workers)}
	st.wg.Add(workers)
	for i := range st.lanes {
		ln := &st.lanes[i]
		ln.ring = make([]Event, size)
		ln.notEmpty.L = &ln.mu
		ln.notFull.L = &ln.mu
		go st.worker(ln)
	}
	return st
}

func (st *Stage) worker(ln *lane) {
	defer st.wg.Done()
	var batch []Event // this worker's copy of the run it took; borrowed by the sink per call
	for {
		ln.mu.Lock()
		for ln.queued == 0 && !ln.closed {
			ln.notEmpty.Wait()
		}
		if ln.queued == 0 {
			ln.mu.Unlock()
			return // closed and drained
		}
		n := min(max(ln.queued/takeFraction, 1), st.takeMax)
		batch = batch[:0]
		for n > 0 {
			run := ln.ring[ln.head:min(ln.head+n, len(ln.ring))]
			batch = append(batch, run...)
			clear(run) // like a channel receive: a consumed slot pins no strings
			ln.head = (ln.head + len(run)) % len(ln.ring)
			ln.queued -= len(run)
			n -= len(run)
		}
		// Waking costs two atomic loads when nobody is parked.
		ln.notFull.Broadcast()
		ln.mu.Unlock()

		EmitBatch(st.sink, batch)
		st.processed.Add(uint64(len(batch)))
		clear(batch)
	}
}

// Emit enqueues the event on its actor's lane, honoring the drop
// policy when that lane is full.
func (st *Stage) Emit(e Event) {
	ln := &st.lanes[0]
	if len(st.lanes) > 1 {
		ln = &st.lanes[ShardIndex(e.ActorKey(), len(st.lanes))]
	}
	ln.mu.Lock()
	for st.policy == Block && ln.queued == len(ln.ring) && !ln.closed {
		ln.notFull.Wait()
	}
	if ln.closed || ln.queued == len(ln.ring) {
		ln.mu.Unlock()
		st.dropped.Add(1)
		return
	}
	tail := ln.head + ln.queued
	if tail >= len(ln.ring) {
		tail -= len(ln.ring)
	}
	ln.ring[tail] = e
	ln.queued++
	// Counted under the lock that publishes the event: a drained stage
	// must satisfy Processed() == Accepted(), so the counter may never
	// lag behind an event a worker can already see.
	st.accepted.Add(1)
	ln.notEmpty.Signal()
	ln.mu.Unlock()
}

// Close stops accepting events, drains every lane, and waits for the
// workers to finish. It is idempotent.
func (st *Stage) Close() {
	for i := range st.lanes {
		ln := &st.lanes[i]
		ln.mu.Lock()
		if !ln.closed {
			ln.closed = true
			ln.notEmpty.Broadcast()
			ln.notFull.Broadcast()
		}
		ln.mu.Unlock()
	}
	st.wg.Wait()
}

// Accepted returns how many events were enqueued.
func (st *Stage) Accepted() uint64 { return st.accepted.Load() }

// Processed returns how many events the wrapped sink has consumed.
func (st *Stage) Processed() uint64 { return st.processed.Load() }

// Dropped returns how many events were discarded (a full lane under
// DropNewest, or emitted after Close).
func (st *Stage) Dropped() uint64 { return st.dropped.Load() }

// Pending returns the number of events queued on every lane and not
// yet taken by a worker.
func (st *Stage) Pending() int {
	n := 0
	for i := range st.lanes {
		ln := &st.lanes[i]
		ln.mu.Lock()
		n += ln.queued
		ln.mu.Unlock()
	}
	return n
}
