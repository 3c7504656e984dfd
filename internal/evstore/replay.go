package evstore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Filter selects a slice of the log. The zero Filter matches every
// event. Time bounds are inclusive; zero times mean unbounded. A
// segment whose sidecar proves no event can match is skipped without
// reading it.
type Filter struct {
	Since time.Time
	Until time.Time
	Kinds []trace.Kind
	Actor string
}

// Match reports whether one event passes the filter.
func (f Filter) Match(e trace.Event) bool { return f.match(&e) }

// match is Match without the copies of the event and the filter: the
// form the per-frame decode paths call.
func (f *Filter) match(e *trace.Event) bool {
	if !f.Since.IsZero() && e.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && e.Time.After(f.Until) {
		return false
	}
	if len(f.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if e.Kind == k {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Actor != "" && e.ActorKey() != f.Actor {
		return false
	}
	return true
}

// MatchIndex reports whether a segment with the given sidecar could
// contain matching events. Unknown index facets (zero time range,
// overflowed actor list) fail open: the segment is read and per-event
// Match decides. Exported so callers correlating per-segment metadata
// (e.g. open-time recovery reports) with a filtered replay can tell
// which segments the replay actually visited.
func (f Filter) MatchIndex(ix Index) bool {
	if !f.Since.IsZero() && !ix.MaxTime.IsZero() && ix.MaxTime.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && !ix.MinTime.IsZero() && ix.MinTime.After(f.Until) {
		return false
	}
	if len(f.Kinds) > 0 && len(ix.Kinds) > 0 {
		ok := false
		for _, k := range f.Kinds {
			if ix.Kinds[k] > 0 {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Actor != "" && !ix.ActorsOverflow && len(ix.Actors) > 0 {
		ok := false
		for _, a := range ix.Actors {
			if a == f.Actor {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// pushDown returns f when a frame header can rule an event out: the
// header carries the kind and actor key, so a frame that cannot match
// is discarded after the CRC check without decoding its body. Time
// bounds are not in the header and stay with per-event Match — safe,
// because push-down only skips frames whose header Match would reject.
// Returns nil when the filter has no kind or actor facet, which keeps
// the unfiltered decode loop free of header checks.
func (f *Filter) pushDown() *Filter {
	if len(f.Kinds) == 0 && f.Actor == "" {
		return nil
	}
	return f
}

// A verdict records which header facets of a filter one string passes:
// as a frame's kind, as its actor key, both or neither.
type verdict uint8

const (
	kindPasses verdict = 1 << iota
	actorPasses
)

// judge gives the verdict on one header string, as the bytes it is encoded from,
// against f's kind and actor facets; a facet f does not set passes.
func (f *Filter) judge(s []byte) verdict {
	var v verdict
	if len(f.Kinds) == 0 {
		v = kindPasses
	}
	for _, k := range f.Kinds {
		if string(s) == string(k) {
			v = kindPasses
			break
		}
	}
	if f.Actor == "" || string(s) == f.Actor {
		v |= actorPasses
	}
	return v
}

// mayMatch bounds, from the sidecar alone, how many events of a
// segment can pass f: every one for the zero filter, the requested
// kinds' counts for a kinds-only filter. Time and actor facets have no
// per-event counts in the sidecar, so for them it returns 0 — no bound
// known — and Replay starts from whatever capacity a recycled buffer
// brings and grows by append.
func (f Filter) mayMatch(ix Index) int {
	if f.Actor != "" || !f.Since.IsZero() || !f.Until.IsZero() {
		return 0
	}
	if len(f.Kinds) == 0 {
		return ix.Events
	}
	n := 0
	for _, k := range f.Kinds {
		n += ix.Kinds[k]
	}
	return min(n, ix.Events) // a kind listed twice counts twice
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	SegmentsTotal    int   // sealed segments in the store
	SegmentsSelected int   // segments the index could not rule out
	Decoded          int64 // frames decoded across selected segments
	Skipped          int64 // event frames discarded by header push-down, undecoded
	Events           int64 // events delivered after per-event filtering
	TailLossBytes    int64 // corrupt trailing bytes skipped during the pass
}

// Scan streams matching events in log order through fn — the serial
// consumer path (export, conversion). Corrupt segment tails are
// skipped and counted, mirroring Replay. A non-nil error from fn
// aborts the scan. Scan keeps plain copying semantics: every event's
// strings are ordinary heap strings the caller may retain freely (no
// arena), which is what export/conversion consumers expect.
func (s *Store) Scan(f Filter, fn func(trace.Event) error) (ReplayStats, error) {
	return s.scan(f, nil, nil, func(e *trace.Event) error { return fn(*e) })
}

// scan is Scan with an optional decode scratch and destination
// (Replay's serial path passes a scratch carrying an arena and a take
// into its run; Scan passes nil for both — see decodeFrames). fn sees
// only matching events; a slot the filter rejects is handed back zero.
func (s *Store) scan(f Filter, sc *decodeScratch, take func(actor string) *trace.Event, fn func(*trace.Event) error) (ReplayStats, error) {
	segs := s.Segments()
	stats := ReplayStats{SegmentsTotal: len(segs)}
	push := f.pushDown()
	if sc == nil {
		// Even without an arena, the read window is reused across the
		// whole pass instead of re-allocated per segment.
		sc = &decodeScratch{}
	}
	for _, seg := range segs {
		if !f.MatchIndex(seg.Index) {
			continue
		}
		stats.SegmentsSelected++
		res, err := scanSegment(seg.Path, push, sc, take, func(e *trace.Event) error {
			if !f.match(e) {
				*e = trace.Event{}
				return nil
			}
			stats.Events++
			return fn(e)
		})
		stats.Decoded += int64(res.Events)
		stats.Skipped += int64(res.Skipped)
		stats.TailLossBytes += res.TailLossBytes
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// segBuf is one decoded segment of a sharded replay: one run per shard
// worker, holding the matching events of that worker's actors in
// decode order, and the decode scratch — read window, dictionary and
// verdict slices, string arena — so recycling a segBuf recycles the
// whole per-segment decode state. Each event body decodes straight
// into the spare slot of its run (spare): the frame-header actor picks
// the run before the body is read, and decodeFrames refuses an event
// whose own actor key is another. Every slot not in a run is zero —
// fresh, cleared by its worker after delivery, or handed back by the
// decode — which is what decoding in place needs.
//
// A run is a list of batch-long chunks, each delivered whole, drawn
// from one pool per buffer: skewed actor sharding gives every run its
// own length, but the runs of a segment together need only the chunks
// for what it matched plus a part-filled one each, so a pool sized by
// the sidecar fits whichever worker the events shard to.
//
// Recycling reuses containers only: arena chunks are append-only, so
// strings already handed to shard workers (or copied out by consumers)
// are never overwritten by the next segment decoded into the same
// segBuf, and the buffer can go to another Replay call altogether.
type segBuf struct {
	runs  [][][]trace.Event // per worker, its chunks; all but the last full
	free  [][]trace.Event   // empty chunks of batch events, every slot zero
	batch int
	sc    decodeScratch
}

// ready gives sb an empty run per worker and pools chunks of batch
// events enough to hold the n events the sidecar says can match; past
// that (or with no bound known) a run takes a fresh chunk when it needs
// one. Chunks of another batch length are dropped.
func (sb *segBuf) ready(workers, batch, n int) {
	if len(sb.runs) != workers {
		sb.runs = make([][][]trace.Event, workers)
	}
	if sb.batch != batch {
		clear(sb.free)
		sb.free, sb.batch = sb.free[:0], batch
	}
	if want := (n+batch-1)/batch + workers; len(sb.free) < want {
		// One allocation for the shortfall, carved into chunks.
		slab := make([]trace.Event, (want-len(sb.free))*batch)
		for i := 0; i < len(slab); i += batch {
			sb.free = append(sb.free, slab[i:i:i+batch])
		}
	}
}

// spare returns the first free slot of worker w's run, starting a new
// chunk when the last one is full. The slot joins the run on keep.
func (sb *segBuf) spare(w int) *trace.Event {
	run := sb.runs[w]
	if len(run) == 0 || len(run[len(run)-1]) == sb.batch {
		if n := len(sb.free); n > 0 {
			run = append(run, sb.free[n-1])
			sb.free = sb.free[:n-1]
		} else {
			run = append(run, make([]trace.Event, 0, sb.batch))
		}
		sb.runs[w] = run
	}
	last := run[len(run)-1]
	return &last[:len(last)+1][len(last)]
}

// keep extends worker w's run over the slot spare returned.
func (sb *segBuf) keep(w int) {
	last := &sb.runs[w][len(sb.runs[w])-1]
	*last = (*last)[:len(*last)+1]
}

// Replay feeds matching events to process in batches, sharded by
// actor (trace.ShardIndex of the actor key) across `workers`
// goroutines, without ever materializing the trace.
//
// Parallelism is two-level: segments decode concurrently (bounded
// look-ahead), each into one run per shard worker, and every worker
// consumes its own run of each segment strictly in segment order. One
// actor's events therefore arrive at its single shard worker in
// append order even though decoding overlaps — the same per-group
// serial-equivalence contract as a multi-worker trace.Stage — while
// segments the sidecar index rules out (wrong kinds, disjoint time
// window, absent actor) are never read at all.
//
// Borrow contract: process gets the slots events were decoded into, a
// batch at a time, and they are cleared and decoded over once it
// returns, so process must not retain the slice or the Event structs
// in it past the callback's return. A batch's capacity ends at its
// length: appending to it copies rather than overwriting the events
// that follow. Event string fields are decoded into per-segment arenas
// (trace.Arena) whose chunks are append-only and GC-owned, so a string
// a consumer does copy out by reference stays valid — retaining one
// merely pins its chunk. Consumers that keep anything long-lived
// should still copy explicitly; see DESIGN.md "Replay memory model".
func (s *Store) Replay(f Filter, workers, batch int, process func([]trace.Event)) (ReplayStats, error) {
	if workers <= 0 {
		workers = 1
	}
	if batch <= 0 {
		batch = 256
	}
	if workers == 1 {
		// Serial path: one scratch (read window, dictionary, arena)
		// serves every segment of the pass, so the whole replay
		// costs O(segments) allocations, same as the sharded path. The
		// run is one batch long, delivered and cleared whenever it fills.
		sc := &decodeScratch{arena: &trace.Arena{}}
		run := make([]trace.Event, 0, batch)
		flush := func() {
			process(run[:len(run):len(run)])
			clear(run)
			run = run[:0]
		}
		stats, err := s.scan(f, sc, func(string) *trace.Event { return &run[:len(run)+1][len(run)] }, func(*trace.Event) error {
			if run = run[:len(run)+1]; len(run) == batch {
				flush()
			}
			return nil
		})
		if len(run) > 0 {
			flush()
		}
		return stats, err
	}

	all := s.Segments()
	stats := ReplayStats{SegmentsTotal: len(all)}
	var segs []SegmentInfo
	for _, seg := range all {
		if f.MatchIndex(seg.Index) {
			segs = append(segs, seg)
		}
	}
	stats.SegmentsSelected = len(segs)
	if len(segs) == 0 {
		return stats, nil
	}

	// Each selected segment materializes once, into a segBuf taken from
	// the store's free list and sized by what the sidecar says can match
	// (mayMatch), not by what the segment holds: a filtered question
	// pays for the events it delivers. The decode goroutine fills in
	// everything but readers and closes done; the totals are read after
	// the last worker has seen every done.
	type segState struct {
		buf     *segBuf // valid once done is closed, until the last reader parks it
		res     DecodeResult
		matched int
		err     error
		done    chan struct{}
		readers atomic.Int32 // shard workers yet to finish with it
	}
	states := make([]*segState, len(segs))
	for i := range states {
		st := &segState{done: make(chan struct{})}
		st.readers.Store(int32(workers))
		states[i] = st
	}

	// Bounded decode look-ahead keeps at most a few segments' filtered
	// events in memory at once. Look-ahead past the machine's
	// parallelism can't speed decoding up — it only holds more segments
	// live — so the bound also caps at GOMAXPROCS+2, which is also the
	// size of the store's free list: every buffer one call drains finds
	// a place to park.
	ahead := min(workers+2, runtime.GOMAXPROCS(0)+2, len(segs))
	slots := make(chan struct{}, ahead)
	push := f.pushDown()

	go func() {
		for i := range segs {
			slots <- struct{}{} // released when every shard is done with segment i
			go func(i int) {
				st := states[i]
				var sb *segBuf
				select {
				case sb = <-s.free:
				default:
					sb = &segBuf{sc: decodeScratch{arena: &trace.Arena{}}}
				}
				sb.ready(workers, batch, f.mayMatch(segs[i].Index))
				var w int // run the slot being decoded came from
				st.res, st.err = scanSegment(segs[i].Path, push, &sb.sc, func(actor string) *trace.Event {
					w = trace.ShardIndex(actor, workers)
					return sb.spare(w)
				}, func(e *trace.Event) error {
					if !f.match(e) {
						*e = trace.Event{}
						return nil
					}
					sb.keep(w)
					return nil
				})
				for _, run := range sb.runs {
					for _, c := range run {
						st.matched += len(c)
					}
				}
				st.buf = sb
				close(st.done)
			}(i)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, st := range states {
				<-st.done
				sb := st.buf
				run := sb.runs[w]
				for i, c := range run {
					// The last chunk is empty when the slot that opened it
					// was handed back.
					if len(c) > 0 {
						process(c[:len(c):len(c)])
					}
					// Parked all zero and empty: the buffer holds its own
					// capacity, not the arena chunks of what it last
					// decoded (decodeFrames clears the dictionary the same
					// way).
					clear(c)
					run[i] = c[:0]
				}
				if st.readers.Add(-1) == 0 {
					st.buf = nil
					for i, run := range sb.runs {
						sb.free = append(sb.free, run...)
						clear(run)
						sb.runs[i] = run[:0]
					}
					select {
					case s.free <- sb:
					default:
					}
					<-slots
				}
			}
		}(w)
	}
	wg.Wait()

	var firstErr error
	for _, st := range states {
		stats.Decoded += int64(st.res.Events)
		stats.Skipped += int64(st.res.Skipped)
		stats.Events += int64(st.matched)
		stats.TailLossBytes += st.res.TailLossBytes
		if firstErr == nil {
			firstErr = st.err
		}
	}
	return stats, firstErr
}
