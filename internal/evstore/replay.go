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

// match is Match without the copy of the event: the form the per-frame
// decode paths call.
func (f Filter) match(e *trace.Event) bool {
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

// pushDown derives a frame-header skip predicate from the kind and
// actor facets: v2 frames carry both in the header, so a frame that
// cannot match is discarded after the CRC check without decoding its
// body. Time bounds are not in the header and stay with per-event
// Match — safe, because pushDown only skips frames Match would reject
// anyway. Returns nil when the filter has no pushable facet, which
// keeps the unfiltered decode loop branch-free.
func (f Filter) pushDown() func(kind trace.Kind, actor string) bool {
	if len(f.Kinds) == 0 && f.Actor == "" {
		return nil
	}
	return func(kind trace.Kind, actor string) bool {
		if len(f.Kinds) > 0 {
			ok := false
			for _, k := range f.Kinds {
				if kind == k {
					ok = true
					break
				}
			}
			if !ok {
				return true
			}
		}
		return f.Actor != "" && actor != f.Actor
	}
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
	Skipped          int64 // v2 frames discarded by header push-down, undecoded
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
	return s.scan(f, nil, func(e *trace.Event) error { return fn(*e) })
}

// scan is Scan with an optional decode scratch (Replay's serial path
// passes one carrying an arena; Scan passes nil). fn borrows the event
// for the call.
func (s *Store) scan(f Filter, sc *decodeScratch, fn func(*trace.Event) error) (ReplayStats, error) {
	segs := s.Segments()
	stats := ReplayStats{SegmentsTotal: len(segs)}
	skip := f.pushDown()
	if sc == nil {
		// Even without an arena, the read/payload buffers are reused
		// across the whole pass instead of re-allocated per segment.
		sc = &decodeScratch{}
	}
	for _, seg := range segs {
		if !f.MatchIndex(seg.Index) {
			continue
		}
		stats.SegmentsSelected++
		res, err := scanSegment(seg.Path, skip, sc, func(e *trace.Event) error {
			if !f.match(e) {
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

// segBuf is one decoded segment of a sharded replay: the events that
// passed the filter as a flat array, a parallel shard-tag array that
// shard worker w walks to copy out only its events, and the decode
// scratch — read buffer, payload buffer, dictionary slice, string
// arena — so recycling a segBuf recycles the whole per-segment decode
// state. Flat-plus-tags beats per-shard buckets because one array has
// one size to get right where skewed actor sharding gives every bucket
// its own.
//
// Recycling reuses containers only: arena chunks are append-only, so
// strings already handed to shard workers (or copied out by consumers)
// are never overwritten by the next segment decoded into the same
// segBuf. That is what makes it safe to release a segment before a
// worker's partial cross-segment batch has been flushed to process,
// and to hand the buffer to another Replay call altogether.
type segBuf struct {
	events []trace.Event
	shard  []uint32
	sc     decodeScratch
}

// Replay feeds matching events to process in batches, sharded by
// actor across `workers` goroutines — the store-native equivalent of
// workload.Replay, without ever materializing the trace.
//
// Parallelism is two-level: segments decode concurrently (bounded
// look-ahead), and each decoded segment's events are tagged by shard
// and consumed by the shard workers strictly in segment order. One
// actor's events therefore arrive at its single shard worker in
// append order even though decoding overlaps — the same per-group
// serial-equivalence contract as workload.Replay — while segments the
// sidecar index rules out (wrong kinds, disjoint time window, absent
// actor) are never read at all.
//
// Borrow contract: the batch slice passed to process is reused, so
// process must not retain the slice or the Event structs in it past
// the callback's return. Event string fields are decoded into
// per-segment arenas (trace.Arena) whose chunks are append-only and
// GC-owned, so a string a consumer does copy out by reference stays
// valid — retaining one merely pins its chunk. Consumers that keep
// anything long-lived should still copy explicitly; see DESIGN.md
// "Replay memory model".
func (s *Store) Replay(f Filter, workers, batch int, process func([]trace.Event)) (ReplayStats, error) {
	if workers <= 0 {
		workers = 1
	}
	if batch <= 0 {
		batch = 256
	}
	if workers == 1 {
		// Serial path: one scratch (read buffer, payload, dictionary,
		// arena) serves every segment of the pass, so the whole replay
		// costs O(segments) allocations, same as the sharded path.
		sc := &decodeScratch{arena: &trace.Arena{}}
		buf := make([]trace.Event, 0, batch)
		stats, err := s.scan(f, sc, func(e *trace.Event) error {
			buf = append(buf, *e)
			if len(buf) == batch {
				process(buf)
				buf = buf[:0]
			}
			return nil
		})
		if len(buf) > 0 {
			process(buf)
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
	skip := f.pushDown()

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
				if n := f.mayMatch(segs[i].Index); cap(sb.events) < n {
					sb.events = make([]trace.Event, 0, n)
					sb.shard = make([]uint32, 0, n)
				}
				st.res, st.err = scanSegment(segs[i].Path, skip, &sb.sc, func(e *trace.Event) error {
					if f.match(e) {
						sb.events = append(sb.events, *e)
						sb.shard = append(sb.shard, uint32(trace.ShardIndex(e.ActorKey(), workers)))
					}
					return nil
				})
				st.buf, st.matched = sb, len(sb.events)
				close(st.done)
			}(i)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := uint32(w)
			buf := make([]trace.Event, 0, batch)
			for _, st := range states {
				<-st.done
				sb := st.buf
				for j, sh := range sb.shard {
					if sh != mine {
						continue
					}
					buf = append(buf, sb.events[j])
					if len(buf) == batch {
						process(buf)
						buf = buf[:0]
					}
				}
				if st.readers.Add(-1) == 0 {
					// Parked all zero and empty: the buffer holds its own
					// capacity, not the arena chunks of what it last decoded
					// (decodeFrames has cleared the dictionary the same way).
					st.buf = nil
					clear(sb.events)
					sb.events, sb.shard = sb.events[:0], sb.shard[:0]
					select {
					case s.free <- sb:
					default:
					}
					<-slots
				}
			}
			if len(buf) > 0 {
				process(buf)
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
