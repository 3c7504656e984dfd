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
func (f Filter) Match(e trace.Event) bool {
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
	if f.Actor != "" && trace.ActorKey(e) != f.Actor {
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
	return s.scan(f, nil, fn)
}

// scan is Scan with an optional decode scratch (Replay's serial path
// passes one carrying an arena; Scan passes nil).
func (s *Store) scan(f Filter, sc *decodeScratch, fn func(trace.Event) error) (ReplayStats, error) {
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
		res, err := scanSegment(seg.Path, skip, sc, func(e trace.Event) error {
			stats.Decoded++
			if !f.Match(e) {
				return nil
			}
			stats.Events++
			return fn(e)
		})
		stats.Skipped += int64(res.Skipped)
		stats.TailLossBytes += res.TailLossBytes
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// Replay feeds matching events to process in batches, sharded by
// actor across `workers` goroutines — the store-native equivalent of
// workload.Replay, without ever materializing the trace.
//
// Parallelism is two-level: segments decode concurrently (bounded
// look-ahead), and each decoded segment is split into per-shard
// buckets that shard workers consume strictly in segment order. One
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
		stats, err := s.scan(f, sc, func(e trace.Event) error {
			buf = append(buf, e)
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

	skip := f.pushDown()
	var decoded, skipped, matched, tailLoss atomic.Int64
	var errMu sync.Mutex
	var firstErr error

	// Each decoded segment materializes once as a flat event array
	// plus a parallel shard-tag array; shard worker w walks the tags
	// and copies out only its events. Flat-plus-tags beats per-shard
	// buckets because the sidecar records the segment's exact event
	// count: the array is allocated right-sized and never regrows,
	// where skewed actor sharding made bucket growth (and the zeroing
	// of ever-larger backing arrays) the replay's dominant cost.
	// Each segBuf also owns the decode scratch — read buffer, payload
	// buffer, dictionary slice, and the string arena — so recycling a
	// buffer through the free list recycles the whole per-segment
	// decode state. Recycling reuses containers only: arena chunks are
	// append-only, so strings already handed to shard workers (or
	// copied out by consumers) are never overwritten by the next
	// segment decoded into the same segBuf. That is what makes it safe
	// to release a segment before a worker's partial cross-segment
	// batch has been flushed to process.
	type segBuf struct {
		events []trace.Event
		shard  []uint32
		sc     decodeScratch
	}
	type segState struct {
		buf     *segBuf // valid once done is closed
		done    chan struct{}
		readers atomic.Int32 // shard workers yet to finish with it
	}
	states := make([]*segState, len(segs))
	for i := range states {
		st := &segState{done: make(chan struct{})}
		st.readers.Store(int32(workers))
		states[i] = st
	}

	// Bounded decode look-ahead keeps at most a few segments'
	// filtered events in memory at once. Look-ahead past the
	// machine's parallelism can't speed decoding up — it only holds
	// more segments live — so the bound also caps at GOMAXPROCS+2,
	// which is what lets the free list actually recycle buffers
	// mid-pass on small stores. Drained buffers recycle through that
	// free list (a channel, not a sync.Pool: mid-pass GC would purge
	// a pool's warm capacity exactly when it matters).
	ahead := workers + 2
	if p := runtime.GOMAXPROCS(0) + 2; ahead > p {
		ahead = p
	}
	if ahead > len(segs) {
		ahead = len(segs)
	}
	slots := make(chan struct{}, ahead)
	free := make(chan *segBuf, ahead)

	go func() {
		for i := range segs {
			slots <- struct{}{} // released when every shard is done with segment i
			go func(i int) {
				st := states[i]
				var sb *segBuf
				select {
				case sb = <-free:
				default:
					sb = &segBuf{sc: decodeScratch{arena: &trace.Arena{}}}
				}
				n := segs[i].Index.Events
				if cap(sb.events) < n {
					sb.events = make([]trace.Event, 0, n)
					sb.shard = make([]uint32, 0, n)
				} else {
					sb.events = sb.events[:0]
					sb.shard = sb.shard[:0]
				}
				res, err := scanSegment(segs[i].Path, skip, &sb.sc, func(e trace.Event) error {
					decoded.Add(1)
					if !f.Match(e) {
						return nil
					}
					matched.Add(1)
					sb.events = append(sb.events, e)
					sb.shard = append(sb.shard, uint32(trace.ShardIndex(trace.ActorKey(e), workers)))
					return nil
				})
				skipped.Add(int64(res.Skipped))
				tailLoss.Add(res.TailLossBytes)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
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
			mine := uint32(w)
			buf := make([]trace.Event, 0, batch)
			for i := range segs {
				st := states[i]
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
					select {
					case free <- sb:
					default:
					}
					st.buf = nil
					<-slots
				}
			}
			if len(buf) > 0 {
				process(buf)
			}
		}(w)
	}
	wg.Wait()

	stats.Decoded = decoded.Load()
	stats.Skipped = skipped.Load()
	stats.Events = matched.Load()
	stats.TailLossBytes = tailLoss.Load()
	return stats, firstErr
}
