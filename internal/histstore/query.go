package histstore

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/seglog"
)

// Query is a history filter. Every predicate is either constant per
// incident (Actor, Class), a minimum threshold over a monotone
// aggregate (MinSeverity, MinBand), or interval overlap with the
// incident's only-growing [Opened, LastAlert] window (Since, Until) —
// the three shapes for which segment pruning plus keep-the-final-
// record reconstruction is provably exact. An equality filter over a
// changing aggregate (e.g. "risk band == moderate") would not be: the
// final record's segment could be pruned while a stale lower-band
// record survives in a visited one.
type Query struct {
	// Actor matches the incident/alert actor exactly; "" matches any.
	Actor string
	// Class matches the incident/alert class exactly; "" matches any.
	Class string
	// MinSeverity keeps records at or above this severity; "" keeps
	// all.
	MinSeverity rules.Severity
	// MinBand keeps incidents whose risk band is at or above this
	// band; "" keeps all. Alerts carry no risk score, so QueryAlerts
	// ignores it.
	MinBand Band
	// Since/Until bound the time window (inclusive); zero means
	// unbounded. An incident matches when [Opened, LastAlert] overlaps
	// the window; an alert when its Time falls inside it.
	Since time.Time
	Until time.Time
}

// MatchIndex reports whether a segment with this index could contain
// a matching record. Missing facets fail open (match), mirroring
// evstore.Filter.MatchIndex: pruning is an optimization, never a
// correctness dependency.
func (q Query) MatchIndex(ix Index) bool {
	if !q.Since.IsZero() && !ix.MaxTime.IsZero() && ix.MaxTime.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !ix.MinTime.IsZero() && ix.MinTime.After(q.Until) {
		return false
	}
	if q.MinSeverity != "" && len(ix.Severities) > 0 {
		min := q.MinSeverity.Rank()
		ok := false
		for sev := range ix.Severities {
			if rules.Severity(sev).Rank() >= min {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if q.MinBand != "" && len(ix.Bands) > 0 {
		min := BandRank(q.MinBand)
		ok := false
		for band := range ix.Bands {
			if BandRank(Band(band)) >= min {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if q.Actor != "" && !ix.ActorsOverflow && len(ix.Actors) > 0 && !contains(ix.Actors, q.Actor) {
		return false
	}
	if q.Class != "" && !ix.ClassesOverflow && len(ix.Classes) > 0 && !contains(ix.Classes, q.Class) {
		return false
	}
	return true
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// matchIncident applies the record-level predicate. Monotonicity
// guarantees that if any record of an incident matches, the
// incident's final record matches too, so dedup-by-max-count over the
// matching records yields exactly the final states.
func (q Query) matchIncident(in IncidentRecord) bool {
	if q.Actor != "" && in.Actor != q.Actor {
		return false
	}
	if q.Class != "" && in.Class != q.Class {
		return false
	}
	if q.MinSeverity != "" && in.Severity.Rank() < q.MinSeverity.Rank() {
		return false
	}
	if q.MinBand != "" && BandRank(RiskBandOf(in.RiskScore)) < BandRank(q.MinBand) {
		return false
	}
	if !q.Since.IsZero() && in.LastAlert.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && in.Opened.After(q.Until) {
		return false
	}
	return true
}

// matchAlert applies the record-level predicate to an alert record.
func (q Query) matchAlert(a AlertRecord) bool {
	if q.Actor != "" && a.Actor != q.Actor {
		return false
	}
	if q.Class != "" && a.Class != q.Class {
		return false
	}
	if q.MinSeverity != "" && a.Severity.Rank() < q.MinSeverity.Rank() {
		return false
	}
	if !q.Since.IsZero() && a.Time.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && a.Time.After(q.Until) {
		return false
	}
	return true
}

// QueryStats reports what a query scan cost: how many segments the
// index pruned versus scanned, how many records the survivors held,
// and any unreadable tail bytes encountered (a live writer's
// unflushed suffix reads as tail loss — expected, not an error).
type QueryStats struct {
	SegmentsTotal    int
	SegmentsSelected int
	Records          int
	TailLossBytes    int64
}

// scan feeds fn every record of the segments q's index check cannot
// rule out, in log order. One frame reader serves the whole call.
func (q Query) scan(s *Store, fn func(Record)) (QueryStats, error) {
	var st QueryStats
	var sc seglog.Scratch
	segs := s.Segments()
	st.SegmentsTotal = len(segs)
	for _, seg := range segs {
		if !q.MatchIndex(seg.Index) {
			continue
		}
		st.SegmentsSelected++
		res, err := scanSegment(seg.Path, &sc, func(r Record) error {
			st.Records++
			fn(r)
			return nil
		})
		if err != nil {
			return st, err
		}
		st.TailLossBytes += res.TailLossBytes
	}
	return st, nil
}

// QueryIncidents reconstructs the final state of every incident
// matching q: segments the index rules out are never opened, matching
// incident records dedup by (actor, class, generation) keeping the
// highest alert count — the latest snapshot, by monotonicity — and
// the result is materialized as core.Incident values (Count set,
// Alerts payload absent) sorted by actor, class, then generation, so
// equal histories render byte-identical tables regardless of segment
// layout or writer concurrency.
func QueryIncidents(s *Store, q Query) ([]*core.Incident, QueryStats, error) {
	// A struct key, not a joined string: actors come from tenant input,
	// and no separator byte is one an actor cannot contain.
	type incidentKey struct {
		actor, class string
		gen          int
	}
	finals := map[incidentKey]IncidentRecord{}
	st, err := q.scan(s, func(r Record) {
		if r.Kind != KindIncident || !q.matchIncident(r.Incident) {
			return
		}
		key := incidentKey{r.Incident.Actor, r.Incident.Class, r.Incident.Gen}
		if prev, ok := finals[key]; !ok || r.Incident.Alerts > prev.Alerts {
			finals[key] = r.Incident
		}
	})
	if err != nil {
		return nil, st, err
	}
	incs := make([]*core.Incident, 0, len(finals))
	for _, in := range finals {
		incs = append(incs, &core.Incident{
			Actor:     in.Actor,
			Class:     in.Class,
			Opened:    in.Opened,
			LastAlert: in.LastAlert,
			Severity:  in.Severity,
			RiskScore: in.RiskScore,
			Count:     in.Alerts,
		})
	}
	sort.Slice(incs, func(i, j int) bool {
		a, b := incs[i], incs[j]
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Opened.Before(b.Opened)
	})
	return incs, st, nil
}

// QueryAlerts returns the alert records matching q, sorted by time,
// then actor, rule, and class for a deterministic listing.
func QueryAlerts(s *Store, q Query) ([]AlertRecord, QueryStats, error) {
	var out []AlertRecord
	st, err := q.scan(s, func(r Record) {
		if r.Kind == KindAlert && q.matchAlert(r.Alert) {
			out = append(out, r.Alert)
		}
	})
	if err != nil {
		return nil, st, err
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Time.Equal(b.Time) {
			return a.Time.Before(b.Time)
		}
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		if a.RuleID != b.RuleID {
			return a.RuleID < b.RuleID
		}
		return a.Class < b.Class
	})
	return out, st, nil
}

// FilterIncidents applies q's record-level predicate to live engine
// snapshots — the re-detection side of the equality contract: a query
// over recorded history must equal FilterIncidents over the incidents
// a fresh detection pass produces.
func FilterIncidents(incs []*core.Incident, q Query) []*core.Incident {
	out := make([]*core.Incident, 0, len(incs))
	for _, inc := range incs {
		rec := IncidentRecord{
			Actor:     inc.Actor,
			Class:     inc.Class,
			Opened:    inc.Opened,
			LastAlert: inc.LastAlert,
			Alerts:    inc.AlertCount(),
			Severity:  inc.Severity,
			RiskScore: inc.RiskScore,
		}
		if q.matchIncident(rec) {
			out = append(out, inc)
		}
	}
	return out
}

// Recorder adapts the core engine's hooks to history appends: wire
// OnAlert and OnIncidentUpdate into core.Options (or chain them after
// existing callbacks) and every fired alert and post-fold incident
// state lands in the store. Both hooks may be invoked concurrently
// from engine workers; the store serializes internally and the first
// failure is sticky — check Err after draining.
type Recorder struct {
	s *Store
}

// NewRecorder returns a Recorder appending to s.
func NewRecorder(s *Store) *Recorder { return &Recorder{s: s} }

// OnAlert records one fired alert.
func (r *Recorder) OnAlert(a rules.Alert) {
	_ = r.s.AppendAlert(AlertRecord{
		Time:     a.Time,
		Actor:    core.AlertActor(a),
		Class:    a.Class,
		RuleID:   a.RuleID,
		Severity: a.Severity,
		Count:    a.Count,
	})
}

// OnIncidentUpdate records one incident snapshot.
func (r *Recorder) OnIncidentUpdate(u core.IncidentUpdate) {
	_ = r.s.AppendIncident(IncidentRecord{
		Actor:     u.Actor,
		Class:     u.Class,
		Gen:       u.Gen,
		Opened:    u.Opened,
		LastAlert: u.LastAlert,
		Alerts:    u.Alerts,
		Severity:  u.Severity,
		RiskScore: u.RiskScore,
	})
}

// Err reports the store's first append failure, or nil.
func (r *Recorder) Err() error { return r.s.Err() }

// Store returns the underlying history store.
func (r *Recorder) Store() *Store { return r.s }
