package histstore

import (
	"cmp"
	"slices"
	"strings"
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
	// the window; an alert when its Time falls inside it. A record
	// whose Opened or Time is zero matches no bounded window.
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

// match applies the record-level predicate, on the borrowed bytes
// (string(b) == s compiles to a compare, not a copy). It is the only
// one: both queries and FilterIncidents call it, and an alert is the
// degenerate interval opened == last (see view). Monotonicity
// guarantees that if any record of an incident matches, the
// incident's final record matches too, so dedup-by-max-count over the
// matching records yields exactly the final states.
func (q *Query) match(v *view) bool {
	if q.Actor != "" && string(v.actor) != q.Actor {
		return false
	}
	if q.Class != "" && string(v.class) != q.Class {
		return false
	}
	if q.MinSeverity != "" && rules.Severity(v.sev).Rank() < q.MinSeverity.Rank() {
		return false
	}
	if q.MinBand != "" && v.kind == KindIncident && BandRank(RiskBandOf(v.risk)) < BandRank(q.MinBand) {
		return false
	}
	if !q.Since.IsZero() && v.last.Before(q.Since) {
		return false
	}
	// A zero time lies in no bounded window: it is before every Since
	// already, and must be outside every Until too, because the index's
	// MinTime skips it and would prune the segment.
	if !q.Until.IsZero() && (v.opened.IsZero() || v.opened.After(q.Until)) {
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
// rule out, in log order, as a view borrowed for the call. One frame
// reader serves the whole call.
func (q *Query) scan(s *Store, fn func(*view) error) (QueryStats, error) {
	var st QueryStats
	var sc seglog.Scratch
	segs := s.Segments()
	st.SegmentsTotal = len(segs)
	for _, seg := range segs {
		if !q.MatchIndex(seg.Index) {
			continue
		}
		st.SegmentsSelected++
		res, err := scanSegment(seg.Path, &sc, fn)
		st.Records += res.Records
		if err != nil {
			return st, err
		}
		st.TailLossBytes += res.TailLossBytes
	}
	return st, nil
}

// interner copies borrowed bytes out as strings, once per distinct
// value: a result set repeats a handful of severities, classes and rule
// ids and one actor per incident. It lives for one query, so it holds
// nothing a result does not.
type interner map[string]string

func (in interner) str(b []byte) string {
	s, ok := in[string(b)]
	if !ok {
		s = string(b)
		in[s] = s
	}
	return s
}

// QueryIncidents reconstructs the final state of every incident
// matching q: segments the index rules out are never opened, matching
// incident records dedup by (actor, class, generation) keeping the
// highest alert count — the latest snapshot, by monotonicity — and
// the result is materialized as core.Incident values (Count set,
// Alerts payload absent) sorted by actor, class, then opening time
// (successive generations of one pair open in order), so equal
// histories render byte-identical tables regardless of segment layout
// or writer concurrency.
func QueryIncidents(s *Store, q Query) ([]*core.Incident, QueryStats, error) {
	// A struct key, not a joined string: actors come from tenant input,
	// and no separator byte is one an actor cannot contain.
	type incidentKey struct {
		actor, class string
		gen          int
	}
	var finals []core.Incident // one backing array for the result
	at := map[incidentKey]int{}
	in := interner{}
	st, err := q.scan(s, func(v *view) error {
		if v.kind != KindIncident || !q.match(v) {
			return nil
		}
		// Looked up on the borrowed bytes; strings exist only from an
		// incident's first record on.
		i, seen := at[incidentKey{string(v.actor), string(v.class), v.gen}]
		if !seen {
			i = len(finals)
			actor, class := in.str(v.actor), in.str(v.class)
			at[incidentKey{actor, class, v.gen}] = i
			finals = append(finals, core.Incident{Actor: actor, Class: class})
		} else if v.count <= finals[i].Count {
			return nil
		}
		inc := &finals[i]
		inc.Opened, inc.LastAlert, inc.RiskScore, inc.Count = v.opened, v.last, v.risk, v.count
		// Severity changes on few updates; skip the map lookup when not.
		if string(v.sev) != string(inc.Severity) {
			inc.Severity = rules.Severity(in.str(v.sev))
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	incs := make([]*core.Incident, len(finals))
	for i := range finals {
		incs[i] = &finals[i]
	}
	slices.SortFunc(incs, func(a, b *core.Incident) int {
		if c := strings.Compare(a.Actor, b.Actor); c != 0 {
			return c
		}
		if c := strings.Compare(a.Class, b.Class); c != 0 {
			return c
		}
		return a.Opened.Compare(b.Opened)
	})
	return incs, st, nil
}

// QueryAlerts returns the alert records matching q in a total order
// over the record — time, then actor, rule, class, severity and count —
// so the listing is the same whatever the segment layout or the
// interleaving of the writers.
func QueryAlerts(s *Store, q Query) ([]AlertRecord, QueryStats, error) {
	var out []AlertRecord
	in := interner{}
	st, err := q.scan(s, func(v *view) error {
		if v.kind == KindAlert && q.match(v) {
			out = append(out, AlertRecord{
				Time: v.last, Actor: in.str(v.actor), Class: in.str(v.class),
				RuleID: in.str(v.rule), Severity: rules.Severity(in.str(v.sev)), Count: v.count,
			})
		}
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	slices.SortFunc(out, func(a, b AlertRecord) int {
		if c := a.Time.Compare(b.Time); c != 0 {
			return c
		}
		if c := strings.Compare(a.Actor, b.Actor); c != 0 {
			return c
		}
		if c := strings.Compare(a.RuleID, b.RuleID); c != 0 {
			return c
		}
		if c := strings.Compare(a.Class, b.Class); c != 0 {
			return c
		}
		// Rank first, then the name: two unknown severities share a rank.
		if c := cmp.Compare(a.Severity.Rank(), b.Severity.Rank()); c != 0 {
			return c
		}
		if c := strings.Compare(string(a.Severity), string(b.Severity)); c != 0 {
			return c
		}
		return cmp.Compare(a.Count, b.Count)
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
		v := view{
			kind:  KindIncident,
			actor: []byte(inc.Actor), class: []byte(inc.Class), sev: []byte(inc.Severity),
			opened: inc.Opened, last: inc.LastAlert, risk: inc.RiskScore,
		}
		if q.match(&v) {
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
