package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/workload"
)

// checker accumulates failed operations. Every oracle mismatch adds
// the number of operations it invalidates (at least one), and the run
// exits non-zero when the total is not zero.
type checker struct {
	failed int64
	notes  []string
}

func (c *checker) fail(n int64, format string, args ...any) {
	if n < 1 {
		n = 1
	}
	c.failed += n
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

func (c *checker) equal(what string, got, want int64) {
	if got != want {
		d := got - want
		if d < 0 {
			d = -d
		}
		c.fail(d, "%s: got %d, want %d", what, got, want)
	}
}

// incidentTuple is the structural identity of one incident: what the
// engine decided, without the IDs and ordering that depend on which
// worker saw what first.
type incidentTuple struct {
	tenant, actor, class string
	alerts               int
	severity             rules.Severity
	risk                 float64
	opened, last         int64
}

func (t incidentTuple) String() string {
	return fmt.Sprintf("%s/%s %s alerts=%d sev=%s risk=%.1f [%d,%d]",
		t.tenant, t.actor, t.class, t.alerts, t.severity, t.risk, t.opened, t.last)
}

func tupleLess(a, b incidentTuple) bool {
	if a.tenant != b.tenant {
		return a.tenant < b.tenant
	}
	if a.actor != b.actor {
		return a.actor < b.actor
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.opened < b.opened
}

// tuplesOf renders incidents as sorted tuples. With tenant == "" the
// actor is expected to carry ingest's "tenant/" namespace prefix and
// is split at it; otherwise the incidents come from an un-namespaced
// reference pass and are tagged with the given tenant.
func tuplesOf(incs []*core.Incident, tenant string) []incidentTuple {
	out := make([]incidentTuple, 0, len(incs))
	for _, inc := range incs {
		t := incidentTuple{
			tenant: tenant, actor: inc.Actor, class: inc.Class,
			alerts: inc.AlertCount(), severity: inc.Severity, risk: inc.RiskScore,
			opened: inc.Opened.UnixNano(), last: inc.LastAlert.UnixNano(),
		}
		if tenant == "" {
			t.tenant, t.actor, _ = strings.Cut(inc.Actor, "/")
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return tupleLess(out[i], out[j]) })
	return out
}

// compareTuples fails once per tuple present on one side only.
func (c *checker) compareTuples(what string, got, want []incidentTuple) {
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j >= len(want) || (i < len(got) && tupleLess(got[i], want[j])):
			c.fail(1, "%s: unexpected incident %v", what, got[i])
			i++
		case i >= len(got) || tupleLess(want[j], got[i]):
			c.fail(1, "%s: missing incident %v", what, want[j])
			j++
		default:
			if got[i] != want[j] {
				c.fail(1, "%s: incident differs: got %v, want %v", what, got[i], want[j])
			}
			i++
			j++
		}
	}
}

// reference is the independent expectation for one trace (or one
// trace per tenant): a serial core.Engine pass over the un-namespaced
// events, never through ingest, a stage, or a store.
type reference struct {
	events    int
	alerts    int
	tuples    []incidentTuple
	incidents []*core.Incident // only for a single-trace reference
	labels    []tenantLabel
}

// tenantLabel is one ground-truth attack and the tenant whose trace
// holds it.
type tenantLabel struct {
	tenant string
	workload.Label
}

func serialEngine(events []trace.Event) (*core.Engine, error) {
	eng, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for i := range events {
		eng.Process(events[i])
	}
	return eng, nil
}

func buildReference(traces []*workload.Trace, tenants []string) (*reference, error) {
	ref := &reference{}
	for i, tr := range traces {
		eng, err := serialEngine(tr.Events)
		if err != nil {
			return nil, err
		}
		incs := eng.Incidents()
		ref.events += len(tr.Events)
		ref.alerts += int(eng.Stats().Alerts)
		ref.tuples = append(ref.tuples, tuplesOf(incs, tenants[i])...)
		if len(traces) == 1 {
			ref.incidents = incs
		}
		for _, l := range tr.Labels {
			ref.labels = append(ref.labels, tenantLabel{tenants[i], l})
		}
	}
	sort.Slice(ref.tuples, func(i, j int) bool { return tupleLess(ref.tuples[i], ref.tuples[j]) })
	return ref, nil
}

// checkLabels requires every ground-truth attacker to own an incident
// of its class among tuples.
func (c *checker) checkLabels(what string, ref *reference, tuples []incidentTuple) {
	have := make(map[[3]string]bool, len(tuples))
	for _, t := range tuples {
		have[[3]string{t.tenant, t.actor, t.class}] = true
	}
	for _, l := range ref.labels {
		if !have[[3]string{l.tenant, l.Actor, l.Class}] {
			c.fail(1, "%s: labelled attacker %s/%s has no %s incident", what, l.tenant, l.Actor, l.Class)
		}
	}
}

// renderAll is the table jsentinel and jingestd print, uncapped.
func renderAll(incs []*core.Incident) string {
	return core.RenderTopIncidents(incs, len(incs)+1)
}
