package ingest

import (
	"context"
	"strings"
	"sync/atomic"

	"repro/internal/trace"
)

// tenant is the per-tenant admission and backpressure state: a bounded
// single-worker trace.Stage into the shared downstream sink, a
// token-bucket event quota, and drop/denial accounting. One stage per
// tenant is the isolation mechanism — a slow or abusive tenant fills
// (or blocks on) its own queue while every other tenant's stage keeps
// draining at full speed.
//
// The stage runs exactly one worker so a tenant's accepted events
// reach the downstream sink in arrival order. Combined with
// tenant-namespaced actor keys (stampTenant) this preserves the
// pipeline-v2 per-actor serial-equivalence invariant: every actor
// belongs to one tenant, so its events flow through one stage, in
// order, no matter how many connections the tenant has open.
type tenant struct {
	name   string
	policy trace.DropPolicy
	stage  *trace.Stage
	bucket *trace.TokenBucket

	conns  atomic.Int64
	denied atomic.Uint64 // events refused by the quota (or at drain)
}

// ingestResult classifies what happened to one submitted event.
type ingestResult int

const (
	resAccepted ingestResult = iota // enqueued (may still drop in-stage under DropNewest)
	resDenied                       // refused by the quota before enqueueing
)

// ingest admits one already-stamped event. Under Block the call
// applies backpressure end to end: it waits for quota tokens and for
// queue space, so nothing is ever lost (a cancelled ctx — client gone
// or service draining — counts the event as denied). Under DropNewest
// it never blocks: quota exhaustion denies the event, a full queue
// drops it inside the stage, and both are counted per tenant.
func (ts *tenant) ingest(ctx context.Context, e *trace.Event) ingestResult {
	if ts.policy == trace.Block {
		if err := ts.bucket.Wait(ctx); err != nil {
			ts.denied.Add(1)
			return resDenied
		}
		ts.stage.Emit(*e)
		return resAccepted
	}
	if !ts.bucket.Allow() {
		ts.denied.Add(1)
		return resDenied
	}
	ts.stage.Emit(*e)
	return resAccepted
}

// stampTenant rewrites an inbound event into the tenant's namespace:
// every identity field that can become a trace.ActorKey (user, source
// address, kernel) is prefixed "tenant/", and an event carrying no
// identity at all is attributed to the tenant itself. Two tenants can
// therefore never share an actor key — detector and correlation state
// stay tenant-scoped, and the namespacing is recorded in the store, so
// an offline replay reconstructs the exact same actors as the live
// run.
//
// The prefixed identities of one event share one backing string
// ("t/user" + "t/ip" + "t/kernel", each field a substring of it), so
// stamping costs one allocation however many of the three are present.
func stampTenant(name string, e *trace.Event) {
	if e.User == "" && e.SrcIP == "" && e.KernelID == "" {
		e.User = name + "/-"
		return
	}
	var b strings.Builder
	b.Grow(3*(len(name)+1) + len(e.User) + len(e.SrcIP) + len(e.KernelID))
	var cut [3]int // where each field's prefixed value ends in b
	for i, f := range [3]string{e.User, e.SrcIP, e.KernelID} {
		if f != "" {
			b.WriteString(name)
			b.WriteByte('/')
			b.WriteString(f)
		}
		cut[i] = b.Len()
	}
	all := b.String()
	e.User, e.SrcIP, e.KernelID = all[:cut[0]], all[cut[0]:cut[1]], all[cut[1]:cut[2]]
}
