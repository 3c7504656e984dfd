package ingest

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	bucket *tokenBucket

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

// tokenBucket is the fleet sweep's context-aware rate limiter idiom,
// applied per tenant: rate tokens/sec with a burst ceiling, Wait for
// blocking admission, Allow for the non-blocking drop path. rate <= 0
// means unlimited.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst <= 0 {
		burst = 1
	}
	return &tokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// Allow takes a token if one is available, without blocking.
func (tb *tokenBucket) Allow() bool {
	if tb.rate <= 0 {
		return true
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	tb.refillLocked()
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}

// Wait blocks until a token is available or ctx is cancelled.
func (tb *tokenBucket) Wait(ctx context.Context) error {
	if tb.rate <= 0 {
		return ctx.Err()
	}
	for {
		tb.mu.Lock()
		tb.refillLocked()
		if tb.tokens >= 1 {
			tb.tokens--
			tb.mu.Unlock()
			return nil
		}
		wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
		tb.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

func (tb *tokenBucket) refillLocked() {
	now := time.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
}
