// Package ingest is the multi-tenant live event front-end: a
// long-running service that accepts trace-event streams from
// thousands of concurrent agents over HTTP and WebSocket
// (internal/wsproto framing), authenticates every connection with
// per-tenant HMAC-SHA256 tokens (auth.Keyring), applies admission
// control and per-tenant token-bucket quotas, and routes accepted
// events through per-tenant bounded trace.Stages into whatever sink
// the deployment wires behind it — typically trace.Tee(core engine,
// evstore.Store), so events are detected live AND recorded for
// byte-identical offline replay.
//
// The scaling contract ("millions of users"): each tenant owns one
// single-worker bounded stage and one quota bucket, so a slow,
// flooding, or quota-exhausted tenant saturates only its own queue —
// under Block it stalls its own producers, under DropNewest it sheds
// its own events (counted) — and can never convoy another tenant.
// Actor keys are namespaced per tenant (stampTenant), which keeps the
// sharded core engine's per-actor serial-equivalence invariant intact
// across any number of connections.
//
// Shutdown is a drain, not a drop: Drain stops admitting (503s, WS
// close 1001), cancels blocked producers, waits for in-flight
// handlers, then closes every stage so queued events reach the sink
// before the caller flushes and closes the store.
package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/auth"
	"repro/internal/trace"
	"repro/internal/wsproto"
)

// Config tunes the service. Zero values pick the defaults.
type Config struct {
	// Keyring authenticates tenants; required (no keyring = nobody
	// can connect — an ingest service never runs open).
	Keyring *auth.Keyring
	// MaxConns bounds concurrently admitted connections (live WS
	// conns + in-flight HTTP batches) across all tenants. Default
	// 4096; <0 disables the bound.
	MaxConns int
	// Queue is the per-tenant stage depth. Default 1024.
	Queue int
	// Policy is the default backpressure policy: Block (lossless,
	// producers stall) or DropNewest (lossy, producers never stall,
	// drops counted per tenant).
	Policy trace.DropPolicy
	// TenantPolicy overrides Policy per tenant.
	TenantPolicy map[string]trace.DropPolicy
	// Rate is the per-tenant event quota in events/sec (token
	// bucket); 0 = unlimited. Burst is the bucket depth (default
	// max(1, Rate)).
	Rate  float64
	Burst int
	// MaxMessage bounds one WebSocket message; oversize closes the
	// connection with code 1009. Default 1 MiB.
	MaxMessage int
	// MaxBody bounds one HTTP ingest request body; a longer body is
	// answered 413 after the events before the limit. Default 8 MiB.
	MaxBody int64
	// Clock stamps events that arrive without a timestamp.
	Clock trace.Clock
}

func (c Config) withDefaults() Config {
	if c.MaxConns == 0 {
		c.MaxConns = 4096
	}
	if c.Queue <= 0 {
		c.Queue = 1024
	}
	if c.Burst <= 0 {
		c.Burst = int(c.Rate)
	}
	if c.Burst <= 0 {
		c.Burst = 1
	}
	if c.MaxMessage <= 0 {
		c.MaxMessage = 1 << 20
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 8 << 20
	}
	if c.Clock == nil {
		c.Clock = trace.RealClock{}
	}
	return c
}

// Service is the ingest front-end. Create with New, serve with
// Start/Serve, stop with Drain.
type Service struct {
	cfg  Config
	sink trace.Sink

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenant
	wsConns map[*wsproto.Conn]struct{}

	// svcStage carries the service's own events (auth denials) so
	// they reach the engine and the store in one canonical order —
	// the same single-worker discipline the tenant streams get.
	svcStage *trace.Stage

	ln         net.Listener
	httpServer *http.Server

	seq       atomic.Uint64
	conns     atomic.Int64
	draining  atomic.Bool
	wg        sync.WaitGroup
	rejected  atomic.Uint64 // connections refused by admission control
	authFails atomic.Uint64
}

// New builds a Service delivering accepted events to sink.
func New(cfg Config, sink trace.Sink) *Service {
	cfg = cfg.withDefaults()
	if sink == nil {
		sink = trace.Discard
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Service{
		cfg:      cfg,
		sink:     sink,
		ctx:      ctx,
		cancel:   cancel,
		tenants:  map[string]*tenant{},
		wsConns:  map[*wsproto.Conn]struct{}{},
		svcStage: trace.NewStage(sink, 1, cfg.Queue, trace.Block),
	}
}

// tenantState returns (creating on first use) the state for an
// authenticated tenant.
func (s *Service) tenantState(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	policy := s.cfg.Policy
	if p, ok := s.cfg.TenantPolicy[name]; ok {
		policy = p
	}
	ts := &tenant{
		name:   name,
		policy: policy,
		stage:  trace.NewStage(s.sink, 1, s.cfg.Queue, policy),
		bucket: trace.NewTokenBucket(s.cfg.Rate, s.cfg.Burst),
	}
	s.tenants[name] = ts
	return ts
}

// Handler returns the service's HTTP mux:
//
//	POST /ingest     JSONL event batch (Authorization + X-Tenant)
//	GET  /ingest/ws  WebSocket upgrade; each message is a JSONL batch
//	GET  /stats      per-tenant counters, JSON
//	GET  /healthz    200 serving / 503 draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/ingest/ws", s.handleWS)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

// Start listens on addr and serves until Drain.
func (s *Service) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("ingest: listen: %w", err)
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener, returning the bound address.
func (s *Service) Serve(ln net.Listener) (string, error) {
	s.ln = ln
	s.httpServer = &http.Server{Handler: s.Handler()}
	go func() {
		err := s.httpServer.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			_ = err // post-Drain accept errors are expected
		}
	}()
	return ln.Addr().String(), nil
}

// Drain performs the graceful shutdown contract: stop admitting new
// work (healthz 503, ingest 503, accepts stop), cancel producers
// blocked on quotas, close live WebSocket conns with 1001 going-away,
// wait for in-flight handlers, then close every stage so each queued
// event reaches the sink. After Drain returns, Stats() is final and
// the caller owns flushing/closing whatever the sink writes to.
// Idempotent.
func (s *Service) Drain() {
	// The flag flips and the connections to close are listed in one
	// critical section: admit and handleWS take the same lock, so a
	// handler is either refused, on the list, or sees the flag.
	s.mu.Lock()
	if !s.draining.CompareAndSwap(false, true) {
		s.mu.Unlock()
		return
	}
	conns := make([]*wsproto.Conn, 0, len(s.wsConns))
	for c := range s.wsConns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close(wsproto.CloseGoingAway, "ingest draining")
	}
	s.wg.Wait()
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, ts := range s.tenants {
		tenants = append(tenants, ts)
	}
	s.mu.Unlock()
	for _, ts := range tenants {
		ts.stage.Close()
	}
	s.svcStage.Close()
}

// ---- admission & auth ----

// admit reserves a connection slot; release with done. It fails when
// draining or when MaxConns is reached.
func (s *Service) admit() (done func(), ok bool) {
	// Under the lock Drain flips the flag in, so that every wg.Add is
	// ordered before Drain's wg.Wait.
	s.mu.Lock()
	ok = !s.draining.Load() && (s.cfg.MaxConns <= 0 || s.conns.Load() < int64(s.cfg.MaxConns))
	if ok {
		s.conns.Add(1)
		s.wg.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		s.rejected.Add(1)
		return nil, false
	}
	return func() {
		s.conns.Add(-1)
		s.wg.Done()
	}, true
}

// authenticate resolves the tenant from the request headers:
// X-Tenant names it, Authorization ("Bearer <tok>" or "token <tok>",
// the scheme in any case) proves it. Failures emit a KindAuth denial
// into the pipeline — the ingest service monitors itself, so a token
// brute-force against this endpoint trips the same AT-001 rule as one
// against a notebook server.
func (s *Service) authenticate(r *http.Request) (string, bool) {
	tenantName := r.Header.Get("X-Tenant")
	token := bearerToken(r.Header.Get("Authorization"))
	if s.cfg.Keyring == nil || tenantName == "" || token == "" ||
		!s.cfg.Keyring.Verify(tenantName, token) {
		s.authFails.Add(1)
		s.emitService(trace.Event{
			Kind:    trace.KindAuth,
			SrcIP:   "ingest/" + remoteIP(r),
			Op:      string(auth.DecisionDeny),
			Success: false,
			Detail:  "ingest: bad tenant token",
		})
		return "", false
	}
	return tenantName, true
}

// bearerToken returns the credentials of a "Bearer" or "token"
// Authorization header. The scheme is matched case-insensitively, as
// RFC 7235 section 2.1 requires.
func bearerToken(header string) string {
	scheme, creds, ok := strings.Cut(header, " ")
	if !ok || !strings.EqualFold(scheme, "Bearer") && !strings.EqualFold(scheme, "token") {
		return ""
	}
	return strings.TrimSpace(creds)
}

func remoteIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// emitService routes a service-originated event through the dedicated
// single-worker stage, keeping its per-actor order identical between
// the live engine and the recorded store.
func (s *Service) emitService(e trace.Event) {
	s.stamp(&e)
	s.svcStage.Emit(e)
}

// stamp finalizes an event for the pipeline: a fresh service-wide
// sequence number (the store's append order is the replay order) and
// a timestamp when the agent supplied none.
func (s *Service) stamp(e *trace.Event) {
	e.Seq = s.seq.Add(1)
	if e.Time.IsZero() {
		e.Time = s.cfg.Clock.Now()
	}
}

// ---- handlers ----

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n")
}

// batchResponse is the HTTP ingest reply: what this request did, plus
// the tenant's cumulative stage/quota counters so an agent can watch
// its own loss budget without polling /stats.
type batchResponse struct {
	Tenant   string `json:"tenant"`
	Accepted int    `json:"accepted"`
	Denied   int    `json:"denied"`
	Dropped  uint64 `json:"dropped_total"`
	DeniedT  uint64 `json:"denied_total"`
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	tenantName, ok := s.authenticate(r)
	if !ok {
		http.Error(w, "invalid tenant token", http.StatusUnauthorized)
		return
	}
	done, ok := s.admit()
	if !ok {
		http.Error(w, "ingest at capacity or draining", http.StatusServiceUnavailable)
		return
	}
	defer done()
	ts := s.tenantState(tenantName)
	ts.conns.Add(1)
	defer ts.conns.Add(-1)

	resp := batchResponse{Tenant: tenantName}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	dec := trace.NewDecoder(body)
	for {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Reject the remainder but report what was admitted: the
			// agent retries from its own cursor, not from zero. A body
			// over MaxBody is 413 whether the limit ended a line or cut
			// one (which then fails to decode first); a read of nothing
			// returns the limit reader's sticky error.
			status := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if _, rerr := body.Read(nil); errors.As(rerr, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, map[string]any{
				"error": err.Error(), "accepted": resp.Accepted, "denied": resp.Denied,
			})
			return
		}
		stampTenant(tenantName, &e)
		s.stamp(&e)
		switch ts.ingest(r.Context(), &e) {
		case resAccepted:
			resp.Accepted++
		case resDenied:
			resp.Denied++
		}
	}
	resp.Dropped = ts.stage.Dropped()
	resp.DeniedT = ts.denied.Load()
	status := http.StatusOK
	if resp.Denied > 0 {
		status = http.StatusTooManyRequests
	}
	writeJSON(w, status, resp)
}

func (s *Service) handleWS(w http.ResponseWriter, r *http.Request) {
	tenantName, ok := s.authenticate(r)
	if !ok {
		http.Error(w, "invalid tenant token", http.StatusUnauthorized)
		return
	}
	done, ok := s.admit()
	if !ok {
		http.Error(w, "ingest at capacity or draining", http.StatusServiceUnavailable)
		return
	}
	defer done()
	conn, err := wsproto.UpgradeLimit(w, r, s.cfg.MaxMessage)
	if err != nil {
		return // Upgrade already wrote the HTTP error
	}
	s.mu.Lock()
	s.wsConns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.wsConns, conn)
		s.mu.Unlock()
	}()
	// A handler admitted before Drain but registered after it listed
	// the connections to close must end itself, or Drain waits on it
	// forever.
	if s.draining.Load() {
		_ = conn.Close(wsproto.CloseGoingAway, "ingest draining")
		return
	}
	ts := s.tenantState(tenantName)
	ts.conns.Add(1)
	defer ts.conns.Add(-1)

	for {
		_, payload, err := conn.ReadMessage()
		if err != nil {
			if errors.Is(err, wsproto.ErrClosed) {
				// Peer-initiated close: ReadMessage already echoed the
				// close frame; just release the transport.
				_ = conn.Close(wsproto.CloseNormal, "")
				return
			}
			// RFC discipline on the server side: unmasked client
			// frames, oversized messages, fragment violations each get
			// their mandated close code rather than a TCP reset.
			_ = conn.Close(wsproto.CloseCodeForError(err), "protocol error")
			return
		}
		// Events copy what they keep of payload line by line (see
		// trace.NewBytesDecoder), so a retained event never pins the
		// whole message.
		dec := trace.NewBytesDecoder(payload)
		for {
			e, derr := dec.Next()
			if derr == io.EOF {
				break
			}
			if derr != nil {
				_ = conn.Close(wsproto.CloseInvalidPayload, "bad event JSON")
				return
			}
			stampTenant(tenantName, &e)
			s.stamp(&e)
			ts.ingest(s.ctx, &e)
		}
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// ---- stats ----

// TenantStats is one tenant's counter snapshot. After Drain,
// Processed == Accepted and the accounting identity
// submitted == Accepted + Dropped + Denied holds exactly.
type TenantStats struct {
	Tenant    string `json:"tenant"`
	Conns     int64  `json:"conns"`
	Accepted  uint64 `json:"accepted"`
	Processed uint64 `json:"processed"`
	Pending   int    `json:"pending"`
	Dropped   uint64 `json:"dropped"`
	Denied    uint64 `json:"denied"`
	Policy    string `json:"policy"`
}

// Snapshot is the service-wide counter snapshot served at /stats and
// rendered at shutdown. Tenants are sorted by name, so two snapshots
// of the same state render identically.
type Snapshot struct {
	Draining      bool          `json:"draining"`
	Conns         int64         `json:"conns"`
	RejectedConns uint64        `json:"rejected_conns"`
	AuthFailures  uint64        `json:"auth_failures"`
	Tenants       []TenantStats `json:"tenants"`
}

// Stats snapshots every counter.
func (s *Service) Stats() Snapshot {
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, ts := range s.tenants {
		tenants = append(tenants, ts)
	}
	s.mu.Unlock()
	snap := Snapshot{
		Draining:      s.draining.Load(),
		Conns:         s.conns.Load(),
		RejectedConns: s.rejected.Load(),
		AuthFailures:  s.authFails.Load(),
	}
	for _, ts := range tenants {
		snap.Tenants = append(snap.Tenants, TenantStats{
			Tenant:    ts.name,
			Conns:     ts.conns.Load(),
			Accepted:  ts.stage.Accepted(),
			Processed: ts.stage.Processed(),
			Pending:   ts.stage.Pending(),
			Dropped:   ts.stage.Dropped(),
			Denied:    ts.denied.Load(),
			Policy:    ts.policy.String(),
		})
	}
	sort.Slice(snap.Tenants, func(i, j int) bool {
		return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant
	})
	return snap
}

// RenderTenantTable renders the per-tenant counters as the aligned
// table jingestd prints on shutdown.
func (sn Snapshot) RenderTenantTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %10s %10s %8s %8s %12s\n",
		"TENANT", "CONNS", "ACCEPTED", "PROCESSED", "DROPPED", "DENIED", "POLICY")
	for _, t := range sn.Tenants {
		fmt.Fprintf(&b, "%-16s %6d %10d %10d %8d %8d %12s\n",
			t.Tenant, t.Conns, t.Accepted, t.Processed, t.Dropped, t.Denied, t.Policy)
	}
	return b.String()
}
