package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/trace"
	"repro/internal/wsproto"
)

// collector is a thread-safe sink recording every delivered event.
type collector struct {
	mu     sync.Mutex
	events []trace.Event
}

func (c *collector) Emit(e trace.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) snapshot() []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Event(nil), c.events...)
}

func testKeyring(t *testing.T, tenants ...string) *auth.Keyring {
	t.Helper()
	kr := auth.NewKeyring()
	for i, name := range tenants {
		if err := kr.AddTenant(name, []byte(fmt.Sprintf("secret-%d-%s", i, name))); err != nil {
			t.Fatalf("AddTenant(%s): %v", name, err)
		}
	}
	return kr
}

func startService(t *testing.T, cfg Config, sink trace.Sink) (*Service, string) {
	t.Helper()
	svc := New(cfg, sink)
	addr, err := svc.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(svc.Drain)
	return svc, addr
}

func jsonlBody(tb testing.TB, events ...trace.Event) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			tb.Fatalf("encode: %v", err)
		}
	}
	return buf.Bytes()
}

func postBatch(t *testing.T, addr, tenant, token string, body []byte) (*http.Response, batchResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var br batchResponse
	_ = json.NewDecoder(resp.Body).Decode(&br)
	return resp, br
}

func dialWS(t *testing.T, addr, tenant, token string) *wsproto.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	hdr := http.Header{}
	hdr.Set("X-Tenant", tenant)
	hdr.Set("Authorization", "Bearer "+token)
	conn, err := wsproto.Dial(raw, addr, "/ingest/ws", hdr)
	if err != nil {
		raw.Close()
		t.Fatalf("ws dial: %v", err)
	}
	return conn
}

func TestHTTPIngestNamespacesAndStamps(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)
	tok, _ := kr.Mint("alpha")

	body := jsonlBody(t,
		trace.Event{Kind: trace.KindHTTP, SrcIP: "10.0.0.9", User: "alice", Method: "GET", Path: "/api"},
		trace.Event{Kind: trace.KindExec, KernelID: "k1", User: "alice", Code: "print(1)"},
		trace.Event{Kind: trace.KindNetOp, Op: "connect"}, // no identity at all
	)
	resp, br := postBatch(t, addr, "alpha", tok, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if br.Accepted != 3 || br.Denied != 0 {
		t.Fatalf("batch response = %+v, want accepted=3 denied=0", br)
	}

	svc.Drain()
	got := sink.snapshot()
	if len(got) != 3 {
		t.Fatalf("sink saw %d events, want 3", len(got))
	}
	if got[0].SrcIP != "alpha/10.0.0.9" || got[0].User != "alpha/alice" {
		t.Errorf("event 0 not namespaced: src=%q user=%q", got[0].SrcIP, got[0].User)
	}
	if got[1].KernelID != "alpha/k1" {
		t.Errorf("event 1 kernel = %q, want alpha/k1", got[1].KernelID)
	}
	if got[2].User != "alpha/-" {
		t.Errorf("identity-free event attributed to %q, want alpha/-", got[2].User)
	}
	var lastSeq uint64
	for i, e := range got {
		if e.Seq <= lastSeq {
			t.Errorf("event %d seq %d not increasing (prev %d)", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Time.IsZero() {
			t.Errorf("event %d has zero time after stamping", i)
		}
	}

	st := svc.Stats()
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != "alpha" {
		t.Fatalf("stats tenants = %+v", st.Tenants)
	}
	ts := st.Tenants[0]
	if ts.Accepted != 3 || ts.Processed != 3 || ts.Dropped != 0 || ts.Denied != 0 {
		t.Errorf("tenant counters after drain = %+v, want accepted=processed=3", ts)
	}
}

func TestAuthFailureRejectedAndSelfMonitored(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)

	cases := []struct{ tenant, token string }{
		{"alpha", "deadbeef"}, // wrong token
		{"alpha", ""},         // missing token
		{"ghost", "deadbeef"}, // unknown tenant
		{"", "deadbeef"},      // missing tenant header
	}
	for _, tc := range cases {
		resp, _ := postBatch(t, addr, tc.tenant, tc.token, jsonlBody(t, trace.Event{Kind: trace.KindHTTP}))
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("tenant=%q token=%q: status %d, want 401", tc.tenant, tc.token, resp.StatusCode)
		}
	}

	svc.Drain()
	st := svc.Stats()
	if st.AuthFailures != uint64(len(cases)) {
		t.Errorf("AuthFailures = %d, want %d", st.AuthFailures, len(cases))
	}
	if len(st.Tenants) != 0 {
		t.Errorf("failed auth created tenant state: %+v", st.Tenants)
	}
	// Every denial must appear in the pipeline as a KindAuth event so
	// AT-001 bruteforce detection covers the ingest endpoint itself.
	var denials int
	for _, e := range sink.snapshot() {
		if e.Kind == trace.KindAuth && !e.Success && strings.HasPrefix(e.SrcIP, "ingest/") {
			denials++
		}
	}
	if denials != len(cases) {
		t.Errorf("pipeline saw %d ingest auth denials, want %d", denials, len(cases))
	}
}

// TestAuthSchemeIsCaseInsensitive: RFC 7235 section 2.1 makes the
// auth scheme case-insensitive, so a valid token under any casing of
// either accepted scheme is admitted, and neither counted nor reported
// as a denial that could open a brute-force incident against the agent.
func TestAuthSchemeIsCaseInsensitive(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)
	tok, _ := kr.Mint("alpha")

	schemes := []string{"Bearer", "bearer", "BEARER", "bEaReR", "token", "Token", "TOKEN"}
	for _, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			status, br := sendRaw(t, addr, hostileRequest{
				method: http.MethodPost, tenant: "alpha", auth: scheme + " " + tok,
				body: jsonlBody(t, trace.Event{Kind: trace.KindHTTP}),
			})
			if status != http.StatusOK || br.Accepted != 1 {
				t.Errorf("status %d, accepted %d with a valid token, want 200 and 1", status, br.Accepted)
			}
		})
	}

	svc.Drain()
	if st := svc.Stats(); st.AuthFailures != 0 {
		t.Errorf("AuthFailures = %d, want 0", st.AuthFailures)
	}
	for _, e := range sink.snapshot() {
		if e.Kind == trace.KindAuth {
			t.Errorf("an accepted scheme was reported as an auth event: %+v", e)
		}
	}
	if got := len(sink.snapshot()); got != len(schemes) {
		t.Errorf("sink saw %d events, want %d", got, len(schemes))
	}
}

func TestQuotaDeniesOverBudget(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{
		Keyring: kr,
		Policy:  trace.DropNewest,
		Rate:    1, // 1 ev/sec
		Burst:   3,
	}, sink)
	tok, _ := kr.Mint("alpha")

	var events []trace.Event
	for i := 0; i < 10; i++ {
		events = append(events, trace.Event{Kind: trace.KindHTTP, SrcIP: "10.0.0.1", Path: fmt.Sprintf("/p/%d", i)})
	}
	resp, br := postBatch(t, addr, "alpha", tok, jsonlBody(t, events...))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 when quota denies", resp.StatusCode)
	}
	if br.Accepted+br.Denied != 10 {
		t.Fatalf("accepted %d + denied %d != 10 submitted", br.Accepted, br.Denied)
	}
	if br.Accepted > 4 || br.Denied < 6 {
		t.Errorf("burst=3 rate=1 admitted %d of 10; expected roughly the burst", br.Accepted)
	}

	svc.Drain()
	ts := svc.Stats().Tenants[0]
	if int(ts.Accepted)+int(ts.Denied) != 10 {
		t.Errorf("accounting: accepted %d + denied %d != 10", ts.Accepted, ts.Denied)
	}
	if int(ts.Denied) != br.Denied {
		t.Errorf("stats denied %d != response denied %d", ts.Denied, br.Denied)
	}
	if got := len(sink.snapshot()); got != br.Accepted {
		t.Errorf("sink saw %d events, want %d accepted", got, br.Accepted)
	}
}

func TestBlockBackpressureIsLossless(t *testing.T) {
	kr := testKeyring(t, "alpha", "beta")
	// A deliberately slow sink: with Queue=2 and Block policy the
	// producers must stall rather than lose events.
	slow := &collector{}
	slowSink := trace.SinkFunc(func(e trace.Event) {
		time.Sleep(200 * time.Microsecond)
		slow.Emit(e)
	})
	svc, addr := startService(t, Config{Keyring: kr, Policy: trace.Block, Queue: 2}, slowSink)

	const perTenant = 120
	var wg sync.WaitGroup
	for _, tenantName := range []string{"alpha", "beta"} {
		tok, _ := kr.Mint(tenantName)
		wg.Add(1)
		go func(name, token string) {
			defer wg.Done()
			var events []trace.Event
			for i := 0; i < perTenant; i++ {
				events = append(events, trace.Event{Kind: trace.KindHTTP, SrcIP: "10.1.1.1", Path: fmt.Sprintf("/%s/%d", name, i)})
			}
			resp, br := postBatch(t, addr, name, token, jsonlBody(t, events...))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d, want 200", name, resp.StatusCode)
			}
			if br.Accepted != perTenant || br.Denied != 0 {
				t.Errorf("%s: accepted=%d denied=%d, want %d/0", name, br.Accepted, br.Denied, perTenant)
			}
		}(tenantName, tok)
	}
	wg.Wait()
	svc.Drain()

	if got := len(slow.snapshot()); got != 2*perTenant {
		t.Fatalf("sink saw %d events, want %d (Block must be lossless)", got, 2*perTenant)
	}
	for _, ts := range svc.Stats().Tenants {
		if ts.Accepted != perTenant || ts.Processed != perTenant || ts.Dropped != 0 || ts.Denied != 0 {
			t.Errorf("tenant %s: %+v, want lossless accounting", ts.Tenant, ts)
		}
	}
}

// TestWSDropNewestBooksBalanceUnderLoad sheds load the DropNewest way:
// 64 WebSocket connections across 8 tenants flood small lanes in front
// of a slow sink. Every shed event must be counted, tenant by tenant,
// and the sink must see exactly the accepted ones.
func TestWSDropNewestBooksBalanceUnderLoad(t *testing.T) {
	const (
		tenantCount = 8
		connCount   = 64
		msgsPerConn = 20
		perMessage  = 16
	)
	names := make([]string, tenantCount)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	kr := testKeyring(t, names...)
	sink := &collector{}
	slowSink := trace.SinkFunc(func(e trace.Event) {
		time.Sleep(50 * time.Microsecond)
		sink.Emit(e)
	})
	svc, addr := startService(t, Config{Keyring: kr, Policy: trace.DropNewest, Queue: 4}, slowSink)

	conns := make([]*wsproto.Conn, connCount)
	msgs := make([][]byte, connCount)
	for i := range conns {
		name := names[i%tenantCount]
		tok, _ := kr.Mint(name)
		conns[i] = dialWS(t, addr, name, tok)
		var events []trace.Event
		for j := 0; j < perMessage; j++ {
			events = append(events, trace.Event{Kind: trace.KindHTTP, SrcIP: fmt.Sprintf("10.0.%d.7", i), Path: fmt.Sprintf("/p/%d", j)})
		}
		msgs[i] = jsonlBody(t, events...)
	}
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for m := 0; m < msgsPerConn; m++ {
				if err := conns[i].WriteMessage(wsproto.OpText, msgs[i]); err != nil {
					t.Errorf("conn %d: write: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// The server reads asynchronously: close only once it has accounted
	// for every submitted event, or the close could cut a message off.
	const sentPerTenant = connCount / tenantCount * msgsPerConn * perMessage
	deadline := time.Now().Add(30 * time.Second)
	for {
		var seen uint64
		for _, ts := range svc.Stats().Tenants {
			seen += ts.Accepted + ts.Dropped + ts.Denied
		}
		if seen == tenantCount*sentPerTenant {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server accounted for %d of %d events within 30s", seen, tenantCount*sentPerTenant)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, c := range conns {
		_ = c.Close(wsproto.CloseNormal, "")
	}
	svc.Drain()

	delivered := map[string]uint64{}
	for _, e := range sink.snapshot() {
		tenant, _, _ := strings.Cut(e.SrcIP, "/")
		delivered[tenant]++
	}
	tenants := svc.Stats().Tenants
	if len(tenants) != tenantCount {
		t.Fatalf("%d tenants in stats, want %d", len(tenants), tenantCount)
	}
	var dropped uint64
	for _, ts := range tenants {
		if got := ts.Accepted + ts.Dropped + ts.Denied; got != sentPerTenant {
			t.Errorf("tenant %s: accepted %d + dropped %d + denied %d = %d, want %d submitted",
				ts.Tenant, ts.Accepted, ts.Dropped, ts.Denied, got, sentPerTenant)
		}
		if ts.Processed != ts.Accepted {
			t.Errorf("tenant %s: processed %d != accepted %d after Drain", ts.Tenant, ts.Processed, ts.Accepted)
		}
		if delivered[ts.Tenant] != ts.Accepted {
			t.Errorf("tenant %s: sink received %d events, accepted %d", ts.Tenant, delivered[ts.Tenant], ts.Accepted)
		}
		dropped += ts.Dropped
	}
	if dropped == 0 {
		t.Fatal("no tenant dropped an event: the lanes never filled, so the test checked nothing")
	}
}

func TestWSIngest(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)
	tok, _ := kr.Mint("alpha")

	conn := dialWS(t, addr, "alpha", tok)
	for batch := 0; batch < 3; batch++ {
		body := jsonlBody(t,
			trace.Event{Kind: trace.KindHTTP, SrcIP: "9.9.9.9", Path: fmt.Sprintf("/b/%d", batch)},
			trace.Event{Kind: trace.KindExec, KernelID: "kk", Code: "x"},
		)
		if err := conn.WriteMessage(wsproto.OpText, body); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
	}
	// Wait for delivery before closing: Close tears down the TCP
	// socket right after the close frame, and the resulting RST could
	// discard data still in the server's receive buffer.
	waitFor(t, func() bool { return len(sink.snapshot()) == 6 })
	if err := conn.Close(wsproto.CloseNormal, "done"); err != nil {
		t.Fatalf("client close: %v", err)
	}
	svc.Drain()

	got := sink.snapshot()
	if len(got) != 6 {
		t.Fatalf("sink saw %d events, want 6", len(got))
	}
	for i, e := range got {
		if !strings.HasPrefix(e.SrcIP+e.KernelID, "alpha/") {
			t.Errorf("event %d not namespaced: %+v", i, e)
		}
	}
}

// TestWSAuthRejectedBeforeUpgrade verifies a bad token never reaches
// the WebSocket handshake.
func TestWSAuthRejectedBeforeUpgrade(t *testing.T) {
	kr := testKeyring(t, "alpha")
	svc, addr := startService(t, Config{Keyring: kr}, &collector{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	hdr := http.Header{}
	hdr.Set("X-Tenant", "alpha")
	hdr.Set("Authorization", "Bearer wrong")
	if _, err := wsproto.Dial(raw, addr, "/ingest/ws", hdr); err == nil {
		t.Fatal("ws dial with bad token succeeded")
	}
	svc.Drain()
}

func TestWSCloseCodes(t *testing.T) {
	kr := testKeyring(t, "alpha")

	t.Run("oversized message closes 1009", func(t *testing.T) {
		svc, addr := startService(t, Config{Keyring: kr, MaxMessage: 256}, &collector{})
		tok, _ := kr.Mint("alpha")
		conn := dialWS(t, addr, "alpha", tok)
		defer conn.Close(wsproto.CloseNormal, "")
		if err := conn.WriteMessage(wsproto.OpText, bytes.Repeat([]byte("x"), 1024)); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
		if _, _, err := conn.ReadMessage(); err == nil {
			t.Fatal("expected close, got message")
		}
		if conn.CloseCode != wsproto.CloseTooBig {
			t.Errorf("close code = %d, want %d", conn.CloseCode, wsproto.CloseTooBig)
		}
		svc.Drain()
	})

	t.Run("unmasked client frame closes 1002", func(t *testing.T) {
		svc, addr := startService(t, Config{Keyring: kr}, &collector{})
		tok, _ := kr.Mint("alpha")
		conn := dialWS(t, addr, "alpha", tok)
		defer conn.Close(wsproto.CloseNormal, "")
		// Bypass the conn writer: an unmasked data frame straight onto
		// the wire violates RFC 6455 §5.1 for clients.
		raw := wsproto.EncodeFrame(true, wsproto.OpText, []byte("{}"), nil)
		if _, err := conn.Underlying().Write(raw); err != nil {
			t.Fatalf("raw write: %v", err)
		}
		if _, _, err := conn.ReadMessage(); err == nil {
			t.Fatal("expected close, got message")
		}
		if conn.CloseCode != wsproto.CloseProtocolError {
			t.Errorf("close code = %d, want %d", conn.CloseCode, wsproto.CloseProtocolError)
		}
		svc.Drain()
	})

	t.Run("malformed event JSON closes 1007", func(t *testing.T) {
		svc, addr := startService(t, Config{Keyring: kr}, &collector{})
		tok, _ := kr.Mint("alpha")
		conn := dialWS(t, addr, "alpha", tok)
		defer conn.Close(wsproto.CloseNormal, "")
		if err := conn.WriteMessage(wsproto.OpText, []byte("this is not json\n")); err != nil {
			t.Fatalf("WriteMessage: %v", err)
		}
		if _, _, err := conn.ReadMessage(); err == nil {
			t.Fatal("expected close, got message")
		}
		if conn.CloseCode != wsproto.CloseInvalidPayload {
			t.Errorf("close code = %d, want %d", conn.CloseCode, wsproto.CloseInvalidPayload)
		}
		svc.Drain()
	})
}

func TestMaxConnsAdmission(t *testing.T) {
	kr := testKeyring(t, "alpha")
	svc, addr := startService(t, Config{Keyring: kr, MaxConns: 1}, &collector{})
	tok, _ := kr.Mint("alpha")

	// Occupy the single slot with a live WS connection.
	conn := dialWS(t, addr, "alpha", tok)
	defer conn.Close(wsproto.CloseNormal, "")
	// The slot is taken once the handler admits; the upgrade response
	// already arrived, so admission has happened.
	waitFor(t, func() bool { return svc.Stats().Conns == 1 })

	resp, _ := postBatch(t, addr, "alpha", tok, jsonlBody(t, trace.Event{Kind: trace.KindHTTP}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 at capacity", resp.StatusCode)
	}
	if got := svc.Stats().RejectedConns; got != 1 {
		t.Errorf("RejectedConns = %d, want 1", got)
	}
	svc.Drain()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in 2s")
}

func TestDrainRejectsNewWorkAndFlushesStore(t *testing.T) {
	kr := testKeyring(t, "alpha")
	dir := t.TempDir()
	// Huge FlushEvery: every event sits in the write buffer until the
	// drain path flushes, exactly the signal-loss scenario.
	store, err := evstore.Open(dir, evstore.Options{FlushEvery: 1 << 20})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	svc, addr := startService(t, Config{Keyring: kr}, store)
	tok, _ := kr.Mint("alpha")

	var events []trace.Event
	for i := 0; i < 57; i++ {
		events = append(events, trace.Event{Kind: trace.KindHTTP, SrcIP: "1.2.3.4", Path: fmt.Sprintf("/%d", i)})
	}
	if resp, br := postBatch(t, addr, "alpha", tok, jsonlBody(t, events...)); resp.StatusCode != 200 || br.Accepted != 57 {
		t.Fatalf("ingest failed: status=%d accepted=%d", resp.StatusCode, br.Accepted)
	}

	svc.Drain()
	// Post-drain requests are refused, not silently dropped.
	if resp, _ := postBatch(t, addr, "alpha", tok, jsonlBody(t, events[0])); resp.StatusCode != http.StatusServiceUnavailable {
		// The listener is closed, so the request usually errors at
		// dial; reaching here means a lingering keep-alive conn, which
		// must still get a 503.
		t.Errorf("post-drain ingest: status %d, want 503", resp.StatusCode)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	ro, err := evstore.OpenRead(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if loss := ro.Recovered(); len(loss) != 0 {
		t.Fatalf("tail loss after clean drain: %+v", loss)
	}
	if got := ro.Events(); got != 57 {
		t.Fatalf("store holds %d events, want 57", got)
	}
}

// TestLiveVsReplayIncidentParity is the acceptance gate: an ingest
// session recorded to a store and replayed through a fresh engine
// must produce a byte-identical incident table to the live run.
func TestLiveVsReplayIncidentParity(t *testing.T) {
	kr := testKeyring(t, "acme", "globex")
	live := core.MustEngine()
	dir := t.TempDir()
	store, err := evstore.Open(dir, evstore.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	svc, addr := startService(t, Config{Keyring: kr}, trace.Tee(live, store))

	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	mkAuthBurst := func(src string, n int) []trace.Event {
		var out []trace.Event
		for i := 0; i < n; i++ {
			out = append(out, trace.Event{
				Kind: trace.KindAuth, Time: base.Add(time.Duration(i) * time.Second),
				SrcIP: src, Op: "password", Success: false,
			})
		}
		return out
	}
	minerExec := trace.Event{
		Kind: trace.KindExec, Time: base.Add(time.Minute),
		KernelID: "k-7", User: "miner", Code: "import os; os.system('xmrig -o stratum+tcp://pool')",
	}

	// Both tenants attack from "the same" source address — the tenant
	// namespacing must keep them as two distinct actors and incidents.
	for _, tn := range []string{"acme", "globex"} {
		tok, _ := kr.Mint(tn)
		batch := append(mkAuthBurst("203.0.113.5", 10), minerExec)
		if resp, br := postBatch(t, addr, tn, tok, jsonlBody(t, batch...)); resp.StatusCode != 200 || br.Accepted != 11 {
			t.Fatalf("%s: ingest status=%d accepted=%d", tn, resp.StatusCode, br.Accepted)
		}
	}

	svc.Drain()
	if err := store.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	liveIncidents := live.Incidents()
	if len(liveIncidents) < 4 {
		t.Fatalf("live run produced %d incidents, want >=4 (bruteforce+miner per tenant)", len(liveIncidents))
	}
	liveTable := core.RenderTopIncidents(liveIncidents, 16)

	replayEng := core.MustEngine()
	ro, err := evstore.OpenRead(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	stats, err := ro.Replay(evstore.Filter{}, 8, 32, func(b []trace.Event) {
		replayEng.ProcessBatch(b)
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if stats.Events != 22 {
		t.Fatalf("replayed %d events, want 22", stats.Events)
	}
	replayTable := core.RenderTopIncidents(replayEng.Incidents(), 16)
	if liveTable != replayTable {
		t.Errorf("live and replay incident tables differ:\n--- live ---\n%s\n--- replay ---\n%s", liveTable, replayTable)
	}
}

func TestStatsEndpointAndRender(t *testing.T) {
	kr := testKeyring(t, "alpha")
	svc, addr := startService(t, Config{Keyring: kr}, &collector{})
	tok, _ := kr.Mint("alpha")
	postBatch(t, addr, "alpha", tok, jsonlBody(t, trace.Event{Kind: trace.KindHTTP, SrcIP: "8.8.8.8"}))

	resp, err := http.Get("http://" + addr + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if len(snap.Tenants) != 1 || snap.Tenants[0].Tenant != "alpha" || snap.Tenants[0].Accepted != 1 {
		t.Fatalf("stats = %+v", snap)
	}

	table := snap.RenderTenantTable()
	if !strings.Contains(table, "TENANT") || !strings.Contains(table, "alpha") {
		t.Errorf("tenant table missing fields:\n%s", table)
	}

	// healthz flips to 503 once draining.
	if resp, err := http.Get("http://" + addr + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz before drain: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	svc.Drain()
	if !svc.Stats().Draining {
		t.Error("Stats().Draining = false after Drain")
	}
}

// mixedLines is a JSONL payload with CRLF line endings, blank lines,
// one escaped line and one non-canonical line (whitespace and a
// case-variant key, which only encoding/json takes): four events.
const mixedLines = "{\"kind\":\"http\",\"src_ip\":\"9.9.9.9\",\"path\":\"/a\"}\r\n" +
	"\r\n\n" +
	"{\"kind\":\"exec\",\"kernel_id\":\"kk\",\"code\":\"print(\\\"x\\\")\\n\\u003cb\\u003e\"}\r\n" +
	"{ \"Kind\" : \"auth\", \"user\" : \"bob\", \"unknown\" : [1, 2] }\n" +
	"{\"kind\":\"file_op\",\"user\":\"carol\",\"target\":\"nb.ipynb\"}"

func checkMixedLines(t *testing.T, got []trace.Event) {
	t.Helper()
	if len(got) != 4 {
		t.Fatalf("sink saw %d events, want 4: %+v", len(got), got)
	}
	want := []trace.Event{
		{Kind: trace.KindHTTP, SrcIP: "alpha/9.9.9.9", Path: "/a"},
		{Kind: trace.KindExec, KernelID: "alpha/kk", Code: "print(\"x\")\n<b>"},
		{Kind: trace.KindAuth, User: "alpha/bob"},
		{Kind: trace.KindFileOp, User: "alpha/carol", Target: "nb.ipynb"},
	}
	for i, e := range got {
		e.Seq, e.Time = 0, time.Time{}
		if fmt.Sprintf("%+v", e) != fmt.Sprintf("%+v", want[i]) {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestWSMixedLineForms: one WebSocket message of mixedLines ingests
// every event, namespaced, whichever decoder took the line.
func TestWSMixedLineForms(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)
	tok, _ := kr.Mint("alpha")
	conn := dialWS(t, addr, "alpha", tok)
	if err := conn.WriteMessage(wsproto.OpText, []byte(mixedLines)); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	waitFor(t, func() bool { return len(sink.snapshot()) == 4 })
	if err := conn.Close(wsproto.CloseNormal, "done"); err != nil {
		t.Fatalf("client close: %v", err)
	}
	svc.Drain()
	checkMixedLines(t, sink.snapshot())
}

// TestHTTPMixedLineForms is the same payload over POST /ingest.
func TestHTTPMixedLineForms(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)
	tok, _ := kr.Mint("alpha")
	resp, br := postBatch(t, addr, "alpha", tok, []byte(mixedLines))
	if resp.StatusCode != http.StatusOK || br.Accepted != 4 {
		t.Fatalf("status %d, accepted %d; want 200, 4", resp.StatusCode, br.Accepted)
	}
	svc.Drain()
	checkMixedLines(t, sink.snapshot())
}

const thirdLineBad = "{\"kind\":\"http\",\"src_ip\":\"1.1.1.1\"}\n{\"kind\":\"exec\",\"user\":\"u\"}\n{\"kind\":nope}\n{\"kind\":\"auth\"}\n"

// TestWSBadThirdLine: the two events before a malformed line are
// ingested, then the connection closes 1007 and the rest is dropped.
func TestWSBadThirdLine(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)
	tok, _ := kr.Mint("alpha")
	conn := dialWS(t, addr, "alpha", tok)
	defer conn.Close(wsproto.CloseNormal, "")
	if err := conn.WriteMessage(wsproto.OpText, []byte(thirdLineBad)); err != nil {
		t.Fatalf("WriteMessage: %v", err)
	}
	if _, _, err := conn.ReadMessage(); err == nil {
		t.Fatal("expected close, got message")
	}
	if conn.CloseCode != wsproto.CloseInvalidPayload {
		t.Errorf("close code = %d, want %d", conn.CloseCode, wsproto.CloseInvalidPayload)
	}
	svc.Drain()
	if got := sink.snapshot(); len(got) != 2 || got[0].SrcIP != "alpha/1.1.1.1" || got[1].User != "alpha/u" {
		t.Fatalf("sink saw %+v, want the two events before the bad line", got)
	}
}

// TestHTTPBadThirdLine: the same body over POST answers 400 with the
// line-numbered error and what was admitted before it.
func TestHTTPBadThirdLine(t *testing.T) {
	kr := testKeyring(t, "alpha")
	sink := &collector{}
	svc, addr := startService(t, Config{Keyring: kr}, sink)
	tok, _ := kr.Mint("alpha")
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/ingest", strings.NewReader(thirdLineBad))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "alpha")
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /ingest: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Error    string `json:"error"`
		Accepted int    `json:"accepted"`
		Denied   int    `json:"denied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.HasPrefix(body.Error, "trace: line 3: ") ||
		body.Accepted != 2 || body.Denied != 0 {
		t.Fatalf("status %d, reply %+v; want 400, a line-3 error, 2 accepted", resp.StatusCode, body)
	}
	svc.Drain()
	if got := sink.snapshot(); len(got) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(got))
	}
}

// TestDrainRacesUpgrades: WebSocket upgrades in flight while Drain
// starts. A handler admitted before the draining flag flips but
// registered after Drain listed the connections to close used to be
// missed, and Drain waited on it forever; the deadline turns that
// hang into a failure. The dialers keep their connections open until
// Drain has returned, so only the service can end a handler.
func TestDrainRacesUpgrades(t *testing.T) {
	kr := testKeyring(t, "alpha")
	tok, _ := kr.Mint("alpha")
	hdr := http.Header{}
	hdr.Set("X-Tenant", "alpha")
	hdr.Set("Authorization", "Bearer "+tok)
	const dialers = 8
	for round := 0; round < 50; round++ {
		svc := New(Config{Keyring: kr}, trace.Discard)
		addr, err := svc.Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		connected := make(chan net.Conn, dialers) // one send per dialer
		var wg sync.WaitGroup
		for i := 0; i < dialers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				raw, err := net.Dial("tcp", addr)
				connected <- raw
				if err != nil {
					return // the listener is already closed
				}
				// 101, 503 or a reset: each is a legal outcome here.
				_, _ = wsproto.Dial(raw, addr, "/ingest/ws", hdr)
			}()
		}
		// Drain once a round-dependent number of dialers have connected,
		// so that the flag flips at a different point of the upgrades
		// each round.
		var raws []net.Conn
		for len(raws) < round%dialers+1 {
			raws = append(raws, <-connected)
		}
		drained := make(chan struct{})
		go func() {
			svc.Drain()
			close(drained)
		}()
		hung := false
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			hung = true
		}
		wg.Wait()
		for len(raws) < dialers {
			raws = append(raws, <-connected)
		}
		for _, raw := range raws {
			if raw != nil {
				raw.Close() // also releases a handler Drain missed
			}
		}
		<-drained
		if hung {
			t.Fatalf("round %d: Drain still waiting after 5s for a handler it never closed", round)
		}
	}
}
