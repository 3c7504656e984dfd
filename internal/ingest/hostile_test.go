package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/auth"
	"repro/internal/trace"
)

// hostileRequest is one POST /ingest-shaped request with every part an
// abusive agent controls: method, headers and raw body bytes.
type hostileRequest struct {
	method, tenant, auth string
	body                 []byte
}

// sendRaw reports a failed request with t.Errorf, so a streaming
// goroutine may call it too.
func sendRaw(t *testing.T, addr string, r hostileRequest) (int, batchResponse) {
	t.Helper()
	req, err := http.NewRequest(r.method, "http://"+addr+"/ingest", bytes.NewReader(r.body))
	if err != nil {
		t.Errorf("NewRequest: %v", err)
		return 0, batchResponse{}
	}
	if r.tenant != "" {
		req.Header.Set("X-Tenant", r.tenant)
	}
	if r.auth != "" {
		req.Header.Set("Authorization", r.auth)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Errorf("%s /ingest: %v", r.method, err)
		return 0, batchResponse{}
	}
	defer resp.Body.Close()
	var br batchResponse
	_ = json.NewDecoder(resp.Body).Decode(&br)
	return resp.StatusCode, br
}

// hostileLines returns n JSONL event lines, each padded to about a
// kilobyte so a MaxBody cut after a few of them still admits a whole
// clean batch.
func hostileLines(tb testing.TB, n int) [][]byte {
	tb.Helper()
	lines := make([][]byte, n)
	for i := range lines {
		lines[i] = jsonlBody(tb, trace.Event{
			Kind: trace.KindHTTP, SrcIP: "198.51.100.7", Path: fmt.Sprintf("/%d/%s", i, strings.Repeat("x", 1000)),
		})
	}
	return lines
}

// hostileBodies are the multi-line bodies TestHTTPIngestHostileInput
// sends, by what they hold; FuzzIngestBody starts from them.
func hostileBodies(tb testing.TB) map[string][]byte {
	five := hostileLines(tb, 5)
	var burst []trace.Event
	for i := 0; i < 100; i++ {
		burst = append(burst, trace.Event{Kind: trace.KindAuth, SrcIP: "198.51.100.8", Op: "deny"})
	}
	return map[string][]byte{
		"five lines":         bytes.Join(five, nil),
		"bad JSON on line 4": bytes.Join([][]byte{five[0], five[1], five[2], []byte("{\"kind\":\n"), five[3]}, nil),
		"CRLF": []byte(strings.Join([]string{
			"\r\n", strings.TrimSuffix(string(five[0]), "\n"), "\r\n\r\n\n",
			strings.TrimSuffix(string(five[1]), "\n"), "\r\n", strings.TrimSuffix(string(five[2]), "\n"),
		}, "")),
		"NUL on line 2":   []byte("{\"kind\":\"http\",\"path\":\"/a\"}\n{\"kind\":\"http\",\"path\":\"/\x00\"}\n{\"kind\":\"http\"}\n"),
		"100-event burst": jsonlBody(tb, burst...),
	}
}

// TestHTTPIngestHostileInput runs one abusive request per row against
// POST /ingest while a second tenant streams a clean trace. Whatever
// the abuse, after Drain each tenant's counters satisfy
// submitted == Accepted + Dropped + Denied and Processed == Accepted,
// and the clean tenant loses nothing.
func TestHTTPIngestHostileInput(t *testing.T) {
	kr := testKeyring(t, "clean", "hostile")
	cleanTok, _ := kr.Mint("clean")
	hostileTok, _ := kr.Mint("hostile")
	bearer := "Bearer " + hostileTok
	five := hostileLines(t, 5)
	firstThree := len(bytes.Join(five[:3], nil))
	bodies := hostileBodies(t)
	quota := func(p trace.DropPolicy) Config {
		return Config{Rate: 200, Burst: 10, TenantPolicy: map[string]trace.DropPolicy{"hostile": p}}
	}

	rows := []struct {
		name string
		cfg  Config
		req  hostileRequest
		// The reply, and the events the hostile tenant submitted; -1
		// means the request must create no tenant state at all.
		status, accepted, submitted int
	}{
		{name: "missing token", req: hostileRequest{http.MethodPost, "hostile", "", five[0]},
			status: http.StatusUnauthorized, submitted: -1},
		{name: "garbled token", req: hostileRequest{http.MethodPost, "hostile", "Bearer " + hostileTok[:len(hostileTok)/2] + "~garbled~", five[0]},
			status: http.StatusUnauthorized, submitted: -1},
		{name: "other tenant's token", req: hostileRequest{http.MethodPost, "hostile", "Bearer " + cleanTok, five[0]},
			status: http.StatusUnauthorized, submitted: -1},
		{name: "wrong method", req: hostileRequest{http.MethodPut, "hostile", bearer, five[0]},
			status: http.StatusMethodNotAllowed, submitted: -1},
		{name: "body over MaxBody cut on a line boundary", cfg: Config{MaxBody: int64(firstThree)},
			req:    hostileRequest{http.MethodPost, "hostile", bearer, bodies["five lines"]},
			status: http.StatusRequestEntityTooLarge, accepted: 3, submitted: 3},
		{name: "body over MaxBody cut inside a line", cfg: Config{MaxBody: int64(firstThree + 10)},
			req:    hostileRequest{http.MethodPost, "hostile", bearer, bodies["five lines"]},
			status: http.StatusRequestEntityTooLarge, accepted: 3, submitted: 3},
		{name: "bad JSON on line 4",
			req:    hostileRequest{http.MethodPost, "hostile", bearer, bodies["bad JSON on line 4"]},
			status: http.StatusBadRequest, accepted: 3, submitted: 3},
		{name: "CRLF, blank lines and an unterminated last line",
			req:    hostileRequest{http.MethodPost, "hostile", bearer, bodies["CRLF"]},
			status: http.StatusOK, accepted: 3, submitted: 3},
		{name: "NUL byte on line 2",
			req:    hostileRequest{http.MethodPost, "hostile", bearer, bodies["NUL on line 2"]},
			status: http.StatusBadRequest, accepted: 1, submitted: 1},
		{name: "over-quota burst under drop_newest", cfg: quota(trace.DropNewest),
			req:    hostileRequest{http.MethodPost, "hostile", bearer, bodies["100-event burst"]},
			status: http.StatusTooManyRequests, accepted: -1, submitted: 100},
		{name: "over-quota burst under block", cfg: quota(trace.Block),
			req:    hostileRequest{http.MethodPost, "hostile", bearer, bodies["100-event burst"]},
			status: http.StatusOK, accepted: 100, submitted: 100},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg
			cfg.Keyring = kr
			sink := &collector{}
			svc, addr := startService(t, cfg, sink)

			// The clean tenant streams batches until the abuse is over
			// and it has sent at least three.
			var abused atomic.Bool
			var cleanSent int
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for batch := 0; batch < 3 || !abused.Load(); batch++ {
					var events []trace.Event
					for i := 0; i < 10; i++ {
						events = append(events, trace.Event{Kind: trace.KindExec, User: "alice", Code: fmt.Sprintf("print(%d)", batch*10+i)})
					}
					status, br := sendRaw(t, addr, hostileRequest{http.MethodPost, "clean", "Bearer " + cleanTok, jsonlBody(t, events...)})
					if status != http.StatusOK || br.Accepted != len(events) {
						t.Errorf("clean batch %d: status %d, accepted %d of %d", batch, status, br.Accepted, len(events))
					}
					cleanSent += len(events)
				}
			}()
			status, br := sendRaw(t, addr, row.req)
			abused.Store(true)
			wg.Wait()
			svc.Drain()

			if status != row.status {
				t.Errorf("status %d, want %d", status, row.status)
			}
			if row.accepted >= 0 && br.Accepted != row.accepted {
				t.Errorf("reply accepted %d, want %d", br.Accepted, row.accepted)
			}
			stats := map[string]TenantStats{}
			for _, ts := range svc.Stats().Tenants {
				stats[ts.Tenant] = ts
				if ts.Processed != ts.Accepted {
					t.Errorf("tenant %s: processed %d != accepted %d after Drain", ts.Tenant, ts.Processed, ts.Accepted)
				}
			}
			hostile, seen := stats["hostile"]
			switch {
			case row.submitted < 0 && seen:
				t.Errorf("rejected request created tenant state: %+v", hostile)
			case row.submitted >= 0 && int(hostile.Accepted+hostile.Dropped+hostile.Denied) != row.submitted:
				t.Errorf("hostile tenant: accepted %d + dropped %d + denied %d != %d submitted",
					hostile.Accepted, hostile.Dropped, hostile.Denied, row.submitted)
			case row.submitted >= 0 && row.accepted < 0 && int(hostile.Accepted) != br.Accepted:
				t.Errorf("hostile tenant: accepted %d, reply said %d", hostile.Accepted, br.Accepted)
			}
			clean := stats["clean"]
			if int(clean.Accepted) != cleanSent || clean.Dropped != 0 || clean.Denied != 0 {
				t.Errorf("clean tenant lost events: %+v of %d submitted", clean, cleanSent)
			}
			delivered := 0
			for _, e := range sink.snapshot() {
				if strings.HasPrefix(e.User, "clean/") {
					delivered++
				}
			}
			if delivered != cleanSent {
				t.Errorf("sink saw %d of the clean tenant's %d events", delivered, cleanSent)
			}
		})
	}
}

// FuzzIngestBody sends arbitrary bytes as an authenticated tenant's
// POST /ingest body, in process (no TCP), with MaxBody at 4 KiB.
// Whatever the body, the handler answers 200, 400, 413 or 429 with its
// counts, the tenant's books balance after Drain, and the sink holds
// exactly the events the reply says were accepted.
func FuzzIngestBody(f *testing.F) {
	for _, body := range hostileBodies(f) {
		f.Add(body)
	}
	f.Add([]byte{})
	kr := auth.NewKeyring()
	if err := kr.AddTenant("fuzz", []byte("secret-fuzz")); err != nil {
		f.Fatal(err)
	}
	tok, _ := kr.Mint("fuzz")
	f.Fuzz(func(t *testing.T, body []byte) {
		sink := &collector{}
		svc := New(Config{Keyring: kr, MaxBody: 4 << 10}, sink)
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("X-Tenant", "fuzz")
		req.Header.Set("Authorization", "Bearer "+tok)
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		svc.Drain()

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var br batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
			t.Fatalf("status %d reply is not JSON: %v\n%s", rec.Code, err, rec.Body)
		}
		tenants := svc.Stats().Tenants
		if len(tenants) != 1 {
			t.Fatalf("%d tenants in stats, want 1", len(tenants))
		}
		ts := tenants[0]
		if got := ts.Accepted + ts.Dropped + ts.Denied; got != uint64(br.Accepted+br.Denied) {
			t.Errorf("accepted %d + dropped %d + denied %d = %d, reply says %d submitted",
				ts.Accepted, ts.Dropped, ts.Denied, got, br.Accepted+br.Denied)
		}
		if ts.Processed != ts.Accepted {
			t.Errorf("processed %d != accepted %d after Drain", ts.Processed, ts.Accepted)
		}
		if got := len(sink.snapshot()); got != br.Accepted {
			t.Errorf("sink received %d events, reply says %d accepted", got, br.Accepted)
		}
	})
}
