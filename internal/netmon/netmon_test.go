package netmon

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
)

// tappedServer boots a server behind a monitor tap and returns a
// client plus the monitor.
func tappedServer(t *testing.T, cfg Config) (*client.Client, *Monitor, func()) {
	t.Helper()
	srvCfg := server.HardenedConfig("wire-tok")
	srv := server.NewServer(srvCfg)
	mon := NewMonitor(cfg, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Serve(mon.WrapListener(ln))
	if err != nil {
		t.Fatal(err)
	}
	return client.New(addr, "wire-tok"), mon, func() { srv.Close() }
}

// drive produces one REST call and one kernel execution over WS.
func drive(t *testing.T, c *client.Client) {
	t.Helper()
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	k, err := c.StartKernel("minilang")
	if err != nil {
		t.Fatal(err)
	}
	kc, err := c.ConnectKernel(k.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()
	res, err := kc.Execute(`print("wire test")`)
	if err != nil || res.Status != "ok" {
		t.Fatalf("exec: %+v %v", res, err)
	}
}

// settle waits for async pipe analyzers to drain.
func settle() { time.Sleep(100 * time.Millisecond) }

func TestFullVisibilityLadder(t *testing.T) {
	c, mon, done := tappedServer(t, FullVisibility())
	defer done()
	drive(t, c)
	settle()

	vis := mon.Visibility()
	if vis.Conns == 0 || vis.BytesTotal == 0 {
		t.Fatalf("conn layer: %+v", vis)
	}
	if vis.HTTPRequests < 3 { // status, kernel start, ws upgrade
		t.Fatalf("http layer: %+v", vis)
	}
	if vis.WSFrames == 0 {
		t.Fatalf("ws layer: %+v", vis)
	}
	if vis.JupyterMessages < 6 { // request + 5 responses
		t.Fatalf("jupyter layer: %+v", vis)
	}

	// Typed logs populated.
	if len(mon.HTTPLog()) != int(vis.HTTPRequests) {
		t.Fatal("http log mismatch")
	}
	var sawUpgrade bool
	for _, h := range mon.HTTPLog() {
		if h.Upgrade && strings.Contains(h.Path, "/channels") {
			sawUpgrade = true
		}
	}
	if !sawUpgrade {
		t.Fatal("upgrade not recorded in http.log")
	}
	var sawExecuteRequest, sawStatusMsg bool
	for _, j := range mon.JupyterLog() {
		if j.MsgType == "execute_request" && j.FromClient {
			sawExecuteRequest = true
			if j.CodeSize == 0 {
				t.Error("execute_request code size not extracted")
			}
		}
		if j.MsgType == "status" && !j.FromClient {
			sawStatusMsg = true
		}
	}
	if !sawExecuteRequest || !sawStatusMsg {
		t.Fatalf("jupyter.log incomplete: %+v", mon.JupyterLog())
	}

	ladder := mon.Ladder()
	if !ladder.ConnLayer || !ladder.HTTPLayer || !ladder.WSLayer || !ladder.JupyterLayer {
		t.Fatalf("ladder = %+v", ladder)
	}
}

func TestTLSBlindsMonitor(t *testing.T) {
	c, mon, done := tappedServer(t, Config{SimulateTLS: true, ParseWebSocket: true, ParseJupyter: true})
	defer done()
	drive(t, c)
	settle()

	vis := mon.Visibility()
	if vis.Conns == 0 || vis.BytesTotal == 0 {
		t.Fatal("conn layer should still count")
	}
	if vis.HTTPRequests != 0 || vis.WSFrames != 0 || vis.JupyterMessages != 0 {
		t.Fatalf("TLS monitor saw plaintext: %+v", vis)
	}
	if vis.OpaqueBytes != vis.BytesTotal {
		t.Fatalf("opaque %d != total %d", vis.OpaqueBytes, vis.BytesTotal)
	}
	ladder := mon.Ladder()
	if ladder.HTTPLayer || ladder.WSLayer || ladder.JupyterLayer {
		t.Fatalf("ladder = %+v", ladder)
	}
}

func TestNoWSParserStopsAtHTTP(t *testing.T) {
	// Zeek before PR #3555: HTTP visible, WebSocket opaque.
	c, mon, done := tappedServer(t, Config{ParseWebSocket: false})
	defer done()
	drive(t, c)
	settle()

	vis := mon.Visibility()
	if vis.HTTPRequests == 0 {
		t.Fatal("http layer missing")
	}
	if vis.WSFrames != 0 || vis.JupyterMessages != 0 {
		t.Fatalf("ws parsed without parser: %+v", vis)
	}
	if vis.OpaqueBytes == 0 {
		t.Fatal("ws bytes not counted as opaque")
	}
}

func TestWSWithoutJupyterParser(t *testing.T) {
	c, mon, done := tappedServer(t, Config{ParseWebSocket: true, ParseJupyter: false})
	defer done()
	drive(t, c)
	settle()

	vis := mon.Visibility()
	if vis.WSFrames == 0 {
		t.Fatal("ws frames missing")
	}
	if vis.JupyterMessages != 0 {
		t.Fatal("jupyter parsed without parser")
	}
}

// TestWireDetection is the netmon payoff: a wire-only monitor (no host
// instrumentation) feeding the core engine still catches a miner
// payload inside an execute_request.
func TestWireDetection(t *testing.T) {
	c, mon, done := tappedServer(t, FullVisibility())
	defer done()
	eng := core.MustEngine()
	mon.Bus().Subscribe(eng)

	k, err := c.StartKernel("minilang")
	if err != nil {
		t.Fatal(err)
	}
	kc, err := c.ConnectKernel(k.ID, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	defer kc.Close()
	// The payload errors at runtime (egress denied) but the wire
	// monitor sees the code regardless.
	_, _ = kc.Execute(`pool = "stratum+tcp://pool.evil:4444"
print("mining", pool)`)
	settle()

	byClass := eng.IncidentsByClass()
	if len(byClass["cryptomining"]) == 0 {
		t.Fatalf("wire monitor missed miner payload; incidents = %+v", eng.Incidents())
	}
}

func TestConnRecordsByteCounts(t *testing.T) {
	c, mon, done := tappedServer(t, FullVisibility())
	defer done()
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	settle()
	conns := mon.ConnLog()
	if len(conns) == 0 {
		t.Fatal("no conn records")
	}
	var in, out int64
	for _, cr := range conns {
		in += cr.BytesIn
		out += cr.BytesOut
	}
	if in == 0 || out == 0 {
		t.Fatalf("bytes in=%d out=%d", in, out)
	}
}

func TestMonitorEmitsWireEvents(t *testing.T) {
	srvCfg := server.HardenedConfig("tok2")
	srv := server.NewServer(srvCfg)
	mon := NewMonitor(FullVisibility(), nil)
	ring := trace.NewRing(10000)
	mon.Bus().Subscribe(ring)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := srv.Serve(mon.WrapListener(ln))
	defer srv.Close()
	c := client.New(addr, "tok2")
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	settle()
	kinds := trace.CountByKind(ring.Snapshot())
	if kinds[trace.KindConn] == 0 || kinds[trace.KindHTTP] == 0 {
		t.Fatalf("kinds = %v", kinds)
	}
	// Wire events are tagged as such.
	for _, e := range ring.Filter(func(e trace.Event) bool { return e.Kind == trace.KindHTTP }) {
		if e.Field("wire") != "true" {
			t.Fatalf("http event not tagged wire: %+v", e)
		}
	}
}

func TestTokenInURLVisibleOnWire(t *testing.T) {
	// The monitor sees leaked credentials in URLs — MC-003's wire
	// equivalent and the reason hardened configs refuse them.
	cfg := server.HardenedConfig("leaky-token")
	cfg.Auth.AllowTokenInURL = true
	srv := server.NewServer(cfg)
	mon := NewMonitor(FullVisibility(), nil)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	addr, _ := srv.Serve(mon.WrapListener(ln))
	defer srv.Close()

	c := client.New(addr, "leaky-token")
	c.TokenInURL = true
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	settle()
	var leaked bool
	for _, h := range mon.HTTPLog() {
		if h.TokenInURL {
			leaked = true
		}
	}
	if !leaked {
		t.Fatal("token-in-URL not observed on wire")
	}
}

// TestAsyncMonitorStage drives a tapped server whose monitor bus feeds
// the engine through a bounded stage and checks the engine still sees
// the wire-derived exec event — the pipeline-v2 live topology.
func TestAsyncMonitorStage(t *testing.T) {
	c, mon, done := tappedServer(t, FullVisibility())
	eng := core.MustEngine()
	stage := trace.NewStage(eng, 1, 256, trace.Block)
	mon.Bus().Subscribe(stage)

	drive(t, c)
	settle()
	done()
	stage.Close() // drain the stage before asserting

	if stage.Dropped() != 0 {
		t.Fatalf("stage dropped %d events under Block policy", stage.Dropped())
	}
	vis := mon.Visibility()
	if vis.JupyterMessages == 0 {
		t.Fatalf("async monitor lost jupyter visibility: %+v", vis)
	}
	// Everything the analyzers decoded must have reached the engine:
	// at least the HTTP requests and Jupyter messages, plus conn open.
	if eng.Stats().Events < uint64(vis.HTTPRequests) {
		t.Fatalf("engine saw %d events, wire decoded %d http requests",
			eng.Stats().Events, vis.HTTPRequests)
	}
}
