// Package netmon is the paper's proposed Jupyter network monitoring
// tool: a Zeek-like passive analyzer that taps TCP connections and
// climbs the protocol ladder — connection accounting, HTTP request
// parsing, WebSocket frame decoding, and Jupyter protocol message
// extraction — emitting Zeek-style typed log records and trace events
// at every layer it can see.
//
// The layered design makes the paper's observability argument
// measurable: with TLS simulated the monitor is blind above the
// connection layer; without WebSocket support it stops at HTTP; only
// the full ladder reveals execute_requests. Visibility counters record
// exactly what each layer could and could not decode.
package netmon

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/jmsg"
	"repro/internal/trace"
	"repro/internal/wsproto"
)

// Config controls monitor capability, mirroring real-world deployment
// constraints.
type Config struct {
	// SimulateTLS blinds the monitor above the connection layer (the
	// "encrypted datagrams" condition).
	SimulateTLS bool
	// ParseWebSocket enables the WebSocket analyzer (Zeek gained this
	// only with PR #3555).
	ParseWebSocket bool
	// ParseJupyter enables Jupyter message extraction from WS frames.
	ParseJupyter bool
}

// FullVisibility returns a monitor config with every analyzer enabled.
func FullVisibility() Config {
	return Config{ParseWebSocket: true, ParseJupyter: true}
}

// Zeek-style typed log records.

// ConnRecord is one connection (conn.log).
type ConnRecord struct {
	ID       uint64
	SrcIP    string
	SrcPort  int
	BytesIn  int64
	BytesOut int64
	Upgraded bool
	Closed   bool
}

// HTTPRecord is one HTTP request seen on the wire (http.log).
type HTTPRecord struct {
	ConnID     uint64
	Method     string
	Path       string
	Host       string
	UserAgent  string
	HasAuth    bool
	TokenInURL bool
	Upgrade    bool
	Status     int // 101 when upgrade observed; 0 = response not parsed
}

// WSRecord is one WebSocket frame (websocket.log).
type WSRecord struct {
	ConnID     uint64
	FromClient bool
	Opcode     string
	Length     int
	Fin        bool
}

// JupyterRecord is one Jupyter protocol message (jupyter.log) — the
// log stream the paper says no existing tool produces.
type JupyterRecord struct {
	ConnID     uint64
	FromClient bool
	MsgType    string
	Channel    string
	Session    string
	CodeSize   int
}

// Visibility counts what each analyzer layer decoded.
type Visibility struct {
	Conns            uint64
	BytesTotal       uint64
	HTTPRequests     uint64
	WSFrames         uint64
	JupyterMessages  uint64
	JupyterParseFail uint64
	OpaqueBytes      uint64 // bytes the configuration could not interpret
}

// Monitor is the passive analyzer. Events derived from the wire are
// emitted on its Bus, synchronously on the analyzer goroutine (a
// subscriber that must not stall the analyzers wraps itself in a
// trace.Stage); typed logs accumulate for reports.
type Monitor struct {
	cfg   Config
	bus   *trace.Bus
	mu    sync.Mutex
	conns map[uint64]*ConnRecord
	http  []HTTPRecord
	ws    []WSRecord
	jup   []JupyterRecord
	vis   Visibility
	seq   uint64
}

// NewMonitor returns a Monitor emitting events on bus (a fresh bus is
// created if nil).
func NewMonitor(cfg Config, bus *trace.Bus) *Monitor {
	if bus == nil {
		bus = trace.NewBus(nil)
	}
	return &Monitor{cfg: cfg, bus: bus, conns: map[uint64]*ConnRecord{}}
}

// Bus returns the monitor's event bus (subscribe detectors here).
func (m *Monitor) Bus() *trace.Bus { return m.bus }

// Visibility returns a snapshot of visibility counters.
func (m *Monitor) Visibility() Visibility {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vis
}

// HTTPLog returns the accumulated http.log records.
func (m *Monitor) HTTPLog() []HTTPRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]HTTPRecord, len(m.http))
	copy(out, m.http)
	return out
}

// WSLog returns the accumulated websocket.log records.
func (m *Monitor) WSLog() []WSRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WSRecord, len(m.ws))
	copy(out, m.ws)
	return out
}

// JupyterLog returns the accumulated jupyter.log records.
func (m *Monitor) JupyterLog() []JupyterRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JupyterRecord, len(m.jup))
	copy(out, m.jup)
	return out
}

// ConnLog returns the accumulated conn.log records.
func (m *Monitor) ConnLog() []ConnRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ConnRecord, 0, len(m.conns))
	for _, c := range m.conns {
		out = append(out, *c)
	}
	return out
}

// WrapListener returns a listener whose accepted connections are
// tapped by the monitor — the deployment point "at the network edge".
func (m *Monitor) WrapListener(ln net.Listener) net.Listener {
	return &tapListener{Listener: ln, mon: m}
}

type tapListener struct {
	net.Listener
	mon *Monitor
}

func (tl *tapListener) Accept() (net.Conn, error) {
	c, err := tl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tl.mon.tap(c), nil
}

// tap wraps a connection, teeing both directions into analyzers.
func (m *Monitor) tap(c net.Conn) net.Conn {
	id := atomic.AddUint64(&m.seq, 1)
	srcIP, srcPort := splitAddr(c.RemoteAddr())
	rec := &ConnRecord{ID: id, SrcIP: srcIP, SrcPort: srcPort}
	m.mu.Lock()
	m.conns[id] = rec
	m.vis.Conns++
	m.mu.Unlock()
	m.bus.Emit(trace.Event{
		Kind: trace.KindConn, Op: "open", SrcIP: srcIP, SrcPort: srcPort, Success: true,
		Fields: map[string]string{"conn_id": strconv.FormatUint(id, 10)},
	})

	tc := &tapConn{Conn: c, mon: m, rec: rec}
	if m.cfg.SimulateTLS {
		// Encrypted: byte counting only — the Zeek-without-decryption
		// condition. No pipes, no analyzers.
		return tc
	}
	clientR, clientW := io.Pipe()
	serverR, serverW := io.Pipe()
	tc.clientW, tc.serverW = clientW, serverW
	go m.analyzeClient(id, rec, clientR)
	go m.analyzeServer(id, rec, serverR)
	return tc
}

func splitAddr(a net.Addr) (string, int) {
	if a == nil {
		return "", 0
	}
	host, portStr, err := net.SplitHostPort(a.String())
	if err != nil {
		return a.String(), 0
	}
	port, _ := strconv.Atoi(portStr)
	return host, port
}

// tapConn tees reads (client->server bytes) and writes
// (server->client bytes) into the analyzer pipes.
type tapConn struct {
	net.Conn
	mon       *Monitor
	rec       *ConnRecord
	clientW   *io.PipeWriter
	serverW   *io.PipeWriter
	closeOnce sync.Once
}

func (t *tapConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.mon.addBytes(t.rec, int64(n), 0)
		if t.clientW != nil {
			_, _ = t.clientW.Write(p[:n])
		}
	}
	// net/http aborts its background connection reads with a past
	// deadline; those transient timeouts must not end the analysis —
	// the connection is still alive and more bytes will follow.
	if err != nil && !isTimeout(err) && t.clientW != nil {
		t.clientW.CloseWithError(err)
	}
	return n, err
}

func (t *tapConn) Write(p []byte) (int, error) {
	n, err := t.Conn.Write(p)
	if n > 0 {
		t.mon.addBytes(t.rec, 0, int64(n))
		if t.serverW != nil {
			_, _ = t.serverW.Write(p[:n])
		}
	}
	if err != nil && !isTimeout(err) && t.serverW != nil {
		t.serverW.CloseWithError(err)
	}
	return n, err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (t *tapConn) Close() error {
	t.closeOnce.Do(func() {
		if t.clientW != nil {
			t.clientW.Close()
		}
		if t.serverW != nil {
			t.serverW.Close()
		}
		t.mon.mu.Lock()
		t.rec.Closed = true
		t.mon.mu.Unlock()
	})
	return t.Conn.Close()
}

func (m *Monitor) addBytes(rec *ConnRecord, in, out int64) {
	m.mu.Lock()
	rec.BytesIn += in
	rec.BytesOut += out
	m.vis.BytesTotal += uint64(in + out)
	if m.cfg.SimulateTLS {
		m.vis.OpaqueBytes += uint64(in + out)
	}
	m.mu.Unlock()
}

// analyzeClient parses the client->server byte stream: HTTP requests,
// then WebSocket frames after an upgrade request.
func (m *Monitor) analyzeClient(connID uint64, rec *ConnRecord, r *io.PipeReader) {
	defer r.Close()
	br := bufio.NewReader(r)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		hrec := HTTPRecord{
			ConnID: connID, Method: req.Method, Path: req.URL.RequestURI(),
			Host: req.Host, UserAgent: req.Header.Get("User-Agent"),
			HasAuth:    req.Header.Get("Authorization") != "",
			TokenInURL: req.URL.Query().Get("token") != "",
			Upgrade:    wsproto.IsUpgradeRequest(req),
		}
		if hrec.Upgrade {
			hrec.Status = http.StatusSwitchingProtocols
		}
		m.mu.Lock()
		m.http = append(m.http, hrec)
		m.vis.HTTPRequests++
		m.mu.Unlock()
		m.bus.Emit(trace.Event{
			Kind: trace.KindHTTP, Method: hrec.Method, Path: hrec.Path,
			Status: hrec.Status, SrcIP: rec.SrcIP, SrcPort: rec.SrcPort,
			Success: true,
			Fields: map[string]string{
				"conn_id": strconv.FormatUint(connID, 10),
				"wire":    "true",
			},
		})
		if hrec.Upgrade {
			m.mu.Lock()
			rec.Upgraded = true
			m.mu.Unlock()
			m.analyzeWS(connID, rec, br, true)
			return
		}
		// Drain the request body so the next request parses.
		if req.Body != nil {
			_, _ = io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
	}
}

// analyzeServer scans the server->client stream for the 101 response
// and then decodes server WebSocket frames. Regular response bodies
// are skipped line-wise (Zeek-style best effort).
func (m *Monitor) analyzeServer(connID uint64, rec *ConnRecord, r *io.PipeReader) {
	defer r.Close()
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		if !strings.HasPrefix(line, "HTTP/1.") {
			continue
		}
		if strings.Contains(line, " 101 ") {
			// Consume handshake headers until blank line, then frames.
			for {
				h, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if h == "\r\n" || h == "\n" {
					m.analyzeWS(connID, rec, br, false)
					return
				}
			}
		}
	}
}

// analyzeWS decodes WebSocket frames from one direction and, when
// enabled, extracts Jupyter messages from text frames.
func (m *Monitor) analyzeWS(connID uint64, rec *ConnRecord, br *bufio.Reader, fromClient bool) {
	if !m.cfg.ParseWebSocket {
		// Count the remaining bytes as opaque.
		n, _ := io.Copy(io.Discard, br)
		m.mu.Lock()
		m.vis.OpaqueBytes += uint64(n)
		m.mu.Unlock()
		return
	}
	fr := wsproto.NewFrameReader(br, 0)
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		wrec := WSRecord{
			ConnID: connID, FromClient: fromClient,
			Opcode: f.Opcode.String(), Length: len(f.Payload), Fin: f.Fin,
		}
		m.mu.Lock()
		m.ws = append(m.ws, wrec)
		m.vis.WSFrames++
		m.mu.Unlock()
		m.bus.Emit(trace.Event{
			Kind: trace.KindWSFrame, WSOpcode: wrec.Opcode,
			Bytes: int64(wrec.Length), SrcIP: rec.SrcIP, SrcPort: rec.SrcPort,
			Success: true,
			Fields: map[string]string{
				"conn_id":     strconv.FormatUint(connID, 10),
				"from_client": strconv.FormatBool(fromClient),
			},
		})
		if f.Opcode != wsproto.OpText || !f.Fin {
			continue
		}
		if !m.cfg.ParseJupyter {
			m.mu.Lock()
			m.vis.OpaqueBytes += uint64(len(f.Payload))
			m.mu.Unlock()
			continue
		}
		msg, err := jmsg.UnmarshalWS(f.Payload)
		if err != nil || msg.Header.MsgType == "" {
			m.mu.Lock()
			m.vis.JupyterParseFail++
			m.mu.Unlock()
			continue
		}
		jrec := JupyterRecord{
			ConnID: connID, FromClient: fromClient,
			MsgType: msg.Header.MsgType, Channel: string(msg.Channel),
			Session: msg.Header.Session,
		}
		ev := trace.Event{
			Kind: trace.KindKernMsg, MsgType: jrec.MsgType, Channel: jrec.Channel,
			Session: jrec.Session, SrcIP: rec.SrcIP, SrcPort: rec.SrcPort,
			Bytes: int64(len(f.Payload)), Success: true,
			Fields: map[string]string{
				"conn_id":     strconv.FormatUint(connID, 10),
				"from_client": strconv.FormatBool(fromClient),
				"wire":        "true",
			},
		}
		// Deep inspection: surface executed code so wire-level
		// signature rules (miner strings, encrypt calls) can fire
		// without host instrumentation.
		if msg.Header.MsgType == jmsg.TypeExecuteRequest {
			var er jmsg.ExecuteRequest
			if msg.DecodeContent(&er) == nil {
				jrec.CodeSize = len(er.Code)
				ev.Kind = trace.KindExec
				ev.Code = er.Code
				ev.User = msg.Header.Username
			}
		}
		m.mu.Lock()
		m.jup = append(m.jup, jrec)
		m.vis.JupyterMessages++
		m.mu.Unlock()
		m.bus.Emit(ev)
	}
}

// VisibilityLadder describes, for a given config, which layers are
// observable — the data behind the paper's observability table.
type VisibilityLadder struct {
	ConnLayer    bool
	HTTPLayer    bool
	WSLayer      bool
	JupyterLayer bool
}

// Ladder reports the layers this monitor's configuration can see.
func (m *Monitor) Ladder() VisibilityLadder {
	return VisibilityLadder{
		ConnLayer:    true,
		HTTPLayer:    !m.cfg.SimulateTLS,
		WSLayer:      !m.cfg.SimulateTLS && m.cfg.ParseWebSocket,
		JupyterLayer: !m.cfg.SimulateTLS && m.cfg.ParseWebSocket && m.cfg.ParseJupyter,
	}
}
