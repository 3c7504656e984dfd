// Package server implements the simulated Jupyter server: the REST
// API (contents, kernels, sessions, terminals, status), login, and
// the WebSocket kernel-channel endpoint, wired to the auth, vfs, and
// kernel substrates.
//
// The Config deliberately exposes every misconfiguration knob in the
// paper's taxonomy — open bind address, disabled auth, token in URL,
// permissive CORS, TLS off, root allowed, terminals on — so the
// misconfig scanner and the attack drivers have a truthful target.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/auth"
	"repro/internal/jmsg"
	"repro/internal/kernel"
	"repro/internal/nbformat"
	"repro/internal/nbscan"
	"repro/internal/posture"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/wsproto"
)

// Version reported by /api/status.
const Version = "7.0.0-sim"

// Config is the full server configuration, defined in the posture
// package so scanner suites can audit one without importing the
// server runtime. The alias keeps every existing call site valid.
type Config = posture.Config

// HardenedConfig returns the secure-by-default configuration the
// paper's hardening discussion recommends.
func HardenedConfig(token string) Config { return posture.Hardened(token) }

// SloppyConfig returns the exposed configuration seen on internet-
// scanned Jupyter instances: every knob wrong at once.
func SloppyConfig() Config { return posture.Sloppy() }

// PresetConfig resolves a named baseline configuration ("hardened" or
// "sloppy"), so the scanner CLI and the fleet generator share one
// preset registry.
func PresetConfig(name, token string) (Config, bool) { return posture.Preset(name, token) }

// Server is a running simulated Jupyter server.
type Server struct {
	cfg         Config
	clock       trace.Clock
	bus         *trace.Bus
	gateway     kernel.Gateway
	hostWrapper kernel.HostWrapper
	execHook    func(kernelID, user, code string)

	FS      *vfs.FS
	Auth    *auth.Authenticator
	Kernels *kernel.Manager

	mu        sync.Mutex
	sessions  map[string]*NotebookSession
	terminals map[string]*Terminal
	sessSeq   int
	termSeq   int

	httpServer *http.Server
	listener   net.Listener
	started    time.Time
}

// NotebookSession maps a notebook path to a running kernel.
type NotebookSession struct {
	ID       string `json:"id"`
	Path     string `json:"path"`
	Name     string `json:"name"`
	Type     string `json:"type"`
	KernelID string `json:"kernel_id"`
}

// Terminal is one simulated terminal.
type Terminal struct {
	Name    string    `json:"name"`
	Started time.Time `json:"-"`
	mu      sync.Mutex
	history []string
}

// History returns commands run in the terminal.
func (t *Terminal) History() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.history))
	copy(out, t.history)
	return out
}

// Option configures a Server.
type Option func(*Server)

// WithClock injects a clock.
func WithClock(c trace.Clock) Option { return func(s *Server) { s.clock = c } }

// WithBus injects the trace bus all events flow to.
func WithBus(b *trace.Bus) Option { return func(s *Server) { s.bus = b } }

// WithGateway sets the kernels' outbound network gateway.
func WithGateway(g kernel.Gateway) Option { return func(s *Server) { s.gateway = g } }

// WithKernelHooks installs a host wrapper and exec hook on every
// kernel — the attachment point for the kernel auditing tool.
func WithKernelHooks(w kernel.HostWrapper, execHook func(kernelID, user, code string)) Option {
	return func(s *Server) { s.hostWrapper, s.execHook = w, execHook }
}

// NewServer constructs a Server (not yet listening).
func NewServer(cfg Config, opts ...Option) *Server {
	s := &Server{
		cfg:       cfg,
		clock:     trace.RealClock{},
		sessions:  map[string]*NotebookSession{},
		terminals: map[string]*Terminal{},
	}
	for _, o := range opts {
		o(s)
	}
	if s.bus == nil {
		s.bus = trace.NewBus(s.clock)
	}
	fsOpts := []vfs.Option{vfs.WithClock(s.clock), vfs.WithSink(s.bus)}
	if cfg.ContentQuota > 0 {
		fsOpts = append(fsOpts, vfs.WithQuota(cfg.ContentQuota))
	}
	s.FS = vfs.New(fsOpts...)
	s.Auth = auth.New(cfg.Auth, s.clock, s.bus)
	kcfg := kernel.Config{
		FS:            s.FS,
		Clock:         s.clock,
		Sink:          s.bus,
		Hostname:      "hpc-login-01",
		ShellEnabled:  cfg.ShellInKernel,
		ConnectionKey: cfg.ConnectionKey,
		Gateway:       s.gateway,
		HostWrapper:   s.hostWrapper,
		ExecHook:      s.execHook,
	}
	if cfg.KernelLimits.MaxSteps > 0 {
		kcfg.Limits.MaxSteps = cfg.KernelLimits.MaxSteps
	}
	if cfg.KernelLimits.MaxOutputBytes > 0 {
		kcfg.Limits.MaxOutputBytes = cfg.KernelLimits.MaxOutputBytes
	}
	s.Kernels = kernel.NewManager(kcfg)
	return s
}

// Bus returns the server's trace bus.
func (s *Server) Bus() *trace.Bus { return s.bus }

// Config returns the active configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the HTTP handler (useful for in-process tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/status", s.withAuth(s.handleStatus))
	mux.HandleFunc("/login", s.handleLogin)
	mux.HandleFunc("/api/contents/", s.withAuth(s.handleContents))
	mux.HandleFunc("/api/contents", s.withAuth(s.handleContents))
	mux.HandleFunc("/api/kernels", s.withAuth(s.handleKernels))
	mux.HandleFunc("/api/kernels/", s.withAuth(s.handleKernelByID))
	mux.HandleFunc("/api/sessions", s.withAuth(s.handleSessions))
	mux.HandleFunc("/api/sessions/", s.withAuth(s.handleSessionByID))
	mux.HandleFunc("/api/terminals", s.withAuth(s.handleTerminals))
	mux.HandleFunc("/api/terminals/", s.withAuth(s.handleTerminalByName))
	mux.HandleFunc("/terminals/websocket/", s.withAuth(s.handleTerminalWS))
	return s.corsMiddleware(mux)
}

// Start listens and serves in a background goroutine, returning the
// bound address.
func (s *Server) Start() (string, error) {
	addr := fmt.Sprintf("%s:%d", s.cfg.BindAddress, s.cfg.Port)
	if s.cfg.BindAddress == "" || s.cfg.BindAddress == "0.0.0.0" {
		// In the simulator everything stays on loopback; an exposed
		// bind is recorded in config posture, not actually opened.
		addr = fmt.Sprintf("127.0.0.1:%d", s.cfg.Port)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener (tests wrap it with the netmon
// tap) and returns the bound address.
func (s *Server) Serve(ln net.Listener) (string, error) {
	s.listener = ln
	s.started = s.clock.Now()
	s.httpServer = &http.Server{Handler: s.Handler()}
	go func() {
		if err := s.httpServer.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) &&
			!errors.Is(err, net.ErrClosed) {
			// Serve errors after Close are expected; others surface in tests.
			_ = err
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops the server.
func (s *Server) Close() error {
	if s.httpServer != nil {
		return s.httpServer.Close()
	}
	return nil
}

// ---- middleware ----

func splitHostPort(remote string) (string, int) {
	host, portStr, err := net.SplitHostPort(remote)
	if err != nil {
		return remote, 0
	}
	var port int
	fmt.Sscanf(portStr, "%d", &port)
	return host, port
}

func (s *Server) corsMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.AllowOrigin != "" {
			w.Header().Set("Access-Control-Allow-Origin", s.cfg.AllowOrigin)
		}
		next.ServeHTTP(w, r)
	})
}

// authenticate resolves the requester's identity. It returns the user
// ("" for token/open auth) and whether the request is allowed.
func (s *Server) authenticate(r *http.Request) (string, bool) {
	if s.cfg.Auth.DisableAuth {
		_, _ = s.Auth.CheckToken(remoteIP(r), "", false)
		return "anonymous", true
	}
	src := remoteIP(r)
	// Authorization: token <tok>
	if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "token ") {
		d, err := s.Auth.CheckToken(src, strings.TrimPrefix(h, "token "), false)
		if err == nil && (d == auth.DecisionAllow || d == auth.DecisionNoAuthOpen) {
			return "token-user", true
		}
		return "", false
	}
	// ?token= in URL.
	if tok := r.URL.Query().Get("token"); tok != "" {
		d, err := s.Auth.CheckToken(src, tok, true)
		if err == nil && (d == auth.DecisionAllow || d == auth.DecisionNoAuthOpen) {
			return "token-user", true
		}
		return "", false
	}
	// Session cookie.
	if c, err := r.Cookie("jupyter-session"); err == nil {
		if sess, err := s.Auth.CheckSession(c.Value); err == nil {
			return sess.User, true
		}
	}
	return "", false
}

func remoteIP(r *http.Request) string {
	ip, _ := splitHostPort(r.RemoteAddr)
	return ip
}

func (s *Server) withAuth(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		user, ok := s.authenticate(r)
		srcIP, srcPort := splitHostPort(r.RemoteAddr)
		if !ok {
			s.emitHTTP(r, srcIP, srcPort, "", http.StatusForbidden)
			http.Error(w, `{"message":"Forbidden"}`, http.StatusForbidden)
			return
		}
		// WebSocket upgrades hijack the conn; record them as 101.
		if wsproto.IsUpgradeRequest(r) {
			s.emitHTTP(r, srcIP, srcPort, user, http.StatusSwitchingProtocols)
			h(w, r, user)
			return
		}
		rec := &recorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r, user)
		s.emitHTTP(r, srcIP, srcPort, user, rec.status)
	}
}

// recorder captures the response status for trace events while still
// supporting hijack for WebSocket endpoints.
type recorder struct {
	http.ResponseWriter
	status int
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) emitHTTP(r *http.Request, srcIP string, srcPort int, user string, status int) {
	s.bus.Emit(trace.Event{
		Kind: trace.KindHTTP, Method: r.Method, Path: r.URL.Path,
		Status: status, SrcIP: srcIP, SrcPort: srcPort, User: user,
		Success: status < 400,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"message": fmt.Sprintf(format, args...)})
}

// ---- handlers ----

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, user string) {
	writeJSON(w, http.StatusOK, map[string]any{
		"version":        Version,
		"started":        s.started.UTC().Format(time.RFC3339),
		"kernels":        s.Kernels.Count(),
		"last_activity":  s.clock.Now().UTC().Format(time.RFC3339),
		"authentication": !s.cfg.Auth.DisableAuth,
	})
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	srcIP, srcPort := splitHostPort(r.RemoteAddr)
	if r.Method != http.MethodPost {
		s.emitHTTP(r, srcIP, srcPort, "", http.StatusMethodNotAllowed)
		apiError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var creds struct {
		Username string `json:"username"`
		Password string `json:"password"`
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err == nil && len(body) > 0 {
		_ = json.Unmarshal(body, &creds)
	}
	if creds.Username == "" {
		creds.Username = r.FormValue("username")
		creds.Password = r.FormValue("password")
	}
	sess, decision, err := s.Auth.Login(remoteIP(r), creds.Username, creds.Password)
	switch {
	case err == nil:
		http.SetCookie(w, &http.Cookie{Name: "jupyter-session", Value: sess.ID, HttpOnly: true})
		s.emitHTTP(r, srcIP, srcPort, creds.Username, http.StatusOK)
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "session": sess.ID})
	case decision == auth.DecisionThrottled:
		s.emitHTTP(r, srcIP, srcPort, creds.Username, http.StatusTooManyRequests)
		apiError(w, http.StatusTooManyRequests, "too many failures")
	default:
		s.emitHTTP(r, srcIP, srcPort, creds.Username, http.StatusUnauthorized)
		apiError(w, http.StatusUnauthorized, "bad credentials")
	}
}

// contentsModel is the Jupyter contents API JSON shape.
type contentsModel struct {
	Name         string          `json:"name"`
	Path         string          `json:"path"`
	Type         string          `json:"type"`
	Format       string          `json:"format,omitempty"`
	Content      json.RawMessage `json:"content,omitempty"`
	Created      string          `json:"created,omitempty"`
	LastModified string          `json:"last_modified,omitempty"`
	Size         int             `json:"size,omitempty"`
	Writable     bool            `json:"writable"`
}

func nodeToModel(n *vfs.Node, withContent bool) contentsModel {
	m := contentsModel{
		Name: n.Path, Path: n.Path, Type: n.Type,
		Created:      n.Created.UTC().Format(time.RFC3339),
		LastModified: n.Modified.UTC().Format(time.RFC3339),
		Size:         len(n.Content), Writable: n.Writable,
	}
	if i := strings.LastIndexByte(n.Path, '/'); i >= 0 {
		m.Name = n.Path[i+1:]
	}
	if withContent && n.Type != vfs.TypeDirectory {
		if n.Type == vfs.TypeNotebook {
			m.Format = "json"
			m.Content = json.RawMessage(n.Content)
			if !json.Valid(m.Content) {
				b, _ := json.Marshal(string(n.Content))
				m.Format = "text"
				m.Content = b
			}
		} else {
			m.Format = "text"
			b, _ := json.Marshal(string(n.Content))
			m.Content = b
		}
	}
	return m
}

func (s *Server) handleContents(w http.ResponseWriter, r *http.Request, user string) {
	p := strings.TrimPrefix(r.URL.Path, "/api/contents")
	p = strings.TrimPrefix(p, "/")
	switch r.Method {
	case http.MethodGet:
		// GET /api/contents/<path>/checkpoints -> list checkpoints.
		if strings.HasSuffix(p, "/checkpoints") {
			target := strings.TrimSuffix(p, "/checkpoints")
			cks, err := s.FS.Checkpoints(target)
			if err != nil {
				apiError(w, http.StatusNotFound, "%v", err)
				return
			}
			out := make([]map[string]string, len(cks))
			for i, ck := range cks {
				out[i] = map[string]string{
					"id": ck.ID, "last_modified": ck.Taken.UTC().Format(time.RFC3339),
				}
			}
			writeJSON(w, http.StatusOK, out)
			return
		}
		node, err := s.FS.Stat(p)
		if err != nil {
			apiError(w, http.StatusNotFound, "no such entry: %s", p)
			return
		}
		if node.Type == vfs.TypeDirectory {
			children, err := s.FS.List(p)
			if err != nil {
				apiError(w, http.StatusInternalServerError, "%v", err)
				return
			}
			models := make([]contentsModel, len(children))
			for i, c := range children {
				models[i] = nodeToModel(c, false)
			}
			m := nodeToModel(node, false)
			b, _ := json.Marshal(models)
			m.Content = b
			m.Format = "json"
			writeJSON(w, http.StatusOK, m)
			return
		}
		// Reading through the API counts as a read for detection.
		if _, err := s.FS.Read(p, user); err != nil {
			apiError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, nodeToModel(node, true))
	case http.MethodPut:
		var m contentsModel
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&m); err != nil {
			apiError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		if m.Type == vfs.TypeDirectory {
			if err := s.FS.Mkdir(p); err != nil {
				apiError(w, http.StatusBadRequest, "%v", err)
				return
			}
			writeJSON(w, http.StatusCreated, map[string]string{"path": p, "type": "directory"})
			return
		}
		var content []byte
		if m.Format == "text" || m.Type == vfs.TypeFile {
			var sVal string
			if err := json.Unmarshal(m.Content, &sVal); err != nil {
				// Notebook JSON bodies arrive raw.
				content = []byte(m.Content)
			} else {
				content = []byte(sVal)
			}
		} else {
			content = []byte(m.Content)
		}
		// Validate notebooks before storing, as Jupyter does; when
		// scanning is on, statically analyze the code cells and emit a
		// finding event the detection engine can alert on.
		if strings.HasSuffix(p, ".ipynb") {
			nb, err := nbformat.Parse(content)
			if err != nil {
				apiError(w, http.StatusBadRequest, "invalid notebook: %v", err)
				return
			}
			if s.cfg.ScanNotebooks {
				if findings := nbscan.ScanNotebook(nb); len(findings) > 0 {
					srcIP, _ := splitHostPort(r.RemoteAddr)
					classes := map[string]bool{}
					for _, f := range findings {
						classes[f.Class] = true
					}
					classList := make([]string, 0, len(classes))
					for c := range classes {
						classList = append(classList, c)
					}
					sort.Strings(classList)
					s.bus.Emit(trace.Event{
						Kind: trace.KindFileOp, Op: "nb_scan", Target: p,
						User: user, SrcIP: srcIP,
						Bytes: int64(len(findings)), Success: false,
						Detail: findings[0].Evidence,
						Fields: map[string]string{
							"nb_top_severity": string(nbscan.TopSeverity(findings)),
							"nb_classes":      strings.Join(classList, ","),
						},
					})
				}
			}
		}
		if err := s.FS.Write(p, user, content); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, vfs.ErrQuotaExceeded) {
				status = http.StatusInsufficientStorage
			}
			apiError(w, status, "%v", err)
			return
		}
		node, _ := s.FS.Stat(p)
		writeJSON(w, http.StatusCreated, nodeToModel(node, false))
	case http.MethodDelete:
		if err := s.FS.Delete(p, user); err != nil {
			apiError(w, http.StatusNotFound, "%v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodPatch:
		var body struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Path == "" {
			apiError(w, http.StatusBadRequest, "rename needs {\"path\": ...}")
			return
		}
		if err := s.FS.Rename(p, body.Path, user); err != nil {
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		node, _ := s.FS.Stat(body.Path)
		writeJSON(w, http.StatusOK, nodeToModel(node, false))
	case http.MethodPost:
		// POST /api/contents/<path>/checkpoints            -> create
		// POST /api/contents/<path>/checkpoints/<id>       -> restore
		if strings.HasSuffix(p, "/checkpoints") {
			target := strings.TrimSuffix(p, "/checkpoints")
			ck, err := s.FS.CreateCheckpoint(target)
			if err != nil {
				apiError(w, http.StatusNotFound, "%v", err)
				return
			}
			writeJSON(w, http.StatusCreated, map[string]string{
				"id": ck.ID, "last_modified": ck.Taken.UTC().Format(time.RFC3339),
			})
			return
		}
		if i := strings.LastIndex(p, "/checkpoints/"); i >= 0 {
			target, id := p[:i], p[i+len("/checkpoints/"):]
			if err := s.FS.RestoreCheckpoint(target, id, user); err != nil {
				apiError(w, http.StatusNotFound, "%v", err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
			return
		}
		apiError(w, http.StatusBadRequest, "unsupported POST path")
	default:
		apiError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

type kernelModel struct {
	ID             string `json:"id"`
	Name           string `json:"name"`
	ExecutionState string `json:"execution_state"`
	Connections    int    `json:"connections"`
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request, user string) {
	switch r.Method {
	case http.MethodGet:
		ks := s.Kernels.List()
		models := make([]kernelModel, len(ks))
		for i, k := range ks {
			models[i] = kernelModel{ID: k.ID, Name: k.Name, ExecutionState: k.State()}
		}
		writeJSON(w, http.StatusOK, models)
	case http.MethodPost:
		var body struct {
			Name string `json:"name"`
		}
		_ = json.NewDecoder(r.Body).Decode(&body)
		k := s.Kernels.Start(body.Name, user)
		writeJSON(w, http.StatusCreated, kernelModel{ID: k.ID, Name: k.Name, ExecutionState: k.State()})
	default:
		apiError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

func (s *Server) handleKernelByID(w http.ResponseWriter, r *http.Request, user string) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/kernels/")
	parts := strings.Split(rest, "/")
	id := parts[0]
	k, err := s.Kernels.Get(id)
	if err != nil {
		apiError(w, http.StatusNotFound, "%v", err)
		return
	}
	if len(parts) == 1 {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, kernelModel{ID: k.ID, Name: k.Name, ExecutionState: k.State()})
		case http.MethodDelete:
			_ = s.Kernels.Shutdown(id)
			w.WriteHeader(http.StatusNoContent)
		default:
			apiError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
		}
		return
	}
	switch parts[1] {
	case "interrupt":
		w.WriteHeader(http.StatusNoContent)
	case "restart":
		if err := s.Kernels.Restart(id); err != nil {
			apiError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, kernelModel{ID: k.ID, Name: k.Name, ExecutionState: k.State()})
	case "channels":
		s.handleKernelChannels(w, r, k, user)
	default:
		apiError(w, http.StatusNotFound, "unknown kernel action %q", parts[1])
	}
}

// handleKernelChannels upgrades to a WebSocket and relays protocol
// messages between the client and the kernel — the Fig. 2 data path.
func (s *Server) handleKernelChannels(w http.ResponseWriter, r *http.Request, k *kernel.Kernel, user string) {
	conn, err := wsproto.Upgrade(w, r)
	if err != nil {
		return
	}
	defer conn.Close(wsproto.CloseNormal, "bye")
	srcIP, srcPort := splitHostPort(r.RemoteAddr)
	for {
		op, payload, err := conn.ReadMessage()
		if err != nil {
			return
		}
		if op != wsproto.OpText && op != wsproto.OpBinary {
			continue
		}
		msg, err := jmsg.UnmarshalWS(payload)
		if err != nil {
			_ = conn.WriteMessage(wsproto.OpText, []byte(`{"error":"bad message"}`))
			continue
		}
		s.bus.Emit(trace.Event{
			Kind: trace.KindKernMsg, MsgType: msg.Header.MsgType,
			Channel: string(msg.Channel), KernelID: k.ID,
			User: user, Session: msg.Header.Session,
			SrcIP: srcIP, SrcPort: srcPort,
			Bytes: int64(len(payload)), Success: true,
		})
		replies, err := k.HandleMessage(msg)
		if err != nil {
			errPayload, _ := json.Marshal(map[string]string{"error": err.Error()})
			_ = conn.WriteMessage(wsproto.OpText, errPayload)
			continue
		}
		for _, reply := range replies {
			out, err := reply.MarshalWS()
			if err != nil {
				continue
			}
			s.bus.Emit(trace.Event{
				Kind: trace.KindKernMsg, MsgType: reply.Header.MsgType,
				Channel: string(reply.Channel), KernelID: k.ID,
				User: user, Session: reply.Header.Session,
				Bytes: int64(len(out)), Success: true,
				Fields: map[string]string{"direction": "out"},
			})
			if err := conn.WriteMessage(wsproto.OpText, out); err != nil {
				return
			}
		}
	}
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request, user string) {
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		out := make([]*NotebookSession, 0, len(s.sessions))
		for _, sess := range s.sessions {
			out = append(out, sess)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var body struct {
			Path   string `json:"path"`
			Name   string `json:"name"`
			Type   string `json:"type"`
			Kernel struct {
				Name string `json:"name"`
			} `json:"kernel"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			apiError(w, http.StatusBadRequest, "bad body: %v", err)
			return
		}
		k := s.Kernels.Start(body.Kernel.Name, user)
		s.mu.Lock()
		s.sessSeq++
		sess := &NotebookSession{
			ID:       fmt.Sprintf("nbsess-%04d", s.sessSeq),
			Path:     body.Path,
			Name:     body.Name,
			Type:     body.Type,
			KernelID: k.ID,
		}
		s.sessions[sess.ID] = sess
		s.mu.Unlock()
		writeJSON(w, http.StatusCreated, sess)
	default:
		apiError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

func (s *Server) handleSessionByID(w http.ResponseWriter, r *http.Request, user string) {
	id := strings.TrimPrefix(r.URL.Path, "/api/sessions/")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		apiError(w, http.StatusNotFound, "no session %s", id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, sess)
	case http.MethodDelete:
		s.mu.Lock()
		delete(s.sessions, id)
		s.mu.Unlock()
		_ = s.Kernels.Shutdown(sess.KernelID)
		w.WriteHeader(http.StatusNoContent)
	default:
		apiError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

func (s *Server) handleTerminals(w http.ResponseWriter, r *http.Request, user string) {
	if !s.cfg.EnableTerminals {
		apiError(w, http.StatusForbidden, "terminals disabled")
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.mu.Lock()
		out := make([]map[string]string, 0, len(s.terminals))
		for name := range s.terminals {
			out = append(out, map[string]string{"name": name})
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		s.mu.Lock()
		s.termSeq++
		name := fmt.Sprintf("%d", s.termSeq)
		s.terminals[name] = &Terminal{Name: name, Started: s.clock.Now()}
		s.mu.Unlock()
		writeJSON(w, http.StatusCreated, map[string]string{"name": name})
	default:
		apiError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

func (s *Server) handleTerminalByName(w http.ResponseWriter, r *http.Request, user string) {
	if !s.cfg.EnableTerminals {
		apiError(w, http.StatusForbidden, "terminals disabled")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/api/terminals/")
	s.mu.Lock()
	term, ok := s.terminals[name]
	s.mu.Unlock()
	if !ok {
		apiError(w, http.StatusNotFound, "no terminal %s", name)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]string{"name": term.Name})
	case http.MethodDelete:
		s.mu.Lock()
		delete(s.terminals, name)
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	default:
		apiError(w, http.StatusMethodNotAllowed, "method %s", r.Method)
	}
}

// handleTerminalWS speaks the Jupyter terminado protocol: JSON arrays
// ["stdin", data] in, ["stdout", data] out.
func (s *Server) handleTerminalWS(w http.ResponseWriter, r *http.Request, user string) {
	if !s.cfg.EnableTerminals {
		apiError(w, http.StatusForbidden, "terminals disabled")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/terminals/websocket/")
	s.mu.Lock()
	term, ok := s.terminals[name]
	s.mu.Unlock()
	if !ok {
		apiError(w, http.StatusNotFound, "no terminal %s", name)
		return
	}
	conn, err := wsproto.Upgrade(w, r)
	if err != nil {
		return
	}
	defer conn.Close(wsproto.CloseNormal, "bye")
	srcIP, _ := splitHostPort(r.RemoteAddr)
	for {
		op, payload, err := conn.ReadMessage()
		if err != nil {
			return
		}
		if op != wsproto.OpText {
			continue
		}
		var frame []string
		if err := json.Unmarshal(payload, &frame); err != nil || len(frame) < 2 || frame[0] != "stdin" {
			continue
		}
		cmd := strings.TrimSpace(frame[1])
		term.mu.Lock()
		term.history = append(term.history, cmd)
		term.mu.Unlock()
		s.bus.Emit(trace.Event{
			Kind: trace.KindTermCmd, Op: "terminal", Code: cmd,
			User: user, SrcIP: srcIP, Success: true,
			Fields: map[string]string{"terminal": name},
		})
		out := simulateTerminal(cmd)
		resp, _ := json.Marshal([]string{"stdout", out})
		if err := conn.WriteMessage(wsproto.OpText, resp); err != nil {
			return
		}
	}
}

// simulateTerminal returns canned shell output for terminal commands.
func simulateTerminal(cmd string) string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return "$ "
	}
	switch fields[0] {
	case "ls":
		return "notebooks  data  models\n$ "
	case "whoami":
		return "jovyan\n$ "
	case "pwd":
		return "/home/jovyan\n$ "
	case "curl", "wget":
		return fields[0] + ": simulated network fetch blocked\n$ "
	default:
		return "sh: " + fields[0] + ": simulated\n$ "
	}
}
