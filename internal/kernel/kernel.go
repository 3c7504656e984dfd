// Package kernel implements the simulated Jupyter kernel and kernel
// manager: a REPL that executes minilang cell sources and speaks the
// Jupyter messaging protocol (execute_request/reply, iopub streams and
// status, interrupt/shutdown), with per-execution resource accounting.
//
// This is the substrate for the paper's Fig. 2 (the two-process model)
// and the attachment point for the kernel auditing tool the paper
// proposes: hosts can be wrapped to trace every file, network, and
// shell operation a cell performs.
package kernel

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/jmsg"
	"repro/internal/kernel/minilang"
	"repro/internal/trace"
	"repro/internal/vfs"
)

// Execution states reported on the iopub status channel.
const (
	StateStarting = "starting"
	StateIdle     = "idle"
	StateBusy     = "busy"
	StateDead     = "dead"
)

// Errors.
var (
	ErrNoKernel   = errors.New("kernel: no such kernel")
	ErrKernelDead = errors.New("kernel: kernel is dead")
)

// Gateway is the kernel's simulated outbound network. Implementations
// route requests to registered in-process endpoints; there is no real
// network egress anywhere in the simulator.
type Gateway interface {
	Request(method, url string, body []byte) (status int, resp []byte, err error)
}

// GatewayFunc adapts a function to Gateway.
type GatewayFunc func(method, url string, body []byte) (int, []byte, error)

// Request calls f.
func (f GatewayFunc) Request(method, url string, body []byte) (int, []byte, error) {
	return f(method, url, body)
}

// DenyAllGateway refuses every request, the hardened egress posture.
var DenyAllGateway Gateway = GatewayFunc(func(method, url string, _ []byte) (int, []byte, error) {
	return 0, nil, fmt.Errorf("kernel: egress denied: %s %s", method, url)
})

// HostWrapper decorates the minilang Host — the kernel auditing tool's
// insertion point. It receives the kernel id and user for attribution.
type HostWrapper func(kernelID, user string, inner minilang.Host) minilang.Host

// Config configures a kernel manager.
type Config struct {
	FS          *vfs.FS
	Gateway     Gateway
	Clock       trace.Clock
	Sink        trace.Sink
	Limits      minilang.Limits
	Hostname    string
	Env         map[string]string
	HostWrapper HostWrapper
	// ExecHook is invoked at the start of every execution, before any
	// host operations — the audit log uses it to open an attribution
	// scope so file/net records chain to the right execution.
	ExecHook func(kernelID, user, code string)
	// ShellEnabled permits the shell() builtin (terminal escape). The
	// hardened configuration disables it.
	ShellEnabled bool
	// ConnectionKey signs kernel wire messages; empty disables signing.
	ConnectionKey string
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = trace.RealClock{}
	}
	if c.Sink == nil {
		c.Sink = trace.Discard
	}
	if c.Gateway == nil {
		c.Gateway = DenyAllGateway
	}
	if c.Hostname == "" {
		c.Hostname = "hpc-login-01"
	}
	if c.FS == nil {
		c.FS = vfs.New(vfs.WithClock(c.Clock))
	}
	return c
}

// fsHost binds the minilang Host interface to the virtual filesystem
// and the network gateway, emitting trace events for network and
// shell operations (file operations are emitted by the vfs itself).
type fsHost struct {
	cfg      Config
	kernelID string
	user     string
}

func (h *fsHost) ReadFile(path string) ([]byte, error) {
	return h.cfg.FS.Read(path, h.user)
}

func (h *fsHost) WriteFile(path string, data []byte) error {
	return h.cfg.FS.Write(path, h.user, data)
}

func (h *fsHost) DeleteFile(path string) error {
	return h.cfg.FS.Delete(path, h.user)
}

func (h *fsHost) RenameFile(oldPath, newPath string) error {
	return h.cfg.FS.Rename(oldPath, newPath, h.user)
}

func (h *fsHost) ListFiles(dir string) ([]string, error) {
	nodes, err := h.cfg.FS.Walk(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Path
	}
	return names, nil
}

func (h *fsHost) HTTPRequest(method, url string, body []byte) (int, []byte, error) {
	status, resp, err := h.cfg.Gateway.Request(method, url, body)
	h.cfg.Sink.Emit(trace.Event{
		Kind: trace.KindNetOp, Op: method, Target: url,
		Bytes: int64(len(body)), Entropy: vfs.Entropy(body),
		User: h.user, KernelID: h.kernelID,
		Success: err == nil, Status: status,
		Detail: errDetail(err),
	})
	return status, resp, err
}

func (h *fsHost) Shell(cmd string) (string, error) {
	if !h.cfg.ShellEnabled {
		h.cfg.Sink.Emit(trace.Event{
			Kind: trace.KindTermCmd, Op: "shell", Code: cmd,
			User: h.user, KernelID: h.kernelID, Success: false,
			Detail: "shell disabled by policy",
		})
		return "", errors.New("kernel: shell access disabled by policy")
	}
	out := simulateShell(cmd, h.cfg.Hostname)
	h.cfg.Sink.Emit(trace.Event{
		Kind: trace.KindTermCmd, Op: "shell", Code: cmd,
		User: h.user, KernelID: h.kernelID, Success: true,
	})
	return out, nil
}

func (h *fsHost) Spin(cpuMillis int64) {
	if fc, ok := h.cfg.Clock.(*trace.FakeClock); ok {
		fc.Advance(time.Duration(cpuMillis) * time.Millisecond)
	}
}

func (h *fsHost) Hostname() string { return h.cfg.Hostname }

func (h *fsHost) Env(name string) string { return h.cfg.Env[name] }

func errDetail(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// simulateShell returns canned output for a few common commands, so
// attack payloads that probe the host look realistic in audit logs.
func simulateShell(cmd, hostname string) string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return ""
	}
	switch fields[0] {
	case "hostname":
		return hostname + "\n"
	case "whoami":
		return "jovyan\n"
	case "uname":
		return "Linux " + hostname + " 5.14.0 x86_64 GNU/Linux\n"
	case "nproc":
		return "128\n"
	case "id":
		return "uid=1000(jovyan) gid=100(users) groups=100(users)\n"
	default:
		return "sh: " + fields[0] + ": simulated\n"
	}
}

// Kernel is one running kernel instance.
type Kernel struct {
	ID       string
	Name     string // kernel spec name
	ConnInfo jmsg.ConnectionInfo

	mu        sync.Mutex
	cfg       Config
	eng       *minilang.VM
	progs     *progCache // manager-shared
	signer    *jmsg.Signer
	execCount int
	state     string
	msgSeq    int
	user      string
	started   time.Time
	lastUsed  time.Time

	// Cumulative resource usage across executions.
	usage Usage
}

// Usage summarizes kernel resource consumption.
type Usage struct {
	Executions   int
	CPUMillis    int64
	BytesRead    int64
	BytesWritten int64
	NetBytes     int64
	NetCalls     int
	ShellCalls   int
	// Program-cache effectiveness for this kernel's executions: a hit
	// means the cell source was already parsed (and, for the VM, its
	// bytecode already compiled by this kernel's engine after the
	// first run of that program).
	ProgCacheHits   int
	ProgCacheMisses int
}

// State returns the kernel execution state.
func (k *Kernel) State() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.state
}

// Usage returns a copy of cumulative resource usage.
func (k *Kernel) Usage() Usage {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.usage
}

// ExecutionCount returns the number of completed executions.
func (k *Kernel) ExecutionCount() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.execCount
}

// Signer returns the kernel's message signer.
func (k *Kernel) Signer() *jmsg.Signer { return k.signer }

func (k *Kernel) nextMsgID() string {
	k.msgSeq++
	return fmt.Sprintf("%s-msg-%d", k.ID, k.msgSeq)
}

// ExecResult is the outcome of one execution.
type ExecResult struct {
	Status         string // "ok" | "error"
	ExecutionCount int
	Stdout         string
	EName          string
	EValue         string
	// IOPub carries the exact message sequence a Jupyter front end
	// would see: status busy, execute_input, stream(s)/error,
	// status idle.
	IOPub []*jmsg.Message
	Reply *jmsg.Message
}

// Execute runs code as one cell execution, producing the Jupyter
// message flow of Fig. 2. parent is the triggering execute_request
// (may be nil for direct API use).
func (k *Kernel) Execute(code string, parent *jmsg.Message) (*ExecResult, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.state == StateDead {
		return nil, ErrKernelDead
	}
	now := k.cfg.Clock.Now()
	k.lastUsed = now
	k.state = StateBusy

	res := &ExecResult{}
	user := k.user
	session := k.ID
	if parent != nil {
		if parent.Header.Username != "" {
			user = parent.Header.Username
		}
		session = parent.Header.Session
	}
	mk := func(msgType string, content any) *jmsg.Message {
		var m *jmsg.Message
		var err error
		if parent != nil {
			m, err = jmsg.Reply(parent, msgType, k.nextMsgID(), k.cfg.Clock.Now(), content)
		} else {
			m, err = jmsg.New(msgType, k.nextMsgID(), session, user, k.cfg.Clock.Now(), content)
		}
		if err != nil {
			panic("kernel: message construction: " + err.Error())
		}
		ch, _ := jmsg.ChannelFor(msgType)
		m.Channel = ch
		return m
	}

	res.IOPub = append(res.IOPub, mk(jmsg.TypeStatus, jmsg.StatusContent{ExecutionState: StateBusy}))
	res.IOPub = append(res.IOPub, mk(jmsg.TypeExecuteInput, map[string]any{
		"code": code, "execution_count": k.execCount + 1,
	}))

	if k.cfg.ExecHook != nil {
		k.cfg.ExecHook(k.ID, user, code)
	}
	before := k.eng.Counters()
	// Cache hit: the parse front end is skipped outright, and the VM's
	// per-program compiled form is reused on every run of this program
	// after the kernel's first. Parse failures come back as the same
	// SyntaxError Run would produce.
	prog, hit, runErr := k.progs.program(code)
	if hit {
		k.usage.ProgCacheHits++
	} else {
		k.usage.ProgCacheMisses++
	}
	if runErr == nil {
		runErr = k.eng.RunProgram(prog)
	}
	after := k.eng.Counters()
	stdout := k.eng.TakeStdout()
	k.execCount++
	res.ExecutionCount = k.execCount
	res.Stdout = stdout

	if stdout != "" {
		res.IOPub = append(res.IOPub, mk(jmsg.TypeStream, jmsg.StreamContent{Name: "stdout", Text: stdout}))
	}

	delta := subCounters(after, before)
	k.usage.Executions++
	k.usage.CPUMillis += delta.CPUMillis
	k.usage.BytesRead += delta.BytesRead
	k.usage.BytesWritten += delta.BytesWritten
	k.usage.NetBytes += delta.NetBytes
	k.usage.NetCalls += delta.NetCalls
	k.usage.ShellCalls += delta.ShellCalls

	if runErr != nil {
		res.Status = "error"
		var rt *minilang.RuntimeError
		if errors.As(runErr, &rt) {
			res.EName, res.EValue = rt.EName, rt.Msg
		} else {
			var se *minilang.SyntaxError
			if errors.As(runErr, &se) {
				res.EName, res.EValue = "SyntaxError", se.Msg
			} else {
				res.EName, res.EValue = "Error", runErr.Error()
			}
		}
		res.IOPub = append(res.IOPub, mk(jmsg.TypeError, jmsg.ErrorContent{
			EName: res.EName, EValue: res.EValue,
			Traceback: []string{fmt.Sprintf("%s: %s", res.EName, res.EValue)},
		}))
	} else {
		res.Status = "ok"
	}

	res.IOPub = append(res.IOPub, mk(jmsg.TypeStatus, jmsg.StatusContent{ExecutionState: StateIdle}))
	res.Reply = mk(jmsg.TypeExecuteReply, jmsg.ExecuteReply{
		Status: res.Status, ExecutionCount: k.execCount,
		EName: res.EName, EValue: res.EValue,
	})
	res.Reply.Channel = jmsg.ChannelShell

	// Emit the exec audit event and a resource sample.
	k.cfg.Sink.Emit(trace.Event{
		Kind: trace.KindExec, KernelID: k.ID, User: user, Session: session,
		Code: code, Success: runErr == nil,
		CPUMillis: delta.CPUMillis, Bytes: delta.BytesWritten,
		Detail: res.EName,
	})
	k.cfg.Sink.Emit(trace.Event{
		Kind: trace.KindSysRes, KernelID: k.ID, User: user,
		CPUMillis: delta.CPUMillis,
		Fields: map[string]string{
			"bytes_read":    fmt.Sprint(delta.BytesRead),
			"bytes_written": fmt.Sprint(delta.BytesWritten),
			"net_bytes":     fmt.Sprint(delta.NetBytes),
			"net_calls":     fmt.Sprint(delta.NetCalls),
			"shell_calls":   fmt.Sprint(delta.ShellCalls),
		},
		Success: true,
	})

	k.state = StateIdle
	return res, nil
}

// subCounters returns the per-execution delta between two counter
// snapshots taken from the kernel's engine.
func subCounters(a, b minilang.Counters) minilang.Counters {
	return minilang.Counters{
		CPUMillis: a.CPUMillis - b.CPUMillis, BytesRead: a.BytesRead - b.BytesRead,
		BytesWritten: a.BytesWritten - b.BytesWritten, NetBytes: a.NetBytes - b.NetBytes,
		NetCalls: a.NetCalls - b.NetCalls, ShellCalls: a.ShellCalls - b.ShellCalls,
	}
}

// HandleMessage processes one protocol message addressed to the kernel
// and returns the full response message sequence (iopub broadcasts
// followed by the channel reply), as the server's WebSocket handler
// relays them.
func (k *Kernel) HandleMessage(msg *jmsg.Message) ([]*jmsg.Message, error) {
	switch msg.Header.MsgType {
	case jmsg.TypeExecuteRequest:
		var req jmsg.ExecuteRequest
		if err := msg.DecodeContent(&req); err != nil {
			return nil, fmt.Errorf("kernel: execute_request content: %w", err)
		}
		res, err := k.Execute(req.Code, msg)
		if err != nil {
			return nil, err
		}
		return append(res.IOPub, res.Reply), nil
	case jmsg.TypeKernelInfoReq:
		k.mu.Lock()
		defer k.mu.Unlock()
		var info jmsg.KernelInfoReply
		info.Status = "ok"
		info.ProtocolVersion = jmsg.ProtocolVersion
		info.Implementation = "minilang"
		info.ImplementationVersion = "1.0"
		info.Banner = "minilang simulated kernel (jupyterguard)"
		info.LanguageInfo.Name = "minilang"
		info.LanguageInfo.Version = "1.0"
		info.LanguageInfo.FileExtension = ".ml"
		reply, err := jmsg.Reply(msg, jmsg.TypeKernelInfoReply, k.nextMsgID(), k.cfg.Clock.Now(), info)
		if err != nil {
			return nil, err
		}
		reply.Channel = jmsg.ChannelShell
		return []*jmsg.Message{reply}, nil
	case jmsg.TypeCompleteRequest:
		var req struct {
			Code      string `json:"code"`
			CursorPos int    `json:"cursor_pos"`
		}
		if err := msg.DecodeContent(&req); err != nil {
			return nil, fmt.Errorf("kernel: complete_request content: %w", err)
		}
		k.mu.Lock()
		matches, start := k.complete(req.Code, req.CursorPos)
		reply, err := jmsg.Reply(msg, jmsg.TypeCompleteReply, k.nextMsgID(), k.cfg.Clock.Now(), map[string]any{
			"status": "ok", "matches": matches,
			"cursor_start": start, "cursor_end": req.CursorPos,
			"metadata": map[string]any{},
		})
		k.mu.Unlock()
		if err != nil {
			return nil, err
		}
		reply.Channel = jmsg.ChannelShell
		return []*jmsg.Message{reply}, nil
	case jmsg.TypeInspectRequest:
		var req struct {
			Code      string `json:"code"`
			CursorPos int    `json:"cursor_pos"`
		}
		if err := msg.DecodeContent(&req); err != nil {
			return nil, fmt.Errorf("kernel: inspect_request content: %w", err)
		}
		k.mu.Lock()
		name := wordAt(req.Code, req.CursorPos)
		found := false
		data := map[string]any{}
		if v, ok := k.eng.Vars()[name]; ok {
			found = true
			data["text/plain"] = fmt.Sprintf("%s = %s", name, minilang.Format(v))
		}
		reply, err := jmsg.Reply(msg, jmsg.TypeInspectReply, k.nextMsgID(), k.cfg.Clock.Now(), map[string]any{
			"status": "ok", "found": found, "data": data, "metadata": map[string]any{},
		})
		k.mu.Unlock()
		if err != nil {
			return nil, err
		}
		reply.Channel = jmsg.ChannelShell
		return []*jmsg.Message{reply}, nil
	case jmsg.TypeInterruptRequest:
		k.mu.Lock()
		defer k.mu.Unlock()
		k.state = StateIdle
		reply, err := jmsg.Reply(msg, jmsg.TypeInterruptReply, k.nextMsgID(), k.cfg.Clock.Now(), map[string]string{"status": "ok"})
		if err != nil {
			return nil, err
		}
		reply.Channel = jmsg.ChannelControl
		return []*jmsg.Message{reply}, nil
	case jmsg.TypeShutdownRequest:
		k.mu.Lock()
		k.state = StateDead
		k.mu.Unlock()
		reply, err := jmsg.Reply(msg, jmsg.TypeShutdownReply, k.nextMsgID(), k.cfg.Clock.Now(), map[string]any{"status": "ok", "restart": false})
		if err != nil {
			return nil, err
		}
		reply.Channel = jmsg.ChannelControl
		return []*jmsg.Message{reply}, nil
	default:
		return nil, fmt.Errorf("kernel: unhandled message type %q", msg.Header.MsgType)
	}
}

// complete returns completion matches for the identifier ending at
// cursorPos: kernel variables first, then builtins. Caller holds mu.
func (k *Kernel) complete(code string, cursorPos int) ([]string, int) {
	if cursorPos > len(code) {
		cursorPos = len(code)
	}
	start := cursorPos
	for start > 0 && isWordByte(code[start-1]) {
		start--
	}
	prefix := code[start:cursorPos]
	var matches []string
	for name := range k.eng.Vars() {
		if strings.HasPrefix(name, prefix) {
			matches = append(matches, name)
		}
	}
	for _, name := range minilang.BuiltinNames() {
		if strings.HasPrefix(name, prefix) {
			matches = append(matches, name)
		}
	}
	// Stable order: variables may come from a map.
	for i := 1; i < len(matches); i++ {
		for j := i; j > 0 && matches[j] < matches[j-1]; j-- {
			matches[j], matches[j-1] = matches[j-1], matches[j]
		}
	}
	return matches, start
}

// wordAt extracts the identifier under the cursor.
func wordAt(code string, pos int) string {
	if pos > len(code) {
		pos = len(code)
	}
	start := pos
	for start > 0 && isWordByte(code[start-1]) {
		start--
	}
	end := pos
	for end < len(code) && isWordByte(code[end]) {
		end++
	}
	return code[start:end]
}

func isWordByte(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

// Manager starts, tracks, and stops kernels.
type Manager struct {
	mu      sync.Mutex
	cfg     Config
	kernels map[string]*Kernel
	progs   *progCache // shared across kernels
	seq     int
}

// NewManager returns a kernel manager with the given configuration.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{cfg: cfg, kernels: map[string]*Kernel{}, progs: newProgCache(defaultProgCacheCap)}
}

// ProgCacheStats reports the manager-wide program cache counters:
// cumulative hits and misses, and the number of resident programs.
func (m *Manager) ProgCacheStats() (hits, misses uint64, resident int) {
	hits, misses = m.progs.stats()
	return hits, misses, m.progs.len()
}

// Start launches a kernel for user and returns it.
func (m *Manager) Start(name, user string) *Kernel {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	id := fmt.Sprintf("kern-%04d", m.seq)
	if name == "" {
		name = "minilang"
	}
	host := minilang.Host(&fsHost{cfg: m.cfg, kernelID: id, user: user})
	if m.cfg.HostWrapper != nil {
		host = m.cfg.HostWrapper(id, user, host)
	}
	k := &Kernel{
		ID:       id,
		Name:     name,
		ConnInfo: jmsg.NewConnectionInfo("127.0.0.1", 50000+m.seq*10, m.cfg.ConnectionKey),
		cfg:      m.cfg,
		progs:    m.progs,
		eng:      minilang.NewVM(host, m.cfg.Limits),
		signer:   jmsg.NewSigner([]byte(m.cfg.ConnectionKey)),
		state:    StateIdle,
		user:     user,
		started:  m.cfg.Clock.Now(),
	}
	m.kernels[id] = k
	return k
}

// Get returns a kernel by id.
func (m *Manager) Get(id string) (*Kernel, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.kernels[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoKernel, id)
	}
	return k, nil
}

// Restart replaces the kernel's interpreter with a fresh namespace
// (the Jupyter "Restart Kernel" semantic), preserving its identity,
// connection info, and cumulative usage accounting.
func (m *Manager) Restart(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.kernels[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoKernel, id)
	}
	host := minilang.Host(&fsHost{cfg: m.cfg, kernelID: k.ID, user: k.user})
	if m.cfg.HostWrapper != nil {
		host = m.cfg.HostWrapper(k.ID, k.user, host)
	}
	k.mu.Lock()
	k.eng = minilang.NewVM(host, m.cfg.Limits)
	k.state = StateIdle
	k.execCount = 0
	k.mu.Unlock()
	return nil
}

// Shutdown stops and removes a kernel.
func (m *Manager) Shutdown(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, ok := m.kernels[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoKernel, id)
	}
	k.mu.Lock()
	k.state = StateDead
	k.mu.Unlock()
	delete(m.kernels, id)
	return nil
}

// List returns all running kernels sorted by id.
func (m *Manager) List() []*Kernel {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Kernel, 0, len(m.kernels))
	for _, k := range m.kernels {
		out = append(out, k)
	}
	// Sort by ID for deterministic listings.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Count returns the number of running kernels.
func (m *Manager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.kernels)
}
