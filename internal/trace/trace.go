// Package trace defines the unified security-event model shared by the
// server, the network monitor, the kernel auditor, and the detection
// engine: one Event type with a kind tag and kind-specific fields,
// JSONL codecs, a fan-out Bus, and bounded ring buffers.
//
// Everything the paper's tooling observes — HTTP requests, WebSocket
// frames, Jupyter protocol messages, kernel executions, file and
// network operations, auth decisions — is normalized into this model
// so detectors compose across layers.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Kind tags an event with its layer of origin.
type Kind string

// Event kinds, ordered roughly by protocol depth.
const (
	KindConn    Kind = "conn"     // TCP connection open/close
	KindHTTP    Kind = "http"     // one HTTP request/response
	KindWSFrame Kind = "ws_frame" // one WebSocket frame
	KindKernMsg Kind = "kern_msg" // one Jupyter protocol message
	KindExec    Kind = "exec"     // kernel executed a code unit
	KindFileOp  Kind = "file_op"  // content filesystem operation
	KindNetOp   Kind = "net_op"   // outbound network operation from kernel
	KindAuth    Kind = "auth"     // authentication decision
	KindTermCmd Kind = "term_cmd" // terminal command
	KindAlert   Kind = "alert"    // detector-produced alert
	KindSysRes  Kind = "sys_res"  // resource usage sample
	// KindScanFinding is a scanner-suite finding projected onto the
	// event model, so census sweeps feed the same rules pipeline as
	// live monitoring (see the scan package).
	KindScanFinding Kind = "scan_finding"
)

// knownKinds lists every kind this build defines, in declaration
// order. Kind is an open string type — stored events with foreign
// kinds still decode and match — but CLI filters validate against
// this set so a typo fails loudly instead of matching nothing.
var knownKinds = [NumKinds]Kind{
	KindConn, KindHTTP, KindWSFrame, KindKernMsg, KindExec, KindFileOp,
	KindNetOp, KindAuth, KindTermCmd, KindAlert, KindSysRes, KindScanFinding,
}

// KnownKinds returns every kind this build defines.
func KnownKinds() []Kind {
	return append([]Kind(nil), knownKinds[:]...)
}

// KnownKind reports whether k is one of the defined kinds.
func KnownKind(k Kind) bool {
	return KindIndex(k) < NumKinds
}

// NumKinds is len(KnownKinds()): a table with one slot per defined
// kind and one more for everything else has NumKinds+1 entries.
const NumKinds = 12

// KindIndex returns i for KnownKinds()[i] and NumKinds — the one slot
// all foreign kinds share — for any other value, so per-event code
// indexes a [NumKinds+1] table instead of hashing the kind string. A
// switch, not a loop over knownKinds: 3 ns against 13, twice an event.
func KindIndex(k Kind) int {
	switch k {
	case KindConn:
		return 0
	case KindHTTP:
		return 1
	case KindWSFrame:
		return 2
	case KindKernMsg:
		return 3
	case KindExec:
		return 4
	case KindFileOp:
		return 5
	case KindNetOp:
		return 6
	case KindAuth:
		return 7
	case KindTermCmd:
		return 8
	case KindAlert:
		return 9
	case KindSysRes:
		return 10
	case KindScanFinding:
		return 11
	}
	return NumKinds
}

// Event is one observed occurrence. Only fields relevant to the Kind
// are populated; Fields carries free-form extras.
type Event struct {
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Kind Kind      `json:"kind"`

	// Endpoint identity.
	SrcIP   string `json:"src_ip,omitempty"`
	SrcPort int    `json:"src_port,omitempty"`
	DstIP   string `json:"dst_ip,omitempty"`
	DstPort int    `json:"dst_port,omitempty"`
	User    string `json:"user,omitempty"`
	Session string `json:"session,omitempty"`

	// HTTP layer.
	Method string `json:"method,omitempty"`
	Path   string `json:"path,omitempty"`
	Status int    `json:"status,omitempty"`

	// WS / kernel message layer.
	WSOpcode string `json:"ws_opcode,omitempty"`
	MsgType  string `json:"msg_type,omitempty"`
	Channel  string `json:"channel,omitempty"`
	KernelID string `json:"kernel_id,omitempty"`

	// Exec / file / net layer.
	Code      string  `json:"code,omitempty"`
	Op        string  `json:"op,omitempty"`
	Target    string  `json:"target,omitempty"`
	Bytes     int64   `json:"bytes,omitempty"`
	Entropy   float64 `json:"entropy,omitempty"`
	Success   bool    `json:"success"`
	Detail    string  `json:"detail,omitempty"`
	CPUMillis int64   `json:"cpu_millis,omitempty"`

	Fields map[string]string `json:"fields,omitempty"`
}

// Clone returns a deep copy of the event.
func (e Event) Clone() Event {
	out := e
	if e.Fields != nil {
		out.Fields = make(map[string]string, len(e.Fields))
		for k, v := range e.Fields {
			out.Fields[k] = v
		}
	}
	return out
}

// Field returns a free-form field value or "".
func (e Event) Field(key string) string {
	if e.Fields == nil {
		return ""
	}
	return e.Fields[key]
}

// WithField returns a copy with the field set.
func (e Event) WithField(key, value string) Event {
	out := e.Clone()
	if out.Fields == nil {
		out.Fields = map[string]string{}
	}
	out.Fields[key] = value
	return out
}

// String renders a short human-readable form, used by CLI tools.
func (e Event) String() string {
	switch e.Kind {
	case KindHTTP:
		return fmt.Sprintf("[%s] http %s %s -> %d (%s)", e.Time.Format(time.TimeOnly), e.Method, e.Path, e.Status, e.SrcIP)
	case KindExec:
		code := e.Code
		if len(code) > 48 {
			code = code[:48] + "…"
		}
		return fmt.Sprintf("[%s] exec kernel=%s user=%s %q", e.Time.Format(time.TimeOnly), e.KernelID, e.User, code)
	case KindAlert:
		return fmt.Sprintf("[%s] ALERT %s: %s", e.Time.Format(time.TimeOnly), e.Field("rule"), e.Detail)
	default:
		return fmt.Sprintf("[%s] %s op=%s target=%s bytes=%d src=%s", e.Time.Format(time.TimeOnly), e.Kind, e.Op, e.Target, e.Bytes, e.SrcIP)
	}
}

// Clock abstracts time for deterministic tests.
type Clock interface {
	Now() time.Time
}

// RealClock uses the wall clock.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// FakeClock is a manually advanced clock for tests and simulations.
type FakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewFakeClock starts a fake clock at t.
func NewFakeClock(t time.Time) *FakeClock { return &FakeClock{t: t} }

// Now returns the current fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d and returns the new time.
func (c *FakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// Set jumps the clock to t.
func (c *FakeClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

// Sink consumes events.
type Sink interface {
	Emit(Event)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event)

// Emit calls f(e).
func (f SinkFunc) Emit(e Event) { f(e) }

// Discard drops all events.
var Discard Sink = SinkFunc(func(Event) {})

// BatchSink is a Sink that can also consume a run of events in one
// call, so a lock or a buffer it guards is taken once per batch
// instead of once per event. EmitBatch(events) must be observably the
// same as Emit(events[0]), Emit(events[1]), ... in order.
//
// The slice is borrowed: it belongs to the caller, which reuses it as
// soon as EmitBatch returns. An implementation may keep the events'
// strings (they are immutable) but neither the slice nor a pointer
// into it; anything else it keeps, it copies (Event.Clone).
type BatchSink interface {
	Sink
	EmitBatch(events []Event)
}

// EmitBatch hands events to s: in one call when s is a BatchSink, else
// one Emit per event. Stage workers, Tee and every forwarding wrapper
// deliver through it, so a plain Sink keeps working anywhere a batch
// arrives.
func EmitBatch(s Sink, events []Event) {
	if b, ok := s.(BatchSink); ok {
		b.EmitBatch(events)
		return
	}
	for i := range events {
		s.Emit(events[i])
	}
}

// Tee fans one Emit out to several sinks, synchronously and in order
// — the lightweight sibling of Bus for pipeline slots that need "the
// engine AND the store" without sequence stamping or subscription.
// Nil sinks are skipped at construction; a single survivor is
// returned unwrapped. The result is a BatchSink: a batch goes
// sink-major — the whole batch to the first member, then to the
// second — so each member sees its events in order and takes its lock
// once, and members without EmitBatch get one Emit per event.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return Discard
	case 1:
		return kept[0]
	}
	return &tee{sinks: kept}
}

type tee struct{ sinks []Sink }

func (t *tee) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

func (t *tee) EmitBatch(events []Event) {
	for _, s := range t.sinks {
		EmitBatch(s, events)
	}
}

// Bus is a thread-safe fan-out of events to subscriber sinks, with a
// monotonically increasing sequence stamp.
//
// The hot path is allocation- and lock-free: sequence numbers are
// stamped with an atomic counter and the subscriber list is a
// copy-on-write snapshot replaced only by Subscribe, so concurrent
// emitters never contend with each other.
type Bus struct {
	mu    sync.Mutex // serializes Subscribe (copy-on-write writers)
	seq   atomic.Uint64
	sinks atomic.Pointer[[]Sink]
	clock Clock
}

// NewBus returns a Bus stamping events with the given clock (RealClock
// if nil).
func NewBus(clock Clock) *Bus {
	if clock == nil {
		clock = RealClock{}
	}
	return &Bus{clock: clock}
}

// Subscribe attaches a sink. Sinks are invoked synchronously in
// subscription order on the emitting goroutine.
func (b *Bus) Subscribe(s Sink) {
	b.mu.Lock()
	defer b.mu.Unlock()
	var cur []Sink
	if p := b.sinks.Load(); p != nil {
		cur = *p
	}
	next := make([]Sink, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = s
	b.sinks.Store(&next)
}

// Emit stamps and delivers the event to all sinks.
func (b *Bus) Emit(e Event) {
	e.Seq = b.seq.Add(1)
	if e.Time.IsZero() {
		e.Time = b.clock.Now()
	}
	p := b.sinks.Load()
	if p == nil {
		return
	}
	for _, s := range *p {
		s.Emit(e)
	}
}

// Seq returns the last assigned sequence number.
func (b *Bus) Seq() uint64 {
	return b.seq.Load()
}

// Ring is a bounded ring buffer of events; the oldest events are
// evicted when full. It implements Sink.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total uint64
}

// NewRing returns a ring holding up to n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = 1024
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit appends the event, evicting the oldest when full.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.next == 0 {
		r.full = true
	}
	r.total++
}

// Len returns the number of buffered events.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total returns the count of all events ever emitted.
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the buffered events oldest-first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Filter returns buffered events matching the predicate, oldest-first.
func (r *Ring) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range r.Snapshot() {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// JSONLWriter serializes events as JSON lines. It implements Sink.
type JSONLWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: bufio.NewWriter(w)}
}

// Emit writes one JSON line; the first write error is sticky.
func (jw *JSONLWriter) Emit(e Event) {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		jw.err = err
		return
	}
	if _, err := jw.w.Write(append(b, '\n')); err != nil {
		jw.err = err
	}
}

// Flush flushes buffered output and returns any sticky error.
func (jw *JSONLWriter) Flush() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if err := jw.w.Flush(); err != nil && jw.err == nil {
		jw.err = err
	}
	return jw.err
}

// Err returns the first encode or write error the writer hit, or nil.
// Emit is a fire-and-forget Sink method, so callers that care about
// durability must check Err (or Flush, which also returns it) before
// treating the output as complete.
func (jw *JSONLWriter) Err() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.err
}

// Decoder reads a JSONL event stream one event at a time, so a replay
// can process arbitrarily long traces without buffering them.
type Decoder struct {
	sc   *bufio.Scanner // the stream; nil when decoding a payload held in memory
	rest []byte         // the unread part of that payload
	line int
}

// maxLine is the longest line a Decoder accepts, matching what
// JSONLWriter can produce for a maximally stuffed event.
const maxLine = 16 << 20

// NewDecoder wraps r. Lines up to 16 MiB are accepted.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxLine) // grows on demand, up to maxLine
	return &Decoder{sc: sc}
}

// NewBytesDecoder decodes a JSONL payload already in memory (one
// WebSocket message) with the line rules of NewDecoder and none of
// its buffering. Returned events do not alias p.
func NewBytesDecoder(p []byte) *Decoder {
	return &Decoder{rest: p}
}

// nextLine returns the next line as bufio.ScanLines cuts it — without
// its end-of-line marker, carriage return included — or io.EOF.
func (d *Decoder) nextLine() ([]byte, error) {
	if d.sc != nil {
		if d.sc.Scan() {
			return d.sc.Bytes(), nil
		}
		if err := d.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	advance, line, _ := bufio.ScanLines(d.rest, true)
	if advance == 0 {
		return nil, io.EOF
	}
	d.rest = d.rest[advance:]
	if len(line) >= maxLine {
		return nil, bufio.ErrTooLong
	}
	return line, nil
}

// Next returns the next event. It returns io.EOF at end of stream and
// a line-numbered parse error on malformed input; blank lines are
// skipped.
func (d *Decoder) Next() (e Event, _ error) {
	for {
		line, err := d.nextLine()
		if err != nil {
			return Event{}, err
		}
		d.line++
		if len(line) == 0 {
			continue
		}
		// Decoded in place in the result: a local would be zeroed, filled
		// and then copied out, once per event.
		if err := decodeLine(line, &e); err != nil {
			return Event{}, fmt.Errorf("trace: line %d: %w", d.line, err)
		}
		return e, nil
	}
}

// ReadJSONL parses a JSONL stream of events into memory. It is a thin
// wrapper over Decoder; streaming consumers should use Decoder
// directly.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	d := NewDecoder(r)
	for {
		e, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// CountByKind tallies events by kind.
func CountByKind(events []Event) map[Kind]int {
	m := map[Kind]int{}
	for _, e := range events {
		m[e.Kind]++
	}
	return m
}
