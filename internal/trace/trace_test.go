package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

func TestBusStampsSequenceAndTime(t *testing.T) {
	clock := NewFakeClock(t0)
	bus := NewBus(clock)
	var got []Event
	bus.Subscribe(SinkFunc(func(e Event) { got = append(got, e) }))
	bus.Emit(Event{Kind: KindHTTP})
	clock.Advance(time.Second)
	bus.Emit(Event{Kind: KindExec})
	if len(got) != 2 {
		t.Fatalf("events = %d", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("seqs = %d %d", got[0].Seq, got[1].Seq)
	}
	if !got[1].Time.Equal(t0.Add(time.Second)) {
		t.Fatalf("time = %v", got[1].Time)
	}
	if bus.Seq() != 2 {
		t.Fatalf("bus seq = %d", bus.Seq())
	}
}

func TestBusPreservesExplicitTime(t *testing.T) {
	bus := NewBus(NewFakeClock(t0))
	var got Event
	bus.Subscribe(SinkFunc(func(e Event) { got = e }))
	custom := t0.Add(42 * time.Minute)
	bus.Emit(Event{Kind: KindAuth, Time: custom})
	if !got.Time.Equal(custom) {
		t.Fatalf("time overwritten: %v", got.Time)
	}
}

func TestBusFanOut(t *testing.T) {
	bus := NewBus(nil)
	var a, b int
	bus.Subscribe(SinkFunc(func(Event) { a++ }))
	bus.Subscribe(SinkFunc(func(Event) { b++ }))
	bus.Emit(Event{})
	bus.Emit(Event{})
	if a != 2 || b != 2 {
		t.Fatalf("fanout = %d %d", a, b)
	}
}

func TestBusConcurrentEmit(t *testing.T) {
	bus := NewBus(nil)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	bus.Subscribe(SinkFunc(func(e Event) {
		mu.Lock()
		seen[e.Seq] = true
		mu.Unlock()
	}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				bus.Emit(Event{Kind: KindHTTP})
			}
		}()
	}
	wg.Wait()
	if len(seen) != 800 {
		t.Fatalf("unique seqs = %d, want 800", len(seen))
	}
}

func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 6; i++ {
		r.Emit(Event{Seq: uint64(i)})
	}
	if r.Len() != 4 || r.Total() != 6 {
		t.Fatalf("len=%d total=%d", r.Len(), r.Total())
	}
	snap := r.Snapshot()
	if snap[0].Seq != 3 || snap[3].Seq != 6 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRingPartial(t *testing.T) {
	r := NewRing(10)
	r.Emit(Event{Seq: 1})
	r.Emit(Event{Seq: 2})
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Seq != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRingFilter(t *testing.T) {
	r := NewRing(10)
	r.Emit(Event{Kind: KindHTTP})
	r.Emit(Event{Kind: KindExec})
	r.Emit(Event{Kind: KindHTTP})
	got := r.Filter(func(e Event) bool { return e.Kind == KindHTTP })
	if len(got) != 2 {
		t.Fatalf("filtered = %d", len(got))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	events := []Event{
		{Seq: 1, Time: t0, Kind: KindHTTP, Method: "GET", Path: "/api/status", Status: 200, Success: true},
		{Seq: 2, Time: t0.Add(time.Second), Kind: KindExec, Code: "print(1)", User: "alice",
			Fields: map[string]string{"k": "v"}},
	}
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Field("k") != "v" || back[0].Path != "/api/status" {
		t.Fatalf("back = %+v", back)
	}
}

func TestReadJSONLBadLine(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("bad line accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := Event{Fields: map[string]string{"a": "1"}}
	c := e.Clone()
	c.Fields["a"] = "2"
	if e.Fields["a"] != "1" {
		t.Fatal("clone shares fields map")
	}
}

func TestWithField(t *testing.T) {
	e := Event{}
	e2 := e.WithField("rule", "RW-001")
	if e2.Field("rule") != "RW-001" || e.Field("rule") != "" {
		t.Fatal("WithField mutated original or failed")
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatal("initial time wrong")
	}
	c.Advance(time.Hour)
	if !c.Now().Equal(t0.Add(time.Hour)) {
		t.Fatal("advance failed")
	}
	c.Set(t0)
	if !c.Now().Equal(t0) {
		t.Fatal("set failed")
	}
}

func TestCountByKind(t *testing.T) {
	events := []Event{{Kind: KindHTTP}, {Kind: KindHTTP}, {Kind: KindExec}}
	m := CountByKind(events)
	if m[KindHTTP] != 2 || m[KindExec] != 1 {
		t.Fatalf("counts = %v", m)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: t0, Kind: KindHTTP, Method: "GET", Path: "/x", Status: 200, SrcIP: "10.0.0.1"}
	if !strings.Contains(e.String(), "GET /x") {
		t.Fatalf("string = %q", e.String())
	}
	alert := Event{Time: t0, Kind: KindAlert, Detail: "boom", Fields: map[string]string{"rule": "R1"}}
	if !strings.Contains(alert.String(), "ALERT R1") {
		t.Fatalf("alert string = %q", alert.String())
	}
}

func TestDecoderStreams(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	events := []Event{
		{Seq: 1, Kind: KindHTTP, Path: "/api/status", Time: t0},
		{Seq: 2, Kind: KindExec, User: "alice", Code: "print(1)", Time: t0.Add(time.Second)},
		{Seq: 3, Kind: KindAuth, SrcIP: "10.0.0.9", Time: t0.Add(2 * time.Second)},
	}
	for _, e := range events {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(strings.NewReader("\n" + buf.String() + "\n"))
	for i, want := range events {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Kind != want.Kind || !got.Time.Equal(want.Time) {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("after last event: err = %v, want io.EOF", err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("repeated Next: err = %v, want io.EOF", err)
	}
}

func TestDecoderBadLineNumbered(t *testing.T) {
	d := NewDecoder(strings.NewReader(`{"kind":"http"}` + "\n" + `{nope` + "\n"))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := d.Next()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestJSONLWriterErrSticky(t *testing.T) {
	w := NewJSONLWriter(failWriter{})
	if w.Err() != nil {
		t.Fatal("fresh writer reports an error")
	}
	// The bufio layer absorbs small writes; fill past its buffer so
	// the underlying failure surfaces through Emit.
	big := Event{Kind: KindExec, Code: strings.Repeat("x", 128<<10)}
	w.Emit(big)
	if w.Err() == nil {
		t.Fatal("write failure not recorded")
	}
	first := w.Err()
	w.Emit(Event{Kind: KindHTTP})
	if w.Err() != first {
		t.Fatal("sticky error replaced")
	}
	if w.Flush() != first {
		t.Fatal("Flush did not return the sticky error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// KindIndex is written out as a switch so the per-event paths pay no
// loop or hash; this ties it to the KnownKinds order it must agree
// with and to NumKinds, the slot every other kind shares.
func TestKindIndexAgreesWithKnownKinds(t *testing.T) {
	kinds := KnownKinds()
	if len(kinds) != NumKinds {
		t.Fatalf("NumKinds = %d, KnownKinds has %d", NumKinds, len(kinds))
	}
	for i, k := range kinds {
		if k == "" {
			t.Fatalf("KnownKinds()[%d] is empty", i)
		}
		if got := KindIndex(k); got != i {
			t.Fatalf("KindIndex(%q) = %d, want %d", k, got, i)
		}
		if !KnownKind(k) {
			t.Fatalf("KnownKind(%q) = false", k)
		}
	}
	for _, k := range []Kind{"", "custom", "HTTP", "http "} {
		if got := KindIndex(k); got != NumKinds {
			t.Fatalf("KindIndex(%q) = %d, want the foreign slot %d", k, got, NumKinds)
		}
		if KnownKind(k) {
			t.Fatalf("KnownKind(%q) = true", k)
		}
	}
}

func TestActorKeyPrecedence(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindAuth, SrcIP: "1.2.3.4", User: "alice"}, "1.2.3.4"},
		{Event{Kind: KindHTTP, SrcIP: "1.2.3.4", User: "alice"}, "1.2.3.4"},
		{Event{Kind: KindExec, SrcIP: "1.2.3.4", User: "alice"}, "alice"},
		{Event{Kind: KindFileOp, SrcIP: "1.2.3.4"}, "1.2.3.4"},
		// sys_res keys by kernel even when a user is present: CM-003
		// thresholds group resource samples by kernel_id.
		{Event{Kind: KindSysRes, KernelID: "kern-1", User: "alice"}, "kern-1"},
		{Event{Kind: KindSysRes, KernelID: "kern-1"}, "kern-1"},
	}
	for i, c := range cases {
		if got := ActorKey(c.e); got != c.want {
			t.Errorf("case %d: ActorKey = %q, want %q", i, got, c.want)
		}
	}
}
