package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/histstore"
	"repro/internal/ingest"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/wsproto"
)

const (
	// Shutdown deadlines. ingest.Service.Drain can hang at the seed
	// commit (see README "Known hazard"), so nothing here waits
	// without a bound; a timeout is counted as failed operations.
	settleTimeout = 30 * time.Second
	drainTimeout  = 20 * time.Second

	pacedRate   = 20000 // events/s, all connections together
	pacedBatch  = 32
	satBatch    = 64
	spinWindow  = 200 * time.Microsecond
	spanSample  = 16 // live workloads keep spans for one batch in this many
	statsPeriod = 50 * time.Millisecond
)

// liveRig is one fresh copy of the system under test, wired the way
// cmd/jingestd wires it — history recorder on the engine hooks,
// trace.Tee(engine, event store) behind ingest.Service, all default
// options — plus the harness's probes. Untraced, the only additions
// are a last Tee member that timestamps each event as it leaves and a
// timestamp taken on entry to OnAlert; traced, every Tee member and
// hook is wrapped as well.
type liveRig struct {
	in       *liveInput
	storeDir string
	eng      *core.Engine
	store    *evstore.SinkHandle
	hist     *histstore.Store
	svc      *ingest.Service
	conns    []net.Conn

	epoch   time.Time
	sendAt  []int64 // per frame slot: write start (saturate) or due time (paced)
	leave   []int64 // per event: left the last Tee member
	alertAt []int64 // per event: first OnAlert entry it triggered

	tr *liveTrace // nil when untraced
}

// liveTrace is the traced run's extra state.
type liveTrace struct {
	spans      *spanLog
	arrive     []int64 // per event: reached the Tee
	batchSpan  []int32 // per frame slot: its ingest span, -1 unsampled
	curCore    [8]atomic.Int32
	core       timedSink
	evstore    timedSink
	histBusy   atomic.Int64
	histN      atomic.Int64
	pendingMax atomic.Int64
}

func (r *liveRig) now() int64 { return int64(time.Since(r.epoch)) }

// timedSink measures one Tee member from outside.
type timedSink struct {
	rig   *liveRig
	name  string
	core  bool // the hooks' spans hang off this sink's current span
	inner trace.Sink
	busy  atomic.Int64
	n     atomic.Int64
}

func (s *timedSink) Emit(e trace.Event) {
	r := s.rig
	idx := indexOf(e.Time)
	parent := r.tr.batchSpan[r.in.slotOf[idx]]
	t0 := r.now()
	sp := int32(-1)
	if parent >= 0 {
		sp = r.tr.spans.begin(s.name, t0, parent, r.in.slotOf[idx])
	}
	if s.core {
		r.tr.curCore[r.in.tenantOf(idx)].Store(sp)
	}
	s.inner.Emit(e)
	t1 := r.now()
	r.tr.spans.end(sp, t1)
	s.busy.Add(t1 - t0)
	s.n.Add(1)
}

func (in *liveInput) tenantOf(idx int) int {
	for i := len(in.tenants) - 1; i > 0; i-- {
		if idx >= in.tenants[i].first {
			return i
		}
	}
	return 0
}

// tenantOfActor recovers the tenant from a namespaced actor ("t2/…").
func tenantOfActor(actor string) int {
	if len(actor) > 2 && actor[0] == 't' && actor[1] >= '0' && actor[1] <= '7' && actor[2] == '/' {
		return int(actor[1] - '0')
	}
	return 0
}

func newLiveRig(in *liveInput, dir string, traced bool, fault string) (*liveRig, error) {
	r := &liveRig{
		in:       in,
		storeDir: filepath.Join(dir, "store"),
		epoch:    time.Now(),
		sendAt:   make([]int64, in.frames),
		leave:    make([]int64, in.events),
		alertAt:  make([]int64, in.events),
	}
	if traced {
		r.tr = &liveTrace{
			spans:     newSpanLog(in.events/spanSample*4 + 1024),
			arrive:    make([]int64, in.events),
			batchSpan: make([]int32, in.frames),
		}
		for i := range r.tr.batchSpan {
			r.tr.batchSpan[i] = -1
		}
	}

	hs, err := histstore.OpenWith(filepath.Join(r.storeDir, "history"), histstore.OpenAppend, histstore.Options{})
	if err != nil {
		return nil, err
	}
	r.hist = hs
	rec := histstore.NewRecorder(hs)
	opts := core.DefaultOptions()
	opts.OnAlert = func(a rules.Alert) {
		t0 := r.now()
		idx := indexOf(a.Trigger.Time)
		if r.alertAt[idx] == 0 {
			r.alertAt[idx] = t0
		}
		rec.OnAlert(a)
		if r.tr != nil {
			r.hookDone("histstore.alert", r.in.tenantOf(idx), t0)
		}
	}
	opts.OnIncidentUpdate = rec.OnIncidentUpdate
	if traced {
		opts.OnIncidentUpdate = func(u core.IncidentUpdate) {
			t0 := r.now()
			rec.OnIncidentUpdate(u)
			r.hookDone("histstore.incident", tenantOfActor(u.Actor), t0)
		}
	}
	if r.eng, err = core.NewEngine(opts); err != nil {
		return nil, err
	}
	if r.store, err = evstore.OpenSink(r.storeDir, evstore.SinkAppend, ""); err != nil {
		return nil, err
	}

	leave := trace.SinkFunc(func(e trace.Event) { r.leave[indexOf(e.Time)] = r.now() })
	var sink trace.Sink
	if traced {
		r.tr.core = timedSink{rig: r, name: "core.emit", core: true, inner: r.eng}
		r.tr.evstore = timedSink{rig: r, name: "evstore.emit", inner: r.store}
		sink = trace.Tee(trace.SinkFunc(r.arrived), &r.tr.core, &r.tr.evstore, leave)
	} else {
		sink = trace.Tee(r.eng, r.store, leave)
	}
	if fault == "swallow" {
		// Seeded fault for the smoke test: one event vanishes between
		// the stage and the Tee. ingest's own books still balance, so
		// only the engine/store counts can catch it.
		inner, victim := sink, in.events/2
		sink = trace.SinkFunc(func(e trace.Event) {
			if indexOf(e.Time) != victim {
				inner.Emit(e)
			}
		})
	}

	kr := auth.NewKeyring()
	for _, tn := range in.tenants {
		if err := kr.AddTenant(tn.name, []byte("secret-"+tn.name)); err != nil {
			return nil, err
		}
	}
	r.svc = ingest.New(ingest.Config{Keyring: kr, Policy: trace.Block}, sink)
	addr, err := r.svc.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for _, tn := range in.tenants {
		tok, _ := kr.Mint(tn.name)
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		r.conns = append(r.conns, raw)
		hdr := http.Header{}
		hdr.Set("X-Tenant", tn.name)
		hdr.Set("Authorization", "Bearer "+tok)
		// After the handshake the generator writes its pre-encoded
		// frames straight to the socket, one Write per frame.
		if _, err := wsproto.Dial(raw, addr, "/ingest/ws", hdr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// arrived is the traced run's first Tee member: the event has crossed
// wire, auth, decode and the tenant stage.
func (r *liveRig) arrived(e trace.Event) {
	idx := indexOf(e.Time)
	slot := r.in.slotOf[idx]
	t := r.now()
	r.tr.arrive[idx] = t
	if slot%spanSample != 0 {
		return
	}
	sp := r.tr.batchSpan[slot]
	if sp < 0 {
		sp = r.tr.spans.begin("ingest", r.sendAt[slot], -1, slot)
		r.tr.batchSpan[slot] = sp
	}
	r.tr.spans.end(sp, t)
}

func (r *liveRig) hookDone(name string, tenant int, t0 int64) {
	t1 := r.now()
	r.tr.histBusy.Add(t1 - t0)
	r.tr.histN.Add(1)
	if parent := r.tr.curCore[tenant].Load(); parent >= 0 {
		r.tr.spans.end(r.tr.spans.begin(name, t0, parent, r.tr.spans.spans[parent].Batch), t1)
	}
}

// saturate writes every tenant's frames as fast as Block policy and
// TCP allow, one goroutine per connection.
func (r *liveRig) saturate() error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.conns))
	for i := range r.conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := &r.in.tenants[i]
			for k, frame := range tn.frames {
				r.sendAt[tn.slot[k]] = r.now()
				if _, err := r.conns[i].Write(frame); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// paced sends frame slot s at start + s*interval, slots alternating
// between the connections, and returns how late each write started.
// Latency is later taken from the due time, so a stall in the
// generator or the system is charged to every frame it delays.
//
// The generator is one goroutine locked to an OS thread, with a P of
// its own (GOMAXPROCS is raised by one for the pass, so the system
// keeps its nproc). It waits in a raw nanosleep until spinWindow before
// the due time and busy-loops from there. Both alternatives were
// measured on the 2-core dev box and rejected: time.Sleep overshoots
// by up to a millisecond (an idle P sleeps in epoll_wait, whose
// timeout has millisecond granularity), and waiting in a
// runtime.Gosched loop keeps that P from ever reaching the network
// poller — the scheduler finds the yielding goroutine again first —
// so one frame in ten sat unread for a whole send interval.
func (r *liveRig) paced(interval time.Duration) ([]float64, error) {
	type send struct {
		conn  net.Conn
		frame []byte
	}
	sched := make([]send, r.in.frames)
	for i := range r.in.tenants {
		tn := &r.in.tenants[i]
		for k, frame := range tn.frames {
			sched[tn.slot[k]] = send{r.conns[i], frame}
		}
	}
	late := make([]float64, len(sched))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := r.now() + int64(10*time.Millisecond)
	for s := range sched {
		due := start + int64(s)*int64(interval)
		r.sendAt[s] = due
		now := r.now()
		for now < due {
			if wait := due - now; wait > int64(spinWindow) {
				ts := syscall.NsecToTimespec(wait - int64(spinWindow))
				_ = syscall.Nanosleep(&ts, nil)
			}
			now = r.now()
		}
		late[s] = float64(now-due) / 1e6
		if _, err := sched[s].conn.Write(sched[s].frame); err != nil {
			return late, err
		}
	}
	return late, nil
}

// passStats is what one live pass measured.
type passStats struct {
	events    int
	wallNs    int64 // first send to last event leaving the Tee
	eventLat  []float64
	alertLat  []float64
	diskBytes int64
	segments  int
	records   int
	alerts    uint64
	incidents int
	mem       memDelta
	tenants   []ingest.TenantStats
	late      []float64 // paced: how late each write started, ms

	// Traced passes only.
	ingestLat       []float64 // send -> Tee arrival
	pending         int64     // deepest tenant queue sampled
	coreBusy, coreN int64
	evBusy, evN     int64
	histBusy, histN int64
	spans           *spanLog
}

// settle ends a pass: closes the generator's connections, waits (with
// deadlines) until ingest has accounted for every event, drains, and
// closes the stores.
func (r *liveRig) settle(c *checker, submitted uint64) error {
	cf := closeFrame()
	var buf [512]byte
	for _, conn := range r.conns {
		// Close frame, then read to EOF: the server answers and closes
		// only after it has decoded every data frame before it.
		_, _ = conn.Write(cf)
		_ = conn.SetReadDeadline(time.Now().Add(settleTimeout))
		for {
			if _, err := conn.Read(buf[:]); err != nil {
				if !errors.Is(err, io.EOF) {
					c.fail(1, "connection did not close cleanly: %v", err)
				}
				break
			}
		}
		_ = conn.Close()
	}
	deadline := time.Now().Add(settleTimeout)
	for {
		snap := r.svc.Stats()
		var seen, processed uint64
		for _, t := range snap.Tenants {
			seen += t.Accepted + t.Dropped + t.Denied
			processed += t.Processed
		}
		if snap.Conns == 0 && seen >= submitted && processed >= submitted {
			break
		}
		if time.Now().After(deadline) {
			c.fail(int64(submitted-min(processed, submitted)), "ingest accounted %d and processed %d of %d events within %v", seen, processed, submitted, settleTimeout)
			break
		}
		time.Sleep(time.Millisecond)
	}
	drained := make(chan struct{})
	go func() {
		r.svc.Drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		c.fail(int64(r.in.events), "ingest.Service.Drain did not return within %v", drainTimeout)
		return fmt.Errorf("drain timed out")
	}
	if err := r.store.Close(); err != nil {
		c.fail(1, "event store close: %v", err)
	}
	if err := r.hist.Close(); err != nil {
		c.fail(1, "history close: %v", err)
	}
	return nil
}

// verify turns a settled pass into its measurements and checks it
// against ref. deep adds the replay-from-store and history-query
// table comparisons.
func (r *liveRig) verify(c *checker, ref *reference, deep bool, nproc int) (passStats, error) {
	ps := passStats{events: r.in.events}
	ps.tenants = r.svc.Stats().Tenants
	c.equal("tenants in /stats", int64(len(ps.tenants)), int64(len(r.in.tenants)))
	for i, t := range ps.tenants {
		if i >= len(r.in.tenants) {
			break
		}
		want := int64(r.in.tenants[i].events)
		c.equal(t.Tenant+" accepted+dropped+denied", int64(t.Accepted+t.Dropped+t.Denied), want)
		c.equal(t.Tenant+" dropped", int64(t.Dropped), 0)
		c.equal(t.Tenant+" denied", int64(t.Denied), 0)
		c.equal(t.Tenant+" processed", int64(t.Processed), int64(t.Accepted))
	}

	var last int64
	for _, t := range r.leave {
		last = max(last, t)
	}
	first := r.sendAt[0]
	for _, tn := range r.in.tenants {
		first = min(first, r.sendAt[tn.slot[0]])
	}
	ps.wallNs = last - first
	ps.eventLat = make([]float64, 0, r.in.events)
	for idx, t := range r.leave {
		if t != 0 {
			ps.eventLat = append(ps.eventLat, float64(t-r.sendAt[r.in.slotOf[idx]])/1e6)
		}
		if a := r.alertAt[idx]; a != 0 {
			ps.alertLat = append(ps.alertLat, float64(a-r.sendAt[r.in.slotOf[idx]])/1e6)
		}
	}
	if r.tr != nil {
		ps.ingestLat = make([]float64, 0, r.in.events)
		for idx, t := range r.tr.arrive {
			if t != 0 {
				ps.ingestLat = append(ps.ingestLat, float64(t-r.sendAt[r.in.slotOf[idx]])/1e6)
			}
		}
		ps.pending = r.tr.pendingMax.Load()
		ps.coreBusy, ps.coreN = r.tr.core.busy.Load(), r.tr.core.n.Load()
		ps.evBusy, ps.evN = r.tr.evstore.busy.Load(), r.tr.evstore.n.Load()
		ps.histBusy, ps.histN = r.tr.histBusy.Load(), r.tr.histN.Load()
		ps.spans = r.tr.spans
	}

	st := r.eng.Stats()
	ps.alerts, ps.incidents = st.Alerts, st.Incidents
	c.equal("events the engine saw", int64(st.Events), int64(ref.events))
	c.equal("alerts the engine raised", int64(st.Alerts), int64(ref.alerts))
	evRead, err := evstore.OpenRead(r.storeDir)
	if err != nil {
		return ps, err
	}
	c.equal("events in the store", int64(evRead.Events()), int64(ref.events))
	ps.segments = len(evRead.Segments())
	histRead, err := histstore.OpenRead(filepath.Join(r.storeDir, "history"))
	if err != nil {
		return ps, err
	}
	ps.records = histRead.Records()
	c.equal("records in the history", int64(ps.records), 2*int64(ref.alerts))
	if ps.diskBytes, err = dirBytes(r.storeDir); err != nil {
		return ps, err
	}

	live := r.eng.Incidents()
	tuples := tuplesOf(live, "")
	c.compareTuples("live incidents vs serial reference", tuples, ref.tuples)
	c.checkLabels("live incidents", ref, tuples)
	if !deep {
		return ps, nil
	}
	want := renderAll(live)
	replayed, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		return ps, err
	}
	if _, err := evRead.Replay(evstore.Filter{}, nproc, 256, func(b []trace.Event) { replayed.ProcessBatch(b) }); err != nil {
		c.fail(1, "replay of the live store: %v", err)
	}
	if got := renderAll(replayed.Incidents()); got != want {
		c.fail(1, "replay-from-store table differs from the live engine's (%d vs %d bytes)", len(got), len(want))
	}
	queried, _, err := histstore.QueryIncidents(histRead, histstore.Query{})
	if err != nil {
		c.fail(1, "history query: %v", err)
	}
	if got := renderAll(queried); got != want {
		c.fail(1, "QueryIncidents table differs from the live engine's (%d vs %d bytes)", len(got), len(want))
	}
	return ps, nil
}

// sampleStats polls Service.Stats until stop is closed, keeping the
// deepest tenant queue seen.
func (r *liveRig) sampleStats(period time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			for _, t := range r.svc.Stats().Tenants {
				if p := int64(t.Pending); p > r.tr.pendingMax.Load() {
					r.tr.pendingMax.Store(p)
				}
			}
		}
	}
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// memDelta is runtime.MemStats over one measured window.
type memDelta struct {
	mallocs, bytes uint64
	pauseNs        uint64
	peakHeap       uint64
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		pauseNs:  after.PauseTotalNs - before.PauseTotalNs,
		peakHeap: after.HeapSys, // only ever grows: the most the heap has held
	}
}

// livePass builds a rig in its own directory, runs one pass, checks
// it, and removes the directory.
func livePass(cfg *config, c *checker, in *liveInput, ref *reference, n int, paced, traced, deep bool) (passStats, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("live-%d", n))
	defer os.RemoveAll(dir)
	runtime.GC()
	r, err := newLiveRig(in, dir, traced, cfg.fault)
	if err != nil {
		return passStats{}, err
	}
	var stop, done chan struct{}
	if traced {
		stop, done = make(chan struct{}), make(chan struct{})
		period := statsPeriod
		if cfg.smoke {
			period /= 10
		}
		go r.sampleStats(period, stop, done)
	}
	before := readMem()
	var late []float64
	if paced {
		late, err = r.paced(time.Second * time.Duration(in.batch) / pacedRate)
	} else {
		err = r.saturate()
	}
	if err != nil {
		c.fail(int64(in.events), "load generator: %v", err)
	}
	err = r.settle(c, uint64(in.events))
	mem := memSince(before)
	if traced {
		close(stop)
		<-done
	}
	if err != nil {
		return passStats{}, err
	}
	ps, err := r.verify(c, ref, deep, cfg.nproc)
	ps.mem, ps.late = mem, late
	return ps, err
}
