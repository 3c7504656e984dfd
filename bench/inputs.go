package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/wsproto"
)

// idxMod is the range of the event index the harness hides in the
// sub-millisecond digits of Event.Time: stampIndex truncates the
// generator's time to the millisecond and adds the index as
// nanoseconds. The time is the only field that survives every hop
// unchanged (ingest rewrites Seq and the identity fields), and it
// comes back in Alert.Trigger, so indexOf recovers "which event is
// this" with one modulo — no map lookup on the measured path. Order
// is preserved: indices grow with the generator's clock.
const idxMod = 1_000_000

var traceStart = time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC)

func stampIndex(events []trace.Event, first int) {
	for i := range events {
		events[i].Time = events[i].Time.Truncate(time.Millisecond).Add(time.Duration(first + i))
	}
}

func indexOf(t time.Time) int { return t.Nanosecond() % idxMod }

var benignUsers = []string{"alice", "bob", "carol", "dave"}

// mixDense is the alert-heavy trace: benign background with one attack
// injected every 300 steps, cycling the six classes, every attacker a
// fresh actor — so about one event in fifty raises an alert and each
// attack opens its own incident. workload.StandardMix (mix_benign)
// injects each class once in a trace of any length, which leaves
// correlation and history idle.
func mixDense(seed int64, steps int) *workload.Trace {
	g := workload.NewGenerator(seed, traceStart)
	t := &workload.Trace{}
	for n, done := 0, 0; done < steps; n++ {
		chunk := min(300, steps-done)
		g.Benign(t, benignUsers, chunk)
		done += chunk
		hi, lo := n/250, n%250+1
		switch n % 6 {
		case 0:
			g.InjectRansomware(t, fmt.Sprintf("mallory-rw-%d", n), 12)
		case 1:
			g.InjectExfil(t, fmt.Sprintf("mallory-ex-%d", n), 8<<20, 4)
		case 2:
			g.InjectMiner(t, fmt.Sprintf("mallory-cm-%d", n), 6, 45*time.Second, 15*time.Second)
		case 3:
			g.InjectBruteForce(t, fmt.Sprintf("203.0.%d.%d", hi, lo), 12, true)
		case 4:
			g.InjectLowSlow(t, fmt.Sprintf("198.51.%d.%d", hi, lo), 30, 30*time.Second)
		case 5:
			g.InjectTerminalRecon(t, fmt.Sprintf("mallory-tr-%d", n), fmt.Sprintf("203.1.%d.%d", hi, lo))
		}
	}
	return t
}

// stepsForEvents converts a target event count into generator steps:
// both mixes emit about 1.3 events per benign step, and the dense
// mix's injections add a little more.
func stepsForEvents(events int) int { return events * 100 / 135 }

// tenantInput is one connection's share of a live workload: its own
// tenant, its own independently generated trace, and that trace
// pre-encoded as masked WebSocket frames. One trace per tenant (not
// one trace partitioned by actor) keeps the oracle exact: an
// attacker's user, kernel and address identities stay in one tenant
// namespace, so the live incidents equal a per-tenant serial pass.
type tenantInput struct {
	name   string
	trace  *workload.Trace // dropped once frames and reference exist
	events int
	first  int      // global index of the trace's first event
	frames [][]byte // masked text frames, batch events of JSONL each
	slot   []int32  // global frame number of each frame (send-schedule slot)
}

type liveInput struct {
	tenants   []tenantInput
	sample    []trace.Event // traced runs: tenant 0's first events, for the drills
	events    int
	batch     int
	frames    int     // total frames; slots are 0..frames-1
	slotOf    []int32 // event index -> frame slot
	wireBytes int64
}

// buildLiveInput generates conns traces with sub-seeds seed+i and
// encodes them. Frames are numbered round-robin across tenants (slot
// k*conns+i for tenant i's k-th frame while every tenant still has
// frames), which is the order the paced generator sends them in.
func buildLiveInput(gen func(seed int64) *workload.Trace, seed int64, conns, batch int) (*liveInput, error) {
	in := &liveInput{batch: batch}
	rng := rand.New(rand.NewSource(seed ^ 0x6d61736b))
	for i := 0; i < conns; i++ {
		tr := gen(seed + int64(i))
		stampIndex(tr.Events, in.events)
		in.tenants = append(in.tenants, tenantInput{name: fmt.Sprintf("t%d", i), trace: tr, events: len(tr.Events), first: in.events})
		in.events += len(tr.Events)
	}
	if in.events >= idxMod {
		return nil, fmt.Errorf("%d events do not fit the %d-slot time index", in.events, idxMod)
	}
	in.slotOf = make([]int32, in.events)
	var line bytes.Buffer
	for k := 0; ; k++ {
		progressed := false
		for i := range in.tenants {
			tn := &in.tenants[i]
			lo := k * batch
			if lo >= len(tn.trace.Events) {
				continue
			}
			progressed = true
			hi := min(lo+batch, len(tn.trace.Events))
			line.Reset()
			for j := lo; j < hi; j++ {
				b, err := json.Marshal(tn.trace.Events[j])
				if err != nil {
					return nil, err
				}
				line.Write(b)
				line.WriteByte('\n')
				in.slotOf[tn.first+j] = int32(in.frames)
			}
			var key [4]byte
			rng.Read(key[:])
			frame := wsproto.EncodeFrame(true, wsproto.OpText, line.Bytes(), key[:])
			tn.frames = append(tn.frames, frame)
			tn.slot = append(tn.slot, int32(in.frames))
			in.wireBytes += int64(len(frame))
			in.frames++
		}
		if !progressed {
			break
		}
	}
	return in, nil
}

// closeFrame is the masked close frame every generator connection ends
// with, so the server reads every data frame before it sees the close.
func closeFrame() []byte {
	return wsproto.EncodeFrame(true, wsproto.OpClose, wsproto.ClosePayload(wsproto.CloseNormal, ""), []byte{1, 2, 3, 4})
}
