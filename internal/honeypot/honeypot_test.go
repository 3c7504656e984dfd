package honeypot

import (
	"strings"
	"testing"
	"time"

	"repro/internal/attacks"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/threatintel"
	"repro/internal/trace"
)

func newHoneypot(t *testing.T) *Honeypot {
	t.Helper()
	hp, err := New(Config{ID: "hp-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hp.Close() })
	return hp
}

func TestBaitInstalled(t *testing.T) {
	hp := newHoneypot(t)
	c := client.New(hp.Addr, "")
	entries, err := c.ListDir("")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Path] = true
	}
	for _, want := range []string{"notebooks", "data", "models", "secrets"} {
		if !names[want] {
			t.Errorf("bait dir %s missing (have %v)", want, names)
		}
	}
}

func TestHoneypotIsOpen(t *testing.T) {
	hp := newHoneypot(t)
	c := client.New(hp.Addr, "") // no credentials
	if _, err := c.Status(); err != nil {
		t.Fatalf("honeypot must accept anonymous access: %v", err)
	}
}

func TestInteractionsRecorded(t *testing.T) {
	hp := newHoneypot(t)
	c := client.New(hp.Addr, "")
	_, _ = c.Status()
	_, _ = c.ReadFile("secrets/.aws_credentials")
	if len(hp.Interactions()) == 0 {
		t.Fatal("no interactions recorded")
	}
	fps := hp.Fingerprints()
	if len(fps) != 1 || fps[0].Requests < 2 {
		t.Fatalf("fingerprints = %+v", fps)
	}
}

func TestSignatureExtractionFromMinerPayload(t *testing.T) {
	hp := newHoneypot(t)
	c := client.New(hp.Addr, "")
	if _, err := attacks.Cryptominer(c, attacks.MinerOptions{
		Rounds: 2, BurnMillis: 100, Blatant: true, Username: "attacker",
	}); err != nil {
		t.Fatal(err)
	}
	sigs := hp.ExtractSignatures()
	var minerSig *rules.Rule
	for _, s := range sigs {
		if s.Class == rules.ClassCryptomining {
			minerSig = s
		}
	}
	if minerSig == nil {
		t.Fatalf("no miner signature extracted from %d sigs", len(sigs))
	}
	// The extracted signature must fire on a replay of the payload.
	en, err := rules.NewEngine([]*rules.Rule{minerSig})
	if err != nil {
		t.Fatal(err)
	}
	alerts := en.Process(trace.Event{
		Time: time.Now(), Kind: trace.KindExec,
		Code: `pool = "stratum+tcp://pool.minexmr.example:4444"`,
	})
	if len(alerts) == 0 {
		t.Fatal("extracted signature does not fire on replay")
	}
}

func TestPublishIntelContainsAttackerIP(t *testing.T) {
	hp := newHoneypot(t)
	c := client.New(hp.Addr, "")
	if _, err := attacks.Ransomware(c, attacks.RansomwareOptions{Username: "attacker"}); err != nil {
		t.Fatal(err)
	}
	bundle := hp.PublishIntel(time.Now())
	if len(bundle.Indicators) == 0 {
		t.Fatal("no indicators published")
	}
	var ipConf float64
	for _, ind := range bundle.Indicators {
		if ind.Type == threatintel.TypeSourceIP {
			ipConf = ind.Confidence
		}
	}
	// The attacker ran kernel code on a decoy: high confidence.
	if ipConf < 0.9 {
		t.Fatalf("attacker IP confidence = %f", ipConf)
	}
}

// TestHoneypotEarlyWarning is experiment E12: an attacker hits the
// honeypot first; intel flows to a production monitor which then (a)
// blocks the source and (b) carries the extracted signature.
func TestHoneypotEarlyWarning(t *testing.T) {
	hp := newHoneypot(t)
	attacker := client.New(hp.Addr, "")
	if _, err := attacks.Cryptominer(attacker, attacks.MinerOptions{
		Rounds: 1, BurnMillis: 100, Blatant: true, Username: "attacker",
	}); err != nil {
		t.Fatal(err)
	}

	// Edge publishes; production consumes.
	now := time.Now()
	prodStore := threatintel.NewStore()
	ni, nr := prodStore.Merge(hp.PublishIntel(now))
	if ni == 0 || nr == 0 {
		t.Fatalf("merge = %d indicators %d rules", ni, nr)
	}

	// Production blocks the attacker source (loopback in this sim).
	if !prodStore.IsBlocked("127.0.0.1", now.Add(time.Minute)) {
		t.Fatal("attacker IP not blocked in production")
	}

	// Production engine hot-loads the extracted signatures and fires
	// on the first sighting of the same payload — before any
	// production damage.
	eng := core.MustEngine()
	for _, r := range prodStore.Rules() {
		if err := eng.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}
	alerts := eng.Process(trace.Event{
		Time: now, Kind: trace.KindExec, User: "someone-new",
		Code: `pool = "stratum+tcp://pool.minexmr.example:4444"` + "\n" + `spin(60000)`,
	})
	var viaIntel bool
	for _, a := range alerts {
		if strings.HasPrefix(a.RuleID, "hp-test-sig-") {
			viaIntel = true
		}
	}
	if !viaIntel {
		t.Fatalf("intel signature did not fire in production: %+v", alerts)
	}
}

func TestFleetCollect(t *testing.T) {
	fleet, err := NewFleet(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for _, hp := range fleet.Honeypots {
		c := client.New(hp.Addr, "")
		if _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
	}
	inds, _ := fleet.Collect(time.Now())
	if inds == 0 {
		t.Fatal("fleet collected nothing")
	}
	if fleet.Store.Count() == 0 {
		t.Fatal("fleet store empty")
	}
}

func TestFingerprintClassification(t *testing.T) {
	hp := newHoneypot(t)
	c := client.New(hp.Addr, "")
	if _, err := attacks.Ransomware(c, attacks.RansomwareOptions{Username: "attacker"}); err != nil {
		t.Fatal(err)
	}
	fps := hp.Fingerprints()
	if len(fps) != 1 {
		t.Fatalf("fingerprints = %+v", fps)
	}
	if fps[0].Classes[rules.ClassRansomware] == 0 {
		t.Fatalf("ransomware not classified: %+v", fps[0].Classes)
	}
	if fps[0].Executions == 0 {
		t.Fatal("executions not counted")
	}
}
