// Integration test: the paper's whole deployment story in one
// scenario. An edge honeypot absorbs a campaign and publishes intel; a
// production server runs with wire monitoring, host detection, and
// kernel auditing; the same attacker pivots to production, is detected
// by both planes, forensically reconstructed from the audit log, and
// the operators recover and publish an anonymized dataset.
package repro_test

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/anonymize"
	"repro/internal/attacks"
	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cryptoaudit"
	"repro/internal/fleet"
	"repro/internal/honeypot"
	"repro/internal/misconfig"
	"repro/internal/nbformat"
	"repro/internal/netmon"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/threatintel"
	"repro/internal/trace"
)

func TestEndToEndDeploymentStory(t *testing.T) {
	// ---- Phase 0: pre-deployment audit of the production config ----
	prodCfg := server.HardenedConfig("prod-token-0123456789")
	prodCfg.ContentQuota = 1 << 30
	if findings := misconfig.Scan(prodCfg); len(findings) != 0 {
		t.Fatalf("production config not clean: %+v", findings)
	}

	// ---- Phase 1: edge honeypot absorbs the campaign ----
	hp, err := honeypot.New(honeypot.Config{ID: "edge-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer hp.Close()
	attacker := client.New(hp.Addr, "")
	if _, err := attacks.Cryptominer(attacker, attacks.MinerOptions{
		Rounds: 2, BurnMillis: 500, Blatant: true, Username: "attacker",
	}); err != nil {
		t.Fatal(err)
	}
	intel := hp.PublishIntel(time.Now())
	if len(intel.Rules) == 0 || len(intel.Indicators) == 0 {
		t.Fatalf("edge produced no intel: %d rules %d indicators",
			len(intel.Rules), len(intel.Indicators))
	}

	// ---- Phase 2: production boots with the full defensive stack ----
	auditLog := audit.NewLog(nil)
	tracer := audit.NewTracer(auditLog)
	prod := server.NewServer(prodCfg,
		server.WithKernelHooks(tracer.WrapHost, func(id, user, code string) {
			tracer.RecordExec(id, user, code)
		}))
	eng := core.MustEngine()
	prod.Bus().Subscribe(eng)
	mon := netmon.NewMonitor(netmon.FullVisibility(), nil)
	wireEng := core.MustEngine()
	mon.Bus().Subscribe(wireEng)

	store := threatintel.NewStore()
	store.Merge(intel)
	for _, r := range store.Rules() {
		if err := eng.AddRule(r); err != nil {
			t.Fatal(err)
		}
		if err := wireEng.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := prod.Serve(mon.WrapListener(ln))
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	// Research content + checkpoints.
	nb := nbformat.New()
	nb.AppendMarkdown("md", "# Production run\n"+strings.Repeat("notes\n", 40))
	nb.AppendCode("c1", `print("ok")`)
	nbJSON, _ := nb.Marshal()
	for _, p := range []string{"notebooks/prod_a.ipynb", "notebooks/prod_b.ipynb"} {
		if err := prod.FS.Write(p, "pi", nbJSON); err != nil {
			t.Fatal(err)
		}
		if _, err := prod.FS.CreateCheckpoint(p); err != nil {
			t.Fatal(err)
		}
	}

	// ---- Phase 3: benign use, then the attacker pivots in ----
	c := client.New(addr, prodCfg.Auth.Token)
	k, err := c.StartKernel("minilang")
	if err != nil {
		t.Fatal(err)
	}
	kc, err := c.ConnectKernel(k.ID, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := kc.Execute(`print("science", 6*7)`); err != nil || res.Status != "ok" {
		t.Fatalf("benign exec: %+v %v", res, err)
	}
	kc.Close()

	// The attacker (with a stolen token) replays the campaign payload,
	// then runs the ransomware sweep.
	mc := client.New(addr, prodCfg.Auth.Token)
	mk, _ := mc.StartKernel("minilang")
	mkc, err := mc.ConnectKernel(mk.ID, "attacker")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = mkc.Execute(`pool = "stratum+tcp://pool.minexmr.example:4444"` + "\n" + `worker = "xmrig-6.21"` + "\n" + `print(worker, pool)`)
	mkc.Close()
	if _, err := attacks.Ransomware(mc, attacks.RansomwareOptions{Username: "attacker"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // drain wire analyzers

	// ---- Phase 4: both detection planes fired ----
	hostClasses := eng.IncidentsByClass()
	if len(hostClasses[rules.ClassCryptomining]) == 0 {
		t.Fatal("host plane missed the miner replay")
	}
	if len(hostClasses[rules.ClassRansomware]) == 0 {
		t.Fatal("host plane missed the ransomware")
	}
	var viaIntel bool
	for _, inc := range hostClasses[rules.ClassCryptomining] {
		for _, a := range inc.Alerts {
			if strings.HasPrefix(a.RuleID, "edge-1-sig-") {
				viaIntel = true
			}
		}
	}
	if !viaIntel {
		t.Fatal("edge-extracted signature did not fire in production")
	}
	wireClasses := wireEng.IncidentsByClass()
	if len(wireClasses[rules.ClassCryptomining]) == 0 {
		t.Fatal("wire plane missed the miner replay (observability gap)")
	}

	// ---- Phase 5: forensics on the tamper-evident audit log ----
	if err := auditLog.VerifyLog(); err != nil {
		t.Fatal(err)
	}
	chain, err := cryptoaudit.NewCheckpointChain(3)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := chain.Checkpoint(auditLog.Head())
	if err != nil {
		t.Fatal(err)
	}
	if err := cryptoaudit.VerifyChain(chain.Root(), []cryptoaudit.Checkpoint{ck}); err != nil {
		t.Fatal(err)
	}
	prov := audit.BuildProvenance(auditLog.Records())
	touchers := prov.WhoTouched("notebooks/prod_a.ipynb")
	if len(touchers) == 0 {
		t.Fatal("provenance lost the encryption sweep")
	}
	if touchers[0].User != "attacker" {
		t.Fatalf("wrong attribution: %+v", touchers[0])
	}

	// ---- Phase 6: recovery ----
	cks, err := prod.FS.Checkpoints("notebooks/prod_a.ipynb.locked")
	if err != nil || len(cks) == 0 {
		t.Fatalf("checkpoints lost: %v %v", cks, err)
	}
	if err := prod.FS.RestoreCheckpoint("notebooks/prod_a.ipynb.locked", cks[0].ID, "ops"); err != nil {
		t.Fatal(err)
	}
	restored, _ := prod.FS.Read("notebooks/prod_a.ipynb.locked", "ops")
	if _, err := nbformat.Parse(restored); err != nil {
		t.Fatalf("restored notebook invalid: %v", err)
	}

	// ---- Phase 7: publish the anonymized incident dataset ----
	ring := trace.NewRing(100000)
	// Re-emit the engine's incident triggers through the anonymizer as
	// the shareable record of this incident.
	anon := anonymize.New([]byte("site-key"))
	var shared []trace.Event
	for _, inc := range eng.Incidents() {
		for _, a := range inc.Alerts {
			e := anon.Event(a.Trigger)
			shared = append(shared, e)
			ring.Emit(e)
		}
	}
	if len(shared) == 0 {
		t.Fatal("nothing to share")
	}
	var buf bytes.Buffer
	w := trace.NewJSONLWriter(&buf)
	for _, e := range shared {
		w.Emit(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "attacker") || strings.Contains(buf.String(), `"alice"`) {
		t.Fatal("identities leaked into the shared dataset")
	}

	// And the monitor's Zeek logs exist for the same window.
	var zeek bytes.Buffer
	if err := mon.WriteAllLogs(&zeek); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(zeek.String(), "execute_request") {
		t.Fatal("zeek jupyter.log missing kernel traffic")
	}
}

// TestFleetSweepRaisesAlertsThroughPipeline closes the loop between
// the census and the detection substrate: a fleet sweep over hostile
// presets projects every finding as a trace event through a bounded
// stage into the core engine, which must raise alerts the same way
// live monitoring would.
func TestFleetSweepRaisesAlertsThroughPipeline(t *testing.T) {
	fl, err := fleet.Spawn(fleet.Generate(1, 6)) // includes the everything-wrong anchor
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()

	engine, err := core.NewEngine(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stage := trace.NewStage(engine, 4, 1024, trace.Block)
	rep, err := fleet.Scan(context.Background(), fl.Targets(), fleet.Options{
		Workers: 4,
		Suites:  []string{"misconfig", "nbscan", "crypto", "intel"},
		Events:  stage,
	})
	if err != nil {
		t.Fatal(err)
	}
	stage.Close() // drain queued findings into the engine

	alerts := engine.Alerts()
	if len(alerts) == 0 {
		t.Fatal("hostile sweep raised no alerts through the rules pipeline")
	}
	byRule := map[string]int{}
	for _, a := range alerts {
		byRule[a.RuleID]++
	}
	// The open-auth anchor guarantees critical misconfig findings and
	// a seeded trojan notebook, so all three scan rules must fire.
	for _, id := range []string{"SC-001-critical-exposure", "SC-002-trojan-notebook", "SC-003-known-indicator"} {
		if byRule[id] == 0 {
			t.Errorf("rule %s never fired; alerts by rule: %+v", id, byRule)
		}
	}
	findings := rep.BySuite["misconfig"] + rep.BySuite["nbscan"] + rep.BySuite["crypto"] + rep.BySuite["intel"]
	if n := engine.Stats().Events; n != uint64(findings) {
		t.Errorf("engine evaluated %d events for findings %v", n, rep.BySuite)
	}
}
