package misconfig

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rules"
	"repro/internal/scan"
	"repro/internal/server"
)

func TestHardenedConfigIsClean(t *testing.T) {
	cfg := server.HardenedConfig("a-long-random-token")
	cfg.ContentQuota = 1 << 30
	findings := Scan(cfg)
	if len(findings) != 0 {
		t.Fatalf("hardened config has findings: %+v", findings)
	}
	if scan.Score(findings) != 100 {
		t.Fatalf("score = %f", scan.Score(findings))
	}
}

func TestSloppyConfigFindsEverything(t *testing.T) {
	findings := Scan(server.SloppyConfig())
	found := map[string]bool{}
	for _, f := range findings {
		found[f.CheckID] = true
	}
	// The sloppy archetype trips these specific checks.
	for _, id := range []string{
		"JPY-001", // auth disabled
		"JPY-002", // 0.0.0.0
		"JPY-003", // no TLS
		"JPY-004", // token in URL
		"JPY-005", // wildcard CORS
		"JPY-006", // terminals
		"JPY-007", // root
		"JPY-008", // kernel shell
		"JPY-009", // unsigned messages
		"JPY-012", // no quota
	} {
		if !found[id] {
			t.Errorf("check %s did not fire on sloppy config", id)
		}
	}
	if s := scan.Score(findings); s > 10 {
		t.Fatalf("sloppy score = %f (should be near 0)", s)
	}
}

func TestScannerFindsAllSeeded(t *testing.T) {
	// E7: seed individual misconfigurations and confirm the exact
	// check fires, one at a time.
	base := func() server.Config {
		cfg := server.HardenedConfig("a-long-random-token")
		cfg.ContentQuota = 1 << 30
		return cfg
	}
	cases := []struct {
		id     string
		mutate func(*server.Config)
	}{
		{"JPY-001", func(c *server.Config) { c.Auth.DisableAuth = true }},
		{"JPY-002", func(c *server.Config) { c.BindAddress = "0.0.0.0" }},
		{"JPY-003", func(c *server.Config) { c.TLSEnabled = false }},
		{"JPY-004", func(c *server.Config) { c.Auth.AllowTokenInURL = true }},
		{"JPY-005", func(c *server.Config) { c.AllowOrigin = "*" }},
		{"JPY-006", func(c *server.Config) { c.EnableTerminals = true }},
		{"JPY-007", func(c *server.Config) { c.AllowRoot = true }},
		{"JPY-008", func(c *server.Config) { c.ShellInKernel = true }},
		{"JPY-009", func(c *server.Config) { c.ConnectionKey = "" }},
		{"JPY-010", func(c *server.Config) { c.ConnectionKey = "short" }},
		{"JPY-011", func(c *server.Config) { c.Auth.MaxFailures = 0 }},
		{"JPY-012", func(c *server.Config) { c.ContentQuota = 0 }},
	}
	for _, c := range cases {
		cfg := base()
		c.mutate(&cfg)
		findings := Scan(cfg)
		if len(findings) != 1 || findings[0].CheckID != c.id {
			t.Errorf("seeded %s: findings = %+v", c.id, findings)
		}
	}
}

func TestFindingsSortedBySeverity(t *testing.T) {
	findings := Scan(server.SloppyConfig())
	for i := 1; i < len(findings); i++ {
		if findings[i].Severity.Rank() > findings[i-1].Severity.Rank() {
			t.Fatal("findings not sorted by severity")
		}
	}
}

func TestAllFindingsMapToMisconfigClass(t *testing.T) {
	for _, f := range Scan(server.SloppyConfig()) {
		if f.Class != rules.ClassMisconfig {
			t.Errorf("finding %s class = %s", f.CheckID, f.Class)
		}
		if f.Remediation == "" || f.Evidence == "" {
			t.Errorf("finding %s lacks remediation/evidence", f.CheckID)
		}
	}
}

func TestRender(t *testing.T) {
	text := Render(Scan(server.SloppyConfig()))
	for _, want := range []string{"hardening score", "JPY-001", "fix:"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestProbeOpenServer(t *testing.T) {
	srv := server.NewServer(server.SloppyConfig())
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res := Probe(addr, 2*time.Second)
	if !res.Reachable || !res.OpenAccess || !res.WildcardCORS || !res.TerminalsEnabled {
		t.Fatalf("probe = %+v", res)
	}
	if len(res.Findings) != 3 {
		t.Fatalf("findings = %+v", res.Findings)
	}
}

func TestProbeHardenedServer(t *testing.T) {
	cfg := server.HardenedConfig("tok")
	cfg.BindAddress = "127.0.0.1"
	srv := server.NewServer(cfg)
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res := Probe(addr, 2*time.Second)
	if !res.Reachable {
		t.Fatal("server unreachable")
	}
	if res.OpenAccess || res.TerminalsEnabled || len(res.Findings) != 0 {
		t.Fatalf("hardened probe = %+v", res)
	}
}

func TestProbeUnreachable(t *testing.T) {
	res := Probe("127.0.0.1:1", 200*time.Millisecond)
	if res.Reachable {
		t.Fatal("port 1 reachable?")
	}
}

func TestProbeConcurrentSharedServer(t *testing.T) {
	// Fleet workers probe concurrently; many probes against one live
	// server must be race-clean and all observe the same posture.
	srv := server.NewServer(server.SloppyConfig())
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const goroutines, probesEach = 16, 4
	results := make([]ProbeResult, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < probesEach; j++ {
				results[i] = Probe(addr, 5*time.Second)
			}
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if !res.Reachable || !res.OpenAccess || !res.WildcardCORS || !res.TerminalsEnabled {
			t.Fatalf("goroutine %d probe = %+v", i, res)
		}
		if !reflect.DeepEqual(res.Findings, results[0].Findings) {
			t.Fatalf("goroutine %d saw different findings", i)
		}
	}
}

func TestProbeCtxCancelled(t *testing.T) {
	srv := server.NewServer(server.SloppyConfig())
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := ProbeCtx(ctx, addr, 5*time.Second)
	if res.Reachable {
		t.Fatal("cancelled probe reported reachable")
	}
}

func TestMergeFindings(t *testing.T) {
	static := Scan(server.SloppyConfig())
	probe := []scan.Finding{
		{Suite: SuiteName, CheckID: "PRB-001", Title: "open", Severity: rules.SevCritical, Class: rules.ClassMisconfig},
		{Suite: SuiteName, CheckID: "JPY-001", Title: "dup of static", Severity: rules.SevCritical, Class: rules.ClassMisconfig},
	}
	merged := scan.Merge(probe, static)
	if len(merged) != len(static)+1 {
		t.Fatalf("merged %d findings, want %d", len(merged), len(static)+1)
	}
	seen := map[string]int{}
	for _, f := range merged {
		seen[f.CheckID]++
	}
	if seen["JPY-001"] != 1 || seen["PRB-001"] != 1 {
		t.Fatalf("dedup failed: %+v", seen)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Severity.Rank() > merged[i-1].Severity.Rank() {
			t.Fatal("merged findings not sorted by severity")
		}
	}
}

func TestSeverityCounts(t *testing.T) {
	counts := scan.SeverityCounts(Scan(server.SloppyConfig()))
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(Scan(server.SloppyConfig())) {
		t.Fatalf("counts %+v do not cover all findings", counts)
	}
	if counts[string(rules.SevCritical)] == 0 || counts[string(rules.SevHigh)] == 0 {
		t.Fatalf("sloppy config counts = %+v", counts)
	}
}

func TestChecksHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Checks() {
		if seen[c.ID] {
			t.Errorf("duplicate check id %s", c.ID)
		}
		seen[c.ID] = true
		if c.Remediation == "" {
			t.Errorf("check %s lacks remediation", c.ID)
		}
	}
}
