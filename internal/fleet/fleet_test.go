package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scan"
	"repro/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 32)
	b := Generate(42, 32)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fleets")
	}
	c := Generate(43, 32)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fleets")
	}
	seen := map[string]bool{}
	for _, p := range a {
		if seen[p.ID] {
			t.Fatalf("duplicate preset id %s", p.ID)
		}
		seen[p.ID] = true
	}
}

func TestGenerateAnchors(t *testing.T) {
	ps := Generate(1, 8)
	if ps[0].Name != "hardened" || (ps[0].Knobs != Knobs{}) {
		t.Fatalf("preset 0 not hardened anchor: %+v", ps[0])
	}
	all := Knobs{OpenBind: true, NoAuth: true, TokenInURL: true,
		WildcardCORS: true, NoTLS: true, Terminals: true, Root: true, WeakKey: true}
	if ps[1].Knobs != all {
		t.Fatalf("preset 1 not everything-wrong anchor: %+v", ps[1])
	}
}

func TestKnobsNameAndConfig(t *testing.T) {
	cases := []struct {
		knobs Knobs
		name  string
		check func(t *testing.T)
	}{
		{Knobs{}, "hardened", nil},
		{Knobs{NoAuth: true}, "no-auth", nil},
		{Knobs{OpenBind: true, Terminals: true}, "open-bind+terminals", nil},
		{Knobs{WeakKey: true}, "weak-key", nil},
	}
	for _, c := range cases {
		if got := c.knobs.Name(); got != c.name {
			t.Errorf("Name(%+v) = %q, want %q", c.knobs, got, c.name)
		}
	}
	cfg := Knobs{NoAuth: true, WildcardCORS: true, WeakKey: true}.Config()
	if !cfg.Auth.DisableAuth || cfg.AllowOrigin != "*" || len(cfg.ConnectionKey) >= 16 {
		t.Fatalf("knob mapping wrong: %+v", cfg)
	}
	hardened := Knobs{}.Config()
	if hardened.Auth.DisableAuth || hardened.AllowOrigin == "*" || !hardened.TLSEnabled {
		t.Fatalf("hardened base not hardened: %+v", hardened)
	}
}

// spawnFleet is a test helper: spawn n targets from seed, cleanup on
// test end.
func spawnFleet(t *testing.T, seed int64, n int) *Fleet {
	t.Helper()
	f, err := Spawn(Generate(seed, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestScanExactlyOnceWithStream(t *testing.T) {
	f := spawnFleet(t, 1, 12)
	var stream bytes.Buffer
	rep, err := Scan(context.Background(), f.Targets(), Options{
		Workers: 4, Stream: &stream, Timeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Targets != 12 || rep.Scanned != 12 || rep.Resumed != 0 || rep.Unreachable != 0 {
		t.Fatalf("report = %+v", rep)
	}
	// Every target appears exactly once in the JSONL stream.
	seen := map[string]int{}
	dec := json.NewDecoder(&stream)
	for dec.More() {
		var r Result
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		seen[r.TargetID]++
	}
	if len(seen) != 12 {
		t.Fatalf("stream has %d distinct targets, want 12", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("target %s scanned %d times", id, n)
		}
	}
}

func TestScanAnchorsScoreAsExpected(t *testing.T) {
	f := spawnFleet(t, 5, 4)
	rep, err := Scan(context.Background(), f.Targets(), Options{Workers: 2, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Worst list is sorted ascending by score; the everything-wrong
	// anchor must be at the bottom and the hardened anchor clean.
	byID := map[string]WorstTarget{}
	for _, w := range rep.Worst {
		byID[w.TargetID] = w
	}
	if w := byID["tgt-0000"]; w.Score != 100 || w.Findings != 0 {
		t.Fatalf("hardened anchor = %+v", w)
	}
	if w := byID["tgt-0001"]; w.Score != 0 || w.Findings < 10 {
		t.Fatalf("everything-wrong anchor = %+v", w)
	}
}

func TestReportDeterministicAcrossWorkerCounts(t *testing.T) {
	f := spawnFleet(t, 9, 16)
	a, err := Scan(context.Background(), f.Targets(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scan(context.Background(), f.Targets(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("census differs with worker count:\n%s\nvs\n%s", a.Render(), b.Render())
	}
}

func TestCheckpointResumeRoundTrip(t *testing.T) {
	f := spawnFleet(t, 3, 16)
	targets := f.Targets()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	// First sweep dies partway: cancellation after a few results
	// leaves a partial checkpoint, the way a killed sweep would.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, err := Scan(ctx, targets, Options{
		Workers: 2, Rate: 200, CheckpointPath: ckpt,
		Stream: &cancelAfterWriter{n: 4, cancel: cancel},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	firstScanned := first.Scanned
	if firstScanned < 4 || firstScanned >= 16 {
		t.Fatalf("interrupted sweep scanned %d, want partial coverage in [4,16)", firstScanned)
	}

	// Resumed sweep over the same fleet scans only the remainder.
	second, err := Scan(context.Background(), targets, Options{
		Workers: 4, CheckpointPath: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Resumed != firstScanned || second.Stats.Scanned != 16-firstScanned {
		t.Fatalf("resumed sweep = %+v after %d first-pass results", second.Stats, firstScanned)
	}
	if second.Scanned != 16 || second.Resumed != firstScanned {
		t.Fatalf("resumed report = %+v", second)
	}

	// The resumed census matches a clean one-shot sweep.
	clean, err := Scan(context.Background(), targets, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.ByCheck, clean.ByCheck) ||
		!reflect.DeepEqual(second.BySeverity, clean.BySeverity) ||
		second.MeanScore != clean.MeanScore ||
		!reflect.DeepEqual(second.Worst, clean.Worst) {
		t.Fatalf("resumed census diverged:\n%s\nvs\n%s", second.Render(), clean.Render())
	}
}

func TestCheckpointRejectsDifferentFleet(t *testing.T) {
	// Resuming against a checkpoint written by a different fleet
	// (e.g. another --seed) must fail loudly, not silently fold
	// foreign results into the census.
	f := spawnFleet(t, 3, 6)
	targets := f.Targets()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Scan(context.Background(), targets, Options{Workers: 2, CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	mutated := append([]Target{}, targets...)
	mutated[2].Preset = "no-auth+root" // same ID, different configuration
	if _, err := Scan(context.Background(), mutated, Options{Workers: 2, CheckpointPath: ckpt}); err == nil {
		t.Fatal("checkpoint from a different fleet accepted")
	}
}

// testCkptHeader is a v2 checkpoint header line.
const testCkptHeader = `{"fleet_checkpoint":2,"fleet_sig":"ab","suites":["misconfig"]}` + "\n"

func TestLoadCheckpointToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	whole, _ := json.Marshal(Result{TargetID: "tgt-0001", Score: 50})
	content := append([]byte(testCkptHeader), whole...)
	content = append(content, '\n')
	content = append(content, []byte(`{"target_id":"tgt-0002","sco`)...) // torn write
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["tgt-0001"].Score != 50 {
		t.Fatalf("loaded = %+v", got)
	}
}

func TestLoadCheckpointRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	content := []byte(testCkptHeader + "not json at all\n{\"target_id\":\"tgt-0001\"}\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	got, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing checkpoint: %v %+v", err, got)
	}
}

func TestBuildReportOrderIndependent(t *testing.T) {
	results := []Result{
		{TargetID: "tgt-0002", Preset: "no-auth", Score: 40, Reachable: true},
		{TargetID: "tgt-0000", Preset: "hardened", Score: 100, Reachable: true},
		{TargetID: "tgt-0001", Preset: "root", Score: 40, Reachable: true},
	}
	reversed := []Result{results[2], results[1], results[0]}
	a := BuildReport(3, results, 2)
	b := BuildReport(3, reversed, 2)
	if a.Render() != b.Render() {
		t.Fatal("report depends on result order")
	}
	// Score ties broken by target ID.
	if a.Worst[0].TargetID != "tgt-0001" || a.Worst[1].TargetID != "tgt-0002" {
		t.Fatalf("worst = %+v", a.Worst)
	}
}

// ---- Multi-suite deep sweeps ----

var allSuites = []string{"misconfig", "nbscan", "crypto", "intel"}

func TestDeepScanSuitesDeterministic(t *testing.T) {
	f := spawnFleet(t, 21, 8)
	a, err := Scan(context.Background(), f.Targets(), Options{Workers: 1, Suites: allSuites})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scan(context.Background(), f.Targets(), Options{Workers: 8, Suites: allSuites})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatalf("deep census differs with worker count:\n%s\nvs\n%s", a.Render(), b.Render())
	}
	// The everything-wrong anchor has open auth, so the seeded trojan
	// notebook must surface through the deep-scan and intel suites,
	// and the crypto inventory flags every target.
	for _, suite := range allSuites {
		if a.BySuite[suite] == 0 {
			t.Errorf("suite %s contributed no findings: %+v", suite, a.BySuite)
		}
	}
	if a.BySuite["nbscan"] < 2 || a.BySuite["intel"] < 2 {
		t.Errorf("trojan notebook under-detected: %+v", a.BySuite)
	}
}

func TestScanUnknownSuiteFailsFast(t *testing.T) {
	f := spawnFleet(t, 1, 2)
	_, err := Scan(context.Background(), f.Targets(), Options{Suites: []string{"misconfig", "bogus"}})
	if err == nil || !strings.Contains(err.Error(), "unknown suite") {
		t.Fatalf("err = %v, want unknown-suite failure", err)
	}
}

func TestSweepEmitsFindingsThroughEventSink(t *testing.T) {
	f := spawnFleet(t, 21, 6)
	var mu sync.Mutex
	var events []trace.Event
	sink := trace.SinkFunc(func(e trace.Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	rep, err := Scan(context.Background(), f.Targets(), Options{
		Workers: 4, Suites: allSuites, Events: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range rep.BySuite {
		total += n
	}
	if len(events) != total {
		t.Fatalf("emitted %d events for %d findings", len(events), total)
	}
	for _, e := range events {
		if e.Kind != trace.KindScanFinding {
			t.Fatalf("event kind = %s", e.Kind)
		}
		if e.Field("target_id") == "" || e.Field("suite") == "" || e.Field("severity") == "" {
			t.Fatalf("event missing scan fields: %+v", e)
		}
	}
}

func TestSweepRecordsPerSuiteTiming(t *testing.T) {
	f := spawnFleet(t, 21, 4)
	rep, err := Scan(context.Background(), f.Targets(), Options{Workers: 2, Suites: allSuites})
	if err != nil {
		t.Fatal(err)
	}
	for _, suite := range allSuites {
		st, ok := rep.Stats.PerSuite[suite]
		if !ok || st.Targets != 4 {
			t.Fatalf("per-suite stats for %s = %+v (%v)", suite, st, rep.Stats.PerSuite)
		}
	}
	if !strings.Contains(rep.Stats.Render(), "sweep: suite") {
		t.Fatalf("stats render lacks per-suite rows:\n%s", rep.Stats.Render())
	}
}

// ---- Checkpoint schema v2 ----

func TestCheckpointHeaderWritten(t *testing.T) {
	f := spawnFleet(t, 5, 4)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Scan(context.Background(), f.Targets(), Options{Workers: 2, CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(data), "\n", 2)[0]
	var hdr struct {
		Version   int      `json:"fleet_checkpoint"`
		Signature string   `json:"fleet_sig"`
		Suites    []string `json:"suites"`
	}
	if err := json.Unmarshal([]byte(first), &hdr); err != nil {
		t.Fatalf("header line %q: %v", first, err)
	}
	if hdr.Version != CheckpointVersion || hdr.Signature == "" || len(hdr.Suites) == 0 {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Signature != FleetSignature(f.Targets()) {
		t.Fatalf("header signature %s != fleet signature %s", hdr.Signature, FleetSignature(f.Targets()))
	}
}

func TestLoadCheckpointLegacyHeaderless(t *testing.T) {
	// A v1 checkpoint: no header, pre-suite Result JSON. It cannot be
	// resumed; loading it (or resuming a sweep from it) must fail with
	// an error naming the file and saying to start afresh.
	path := filepath.Join(t.TempDir(), "legacy.ckpt")
	legacy := `{"target_id":"tgt-0000","preset":"hardened","addr":"127.0.0.1:1","reachable":true,"open_access":false,"terminals_open":false,"wildcard_cors":false,"score":100,"findings":null}
{"target_id":"tgt-0001","preset":"no-auth","addr":"127.0.0.1:2","reachable":true,"open_access":true,"terminals_open":false,"wildcard_cors":false,"score":55,"findings":[{"check_id":"JPY-001","title":"Authentication disabled","severity":"critical","class":"security_misconfiguration","evidence":"x","remediation":"y"}]}
`
	for name, content := range map[string]string{"legacy": legacy, "blank": "\n \n"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadCheckpoint(path)
		if err == nil {
			t.Fatalf("%s: headerless checkpoint loaded %d records", name, len(got))
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "start a fresh checkpoint") {
			t.Fatalf("%s: error %q does not name the file and the remedy", name, err)
		}
	}
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	f := spawnFleet(t, 1, 2)
	if _, err := Scan(context.Background(), f.Targets(), Options{Workers: 1, CheckpointPath: path}); err == nil {
		t.Fatal("a sweep resumed from a headerless checkpoint")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != legacy {
		t.Fatal("the refused checkpoint was modified")
	}
}

func TestLoadCheckpointRejectsNewerVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.ckpt")
	content := `{"fleet_checkpoint":99,"fleet_sig":"abcd"}
{"target_id":"tgt-0000","score":100}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil || !strings.Contains(err.Error(), "schema v99") {
		t.Fatalf("newer-version checkpoint accepted: %v", err)
	}
}

func TestCheckpointSuiteSetMismatchRejected(t *testing.T) {
	f := spawnFleet(t, 5, 4)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Scan(context.Background(), f.Targets(), Options{Workers: 2, CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	_, err := Scan(context.Background(), f.Targets(), Options{
		Workers: 2, CheckpointPath: ckpt, Suites: allSuites,
	})
	if err == nil || !strings.Contains(err.Error(), "suites") {
		t.Fatalf("suite-set mismatch accepted: %v", err)
	}
}

func TestFleetSignatureIgnoresAddressesAndOrder(t *testing.T) {
	a := spawnFleet(t, 7, 6)
	b := spawnFleet(t, 7, 6)
	sa, sb := FleetSignature(a.Targets()), FleetSignature(b.Targets())
	if sa != sb {
		t.Fatalf("same seed, different signatures: %s vs %s", sa, sb)
	}
	rev := a.Targets()
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if FleetSignature(rev) != sa {
		t.Fatal("signature depends on target order")
	}
	c := spawnFleet(t, 8, 6)
	if FleetSignature(c.Targets()) == sa {
		t.Fatal("different seeds share a signature")
	}
}

func TestHostileTargetFindingsSpanSuites(t *testing.T) {
	f := spawnFleet(t, 1, 2) // tgt-0001 = everything-wrong anchor
	var hostile Target
	for _, tg := range f.Targets() {
		if tg.ID == "tgt-0001" {
			hostile = tg
		}
	}
	res, _, err := scanOne(context.Background(), hostile,
		mustResolve(t, allSuites), allSuites, 3*time.Second)
	if err != nil {
		t.Fatalf("scanOne incomplete: %v", err)
	}
	bySuite := scan.SuiteCounts(res.Findings)
	for _, suite := range allSuites {
		if bySuite[suite] == 0 {
			t.Errorf("hostile target has no %s findings: %+v", suite, bySuite)
		}
	}
	if res.Score != 0 {
		t.Errorf("everything-wrong anchor scored %v, want 0", res.Score)
	}
}

func mustResolve(t *testing.T, names []string) []scan.Suite {
	t.Helper()
	suites, err := scan.Resolve(names)
	if err != nil {
		t.Fatal(err)
	}
	return suites
}

func TestCheckpointHeaderOnlySuiteMismatchRejected(t *testing.T) {
	// A sweep killed after writing the header but before any result
	// must still pin the suite set: the header alone carries it.
	f := spawnFleet(t, 5, 4)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, err := Scan(context.Background(), f.Targets(), Options{Workers: 2, CheckpointPath: ckpt}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	headerOnly := strings.SplitN(string(data), "\n", 2)[0] + "\n"
	if err := os.WriteFile(ckpt, []byte(headerOnly), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Scan(context.Background(), f.Targets(), Options{
		Workers: 2, CheckpointPath: ckpt, Suites: allSuites,
	})
	if err == nil || !strings.Contains(err.Error(), "suites") {
		t.Fatalf("header-only suite mismatch accepted: %v", err)
	}
}
