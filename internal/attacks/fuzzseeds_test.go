package attacks

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the minilang fuzz seeds generated from the attack payloads")

// seedDir is the seed corpus of minilang's FuzzInterp, which plain go
// test runs: every payload seeded there must stay inside the
// interpreter's limits and run the same on two interpreters.
var seedDir = filepath.Join("..", "kernel", "minilang", "testdata", "fuzz", "FuzzInterp")

// attackSeeds is every minilang payload the attack drivers send, one
// program per scenario: ransomware with defaults, exfiltration
// single-shot and chunked+encoded, and both miner archetypes with the
// setup cell and two burn rounds run back to back.
func attackSeeds() map[string]string {
	blatant := MinerOptions{BurnMillis: 500, Blatant: true}.withDefaults()
	stealthy := MinerOptions{BurnMillis: 500}.withDefaults()
	miner := func(o MinerOptions) string {
		return strings.Join([]string{minerSetupScript(o), minerRoundScript(o, 0), minerRoundScript(o, 1)}, "\n")
	}
	return map[string]string{
		"attack-ransomware":     ransomwarePayload(RansomwareOptions{}.withDefaults()),
		"attack-exfil-plain":    exfilPayload(ExfilOptions{TargetDir: "data"}.withDefaults()),
		"attack-exfil-chunked":  exfilPayload(ExfilOptions{TargetDir: "models", Encode: true, ChunkBytes: 512}.withDefaults()),
		"attack-miner-blatant":  miner(blatant),
		"attack-miner-stealthy": miner(stealthy),
	}
}

// TestAttackPayloadFuzzSeeds keeps the attack seeds in minilang's fuzz
// corpus equal to what the payload builders produce now. Run with
// -update to rewrite them after changing a payload; minilang's
// TestAttackSeedsRunPastFirstHostCall checks that each still exercises
// its loops and host calls on the fuzz harness's hosts.
func TestAttackPayloadFuzzSeeds(t *testing.T) {
	seeds := attackSeeds()
	for name, src := range seeds {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", src)
		path := filepath.Join(seedDir, name)
		if *update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/attacks -run TestAttackPayloadFuzzSeeds -update)", err)
		}
		if string(got) != want {
			t.Fatalf("%s is stale: the %s payload changed (run go test ./internal/attacks -run TestAttackPayloadFuzzSeeds -update)", path, name)
		}
	}
	stale, err := filepath.Glob(filepath.Join(seedDir, "attack-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range stale {
		if _, ok := seeds[filepath.Base(path)]; !ok {
			t.Errorf("%s seeds no current payload; delete it", path)
		}
	}
}
