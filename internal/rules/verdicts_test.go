package rules

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/verdicts.golden from the current engine")

var verdictsGolden = filepath.Join("testdata", "verdicts.golden")

// injectorTrace has every workload.Generator injector twenty times
// over, each attacker a fresh actor: the alert-dense counterpart of
// StandardMix.
func injectorTrace(seed int64) *workload.Trace {
	g := workload.NewGenerator(seed, time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
	t := &workload.Trace{}
	for n := 0; n < 20; n++ {
		g.Benign(t, []string{"alice", "bob"}, 50)
		g.InjectRansomware(t, fmt.Sprintf("mallory-rw-%d", n), 12)
		g.InjectExfil(t, fmt.Sprintf("mallory-ex-%d", n), 8<<20, 4)
		g.InjectMiner(t, fmt.Sprintf("mallory-cm-%d", n), 6, 45*time.Second, 15*time.Second)
		g.InjectBruteForce(t, fmt.Sprintf("203.0.113.%d", n+1), 12, true)
		g.InjectLowSlow(t, fmt.Sprintf("198.51.100.%d", n+1), 30, 30*time.Second)
		g.InjectTerminalRecon(t, fmt.Sprintf("mallory-tr-%d", n), fmt.Sprintf("203.1.0.%d", n+1))
	}
	return t
}

// verdicts runs BuiltinRules over both traces, one event at a time,
// and writes one line per alert: trace, event index, rule ID, group
// and count.
func verdicts(t *testing.T) []byte {
	var buf bytes.Buffer
	for _, tr := range []struct {
		name string
		tr   *workload.Trace
	}{
		{"standard_mix", workload.StandardMix(7, 600)},
		{"injectors", injectorTrace(7)},
	} {
		en, err := NewEngine(BuiltinRules())
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.tr.Events {
			for _, a := range en.ProcessEvent(&tr.tr.Events[i]) {
				fmt.Fprintf(&buf, "%s\t%d\t%s\t%q\t%d\n", tr.name, i, a.RuleID, a.Group, a.Count)
			}
		}
	}
	return buf.Bytes()
}

// TestVerdictsGolden pins every alert the stock rules raise on a
// benign-heavy and an attack-dense trace. A change to how conditions
// are compiled or indexed must leave the file byte-identical; a change
// to a rule or to the workload generator regenerates it with -update.
func TestVerdictsGolden(t *testing.T) {
	got := verdicts(t)
	if *update {
		if err := os.WriteFile(verdictsGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(verdictsGolden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/rules -run TestVerdictsGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s", verdictsGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs: %d lines, want %d", verdictsGolden, len(gl), len(wl))
	}
}
