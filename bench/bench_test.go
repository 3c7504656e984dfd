package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func smokeConfig(t *testing.T, workload string, traced bool) *config {
	return &config{
		workload: workload, seed: 11, seconds: 0.2, traced: traced, smoke: true,
		workDir: t.TempDir(), nproc: 2, report: io.Discard,
	}
}

// TestVocabularyMatchesBenchmarkJSON keeps the program's metric and
// workload tables and BENCHMARK.json in step, in both directions.
func TestVocabularyMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json %q (why %q), program %q", i, w.Name, w.Why, workloadNames[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, i int, gotName, gotUnit, gotBetter string, want metricDef) {
		if gotName != want.name || gotUnit != want.unit || gotBetter != want.better {
			t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, program {%s %s %s}", kind, i, gotName, gotUnit, gotBetter, want.name, want.unit, want.better)
		}
		if !name.MatchString(gotName) || !unit.MatchString(gotUnit) {
			t.Errorf("%s %q (unit %q) is outside the contract's alphabet", kind, gotName, gotUnit)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound != bounds[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, bounds[m.Name])
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced:
// zero failed operations, and the result line carries exactly the
// vocabulary's names with their units.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := smokeConfig(t, w, traced)
			out, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if out.failed != 0 || out.attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w, traced, out.failed, out.attempted, out.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			line := out.line()
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics in the result line, want %d", w, traced, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := line.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", w, traced, d.name, got.Unit, d.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w, d.name, got.Value)
				}
			}
		}
	}
}

// TestOracleCanFail seeds one fault per storage-facing oracle and
// expects the run to count failed operations.
func TestOracleCanFail(t *testing.T) {
	for _, tc := range []struct{ workload, fault string }{
		{"live_saturate", "swallow"}, // a wrapper swallows one event before the Tee
		{"incident_query", "query"},  // one query expectation is wrong
	} {
		cfg := smokeConfig(t, tc.workload, false)
		cfg.fault = tc.fault
		out, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s with fault %s: %v", tc.workload, tc.fault, err)
		}
		if out.failed == 0 {
			t.Errorf("%s with fault %s: the oracle reported no failed operation", tc.workload, tc.fault)
		}
		if out.line().Correct {
			t.Errorf("%s with fault %s: result line says correct", tc.workload, tc.fault)
		}
	}
}
