package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const contractPath = "../../BENCHMARK.json"

// benchFile writes a result file of n workloads with every end-to-end
// metric at 100, after edit has changed what it wants.
func benchFile(t *testing.T, n int, edit func(results []map[string]any)) string {
	t.Helper()
	var c contract
	if err := readJSON(contractPath, &c); err != nil {
		t.Fatal(err)
	}
	results := make([]map[string]any, n)
	for i := range results {
		metrics := map[string]any{}
		for _, m := range c.EndToEnd {
			metrics[m.Name] = map[string]any{"value": 100.0, "unit": m.Unit}
		}
		results[i] = map[string]any{"correct": true, "attempted": 1000, "failed": 0, "metrics": metrics}
	}
	if edit != nil {
		edit(results)
	}
	data, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func setMetric(r map[string]any, name string, v float64) {
	r["metrics"].(map[string]any)[name] = map[string]any{"value": v}
}

func diff(t *testing.T, args ...string) (code int, rows []string, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(contractPath, args, &out, &errOut)
	if s := strings.TrimSuffix(out.String(), "\n"); s != "" {
		rows = strings.Split(s, "\n")
	}
	return code, rows, errOut.String()
}

func row(t *testing.T, rows []string, workload, metric string) string {
	t.Helper()
	for _, r := range rows {
		if f := strings.Fields(r); len(f) > 1 && f[0] == workload && f[1] == metric {
			return r
		}
	}
	t.Fatalf("no row for %s %s in:\n%s", workload, metric, strings.Join(rows, "\n"))
	return ""
}

func TestSameFileIsUnchanged(t *testing.T) {
	f := benchFile(t, 4, nil)
	code, rows, stderr := diff(t, f, f)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 4 workloads x 5 metrics", len(rows))
	}
	for _, r := range rows {
		if !strings.Contains(r, " unchanged ") {
			t.Errorf("row not unchanged: %s", r)
		}
	}
}

func TestWorkloadCountMismatchExits2(t *testing.T) {
	code, rows, stderr := diff(t, benchFile(t, 4, nil), benchFile(t, 3, nil))
	if code != 2 || len(rows) != 0 || !strings.Contains(stderr, "holds 3 workloads") {
		t.Fatalf("exit %d, %d rows, stderr %q; want exit 2, no rows", code, len(rows), stderr)
	}
}

func TestFlagsAndWrongArgumentCountExit2(t *testing.T) {
	f := benchFile(t, 4, nil)
	for _, args := range [][]string{{f}, {f, f, f}, {"--compare", f}, {f, "-max-regress"}} {
		if code, _, _ := diff(t, args...); code != 2 {
			t.Errorf("args %q: exit %d, want 2", args, code)
		}
	}
}

func TestFailedWorkloadInNewExits1(t *testing.T) {
	failed := benchFile(t, 4, func(rs []map[string]any) {
		rs[2]["correct"], rs[2]["failed"] = false, 3
	})
	ok := benchFile(t, 4, nil)
	code, rows, stderr := diff(t, ok, failed)
	if code != 1 || len(rows) != 20 || !strings.Contains(stderr, "forensic_replay") {
		t.Fatalf("exit %d, %d rows, stderr %q; want exit 1 naming forensic_replay", code, len(rows), stderr)
	}
	// A failed workload in OLD is history, not a verdict on NEW.
	if code, _, _ := diff(t, failed, ok); code != 0 {
		t.Fatalf("failed workload in OLD only: exit %d, want 0", code)
	}
}

func TestMetricPastItsBoundIsMarked(t *testing.T) {
	old := benchFile(t, 4, func(rs []map[string]any) {
		setMetric(rs[1], "latency_p75_ms", 0)
	})
	cur := benchFile(t, 4, func(rs []map[string]any) {
		setMetric(rs[0], "throughput_per_s", 70)     // higher is better: -30%, past 25%
		setMetric(rs[0], "latency_p50_ms", 110)      // +10%, inside 25%
		setMetric(rs[0], "disk_bytes_per_event", 98) // -2%, past 1.5% the good way
		setMetric(rs[1], "latency_p75_ms", 0.5)      // from 0: past any bound
		setMetric(rs[3], "setup_s", 126)             // +26%, past 25%
	})
	code, rows, stderr := diff(t, old, cur)
	if code != 0 {
		t.Fatalf("exit %d (stderr %q): a WORSE row alone must not fail", code, stderr)
	}
	for _, tc := range []struct{ workload, metric, verdict string }{
		{"live_saturate", "throughput_per_s", "WORSE"},
		{"live_saturate", "latency_p50_ms", "within"},
		{"live_saturate", "disk_bytes_per_event", "better"},
		{"live_paced", "latency_p75_ms", "WORSE"},
		{"incident_query", "setup_s", "WORSE"},
		{"forensic_replay", "setup_s", "unchanged"},
	} {
		if r := row(t, rows, tc.workload, tc.metric); !strings.Contains(r, " "+tc.verdict+" ") {
			t.Errorf("%s %s: want %s, got %s", tc.workload, tc.metric, tc.verdict, r)
		}
	}
}
