// Package nbscan statically analyzes notebook documents before they
// execute — the "security assessment extension" capability the paper's
// related work attributes to NVIDIA and Amazon tooling, built on the
// minilang parser so the scanner sees exactly what a kernel would run.
//
// The scanner parses every code cell, extracts the primitives it
// invokes, and matches call *combinations* against attack patterns:
// read+post is exfiltration-shaped, encrypt+write is ransomware-shaped,
// a shell call is an escape. The server can run the scan on every
// notebook PUT so trojan notebooks are flagged on arrival, before any
// victim opens them — the paper's "untrusted cell" vector intercepted
// at the file-browser boundary.
package nbscan

import (
	"fmt"
	"regexp"
	"sort"
	"strings"

	"repro/internal/kernel/minilang"
	"repro/internal/nbformat"
	"repro/internal/rules"
	"repro/internal/scan"
)

// SuiteName is this scanner's key in the scan suite registry.
const SuiteName = "nbscan"

var minerStrings = regexp.MustCompile(`(?i)(stratum\+tcp|xmrig|minerd|cryptonight|coinhive)`)

// pattern is one call-combination rule.
type pattern struct {
	name     string // check ID suffix: finding CheckID is "NB-" + name
	class    string
	severity rules.Severity
	requires []string // all must be called in the same cell
	reason   string
}

var patterns = []pattern{
	{
		name: "ransomware-shape", class: rules.ClassRansomware, severity: rules.SevCritical,
		requires: []string{"encrypt", "write_file"},
		reason:   "cell encrypts data and writes it back (ransomware shape)",
	},
	{
		name: "exfil-shape", class: rules.ClassExfiltration, severity: rules.SevHigh,
		requires: []string{"read_file", "http_post"},
		reason:   "cell reads local data and posts it out (exfiltration shape)",
	},
	{
		name: "packed-exfil-shape", class: rules.ClassExfiltration, severity: rules.SevHigh,
		requires: []string{"b64encode", "http_post"},
		reason:   "cell base64-packs data before an outbound post",
	},
	{
		name: "shell-escape", class: rules.ClassZeroDay, severity: rules.SevHigh,
		requires: []string{"shell"},
		reason:   "cell escapes to a shell",
	},
	{
		name: "recon", class: rules.ClassZeroDay, severity: rules.SevLow,
		requires: []string{"hostname", "env"},
		reason:   "cell gathers host identity and environment",
	},
	{
		name: "destructive-sweep", class: rules.ClassRansomware, severity: rules.SevMedium,
		requires: []string{"list_files", "delete_file"},
		reason:   "cell enumerates and deletes files",
	},
}

// ScanSource statically analyzes one cell source.
func ScanSource(cellID, src string) []scan.Finding {
	var out []scan.Finding
	if m := minerStrings.FindString(src); m != "" {
		out = append(out, scan.Finding{
			Suite: SuiteName, CheckID: "NB-miner-string", Title: "Miner indicator in cell source",
			Severity: rules.SevCritical, Class: rules.ClassCryptomining, Target: cellID,
			Evidence:    fmt.Sprintf("miner indicator %q in source", m),
			Remediation: "Quarantine the notebook; mining payloads indicate compromise.",
		})
	}
	prog, err := minilang.Parse(src)
	if err != nil {
		// Unparseable code cells cannot be vetted; surface that fact
		// at low severity rather than passing them silently.
		out = append(out, scan.Finding{
			Suite: SuiteName, CheckID: "NB-unscannable", Title: "Cell cannot be vetted",
			Severity: rules.SevInfo, Class: rules.ClassZeroDay, Target: cellID,
			Evidence: fmt.Sprintf("cell does not parse (%v): unscannable", err),
		})
		return out
	}
	called := map[string]bool{}
	var calls []string
	for _, c := range prog.Calls {
		if !called[c] {
			called[c] = true
			calls = append(calls, c)
		}
	}
	sort.Strings(calls)
	for _, p := range patterns {
		match := true
		for _, req := range p.requires {
			if !called[req] {
				match = false
				break
			}
		}
		if match {
			out = append(out, scan.Finding{
				Suite: SuiteName, CheckID: "NB-" + p.name, Title: "Attack-shaped cell: " + p.name,
				Severity: p.severity, Class: p.class, Target: cellID,
				Evidence:    p.reason + " (calls: " + strings.Join(calls, ", ") + ")",
				Remediation: "Review the cell before execution; do not trust notebooks from unverified sources.",
			})
		}
	}
	return out
}

// ScanNotebook scans every code cell.
func ScanNotebook(nb *nbformat.Notebook) []scan.Finding {
	var out []scan.Finding
	for i := range nb.Cells {
		c := &nb.Cells[i]
		if c.CellType != nbformat.CellCode {
			continue
		}
		out = append(out, ScanSource(c.ID, string(c.Source))...)
	}
	scan.Sort(out)
	return out
}

// TopSeverity returns the worst severity among findings ("" if none).
func TopSeverity(findings []scan.Finding) rules.Severity {
	var top rules.Severity
	for _, f := range findings {
		if f.Severity.Rank() > top.Rank() {
			top = f.Severity
		}
	}
	return top
}

// Render prints findings for CLI use.
func Render(findings []scan.Finding) string {
	if len(findings) == 0 {
		return "notebook scan: clean\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "notebook scan: %d findings (top severity %s)\n",
		len(findings), TopSeverity(findings))
	for _, f := range findings {
		fmt.Fprintf(&b, "  [%-8s] cell %-12s %-26s %s\n", f.Severity, f.Target, f.Class, f.Evidence)
	}
	return b.String()
}
