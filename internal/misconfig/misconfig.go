// Package misconfig is the configuration scanner for the taxonomy's
// "security misconfiguration" class: CIS-style checks evaluated
// against a server.Config (static audit) or a live server URL
// (remote probe), each finding mapped to severity, taxonomy class,
// and remediation.
package misconfig

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/posture"
	"repro/internal/rules"
	"repro/internal/scan"
)

// SuiteName is this scanner's key in the scan suite registry.
const SuiteName = "misconfig"

// Check is one configuration test.
type Check struct {
	ID          string
	Title       string
	Severity    rules.Severity
	Remediation string
	// Eval returns evidence when the check FAILS, "" when it passes.
	Eval func(cfg posture.Config) string
}

// Checks returns the full static check catalogue.
func Checks() []Check {
	return []Check{
		{
			ID: "JPY-001", Title: "Authentication disabled",
			Severity:    rules.SevCritical,
			Remediation: "Enable token or password authentication; never run --NotebookApp.token=''.",
			Eval: func(cfg posture.Config) string {
				if cfg.Auth.DisableAuth {
					return "Auth.DisableAuth=true: any network peer gets full control"
				}
				return ""
			},
		},
		{
			ID: "JPY-002", Title: "Server bound to all interfaces",
			Severity:    rules.SevHigh,
			Remediation: "Bind to 127.0.0.1 and front with SSH tunneling or an authenticating proxy.",
			Eval: func(cfg posture.Config) string {
				if cfg.BindAddress == "0.0.0.0" || cfg.BindAddress == "::" || cfg.BindAddress == "" {
					return fmt.Sprintf("BindAddress=%q exposes the API to the network", cfg.BindAddress)
				}
				return ""
			},
		},
		{
			ID: "JPY-003", Title: "TLS disabled",
			Severity:    rules.SevHigh,
			Remediation: "Serve over HTTPS; tokens and notebook contents otherwise transit in cleartext.",
			Eval: func(cfg posture.Config) string {
				if !cfg.TLSEnabled {
					return "TLSEnabled=false: credentials and data readable on path"
				}
				return ""
			},
		},
		{
			ID: "JPY-004", Title: "Token accepted in URL",
			Severity:    rules.SevMedium,
			Remediation: "Disallow ?token=; URLs leak via logs, Referer headers, and shell history.",
			Eval: func(cfg posture.Config) string {
				if cfg.Auth.AllowTokenInURL {
					return "Auth.AllowTokenInURL=true"
				}
				return ""
			},
		},
		{
			ID: "JPY-005", Title: "Wildcard CORS origin",
			Severity:    rules.SevHigh,
			Remediation: "Pin Access-Control-Allow-Origin to the gateway origin.",
			Eval: func(cfg posture.Config) string {
				if cfg.AllowOrigin == "*" {
					return "AllowOrigin=*: any website the user visits can drive the API"
				}
				return ""
			},
		},
		{
			ID: "JPY-006", Title: "Terminals enabled",
			Severity:    rules.SevMedium,
			Remediation: "Disable terminals unless required; they bypass kernel-level auditing.",
			Eval: func(cfg posture.Config) string {
				if cfg.EnableTerminals {
					return "EnableTerminals=true widens the attack interface"
				}
				return ""
			},
		},
		{
			ID: "JPY-007", Title: "Running as root permitted",
			Severity:    rules.SevHigh,
			Remediation: "Run the server and kernels as an unprivileged user.",
			Eval: func(cfg posture.Config) string {
				if cfg.AllowRoot {
					return "AllowRoot=true"
				}
				return ""
			},
		},
		{
			ID: "JPY-008", Title: "Kernel shell escape permitted",
			Severity:    rules.SevMedium,
			Remediation: "Disable shell access from kernels; audit cannot contain what it cannot see.",
			Eval: func(cfg posture.Config) string {
				if cfg.ShellInKernel {
					return "ShellInKernel=true"
				}
				return ""
			},
		},
		{
			ID: "JPY-009", Title: "Kernel messages unsigned",
			Severity:    rules.SevHigh,
			Remediation: "Set a connection key so kernel messages carry HMAC-SHA256 signatures.",
			Eval: func(cfg posture.Config) string {
				if cfg.ConnectionKey == "" {
					return "ConnectionKey empty: execute_requests are forgeable"
				}
				return ""
			},
		},
		{
			ID: "JPY-010", Title: "Weak kernel connection key",
			Severity:    rules.SevMedium,
			Remediation: "Use a key of at least 16 random bytes.",
			Eval: func(cfg posture.Config) string {
				if cfg.ConnectionKey != "" && len(cfg.ConnectionKey) < 16 {
					return fmt.Sprintf("ConnectionKey is %d bytes", len(cfg.ConnectionKey))
				}
				return ""
			},
		},
		{
			ID: "JPY-011", Title: "No login throttling",
			Severity:    rules.SevMedium,
			Remediation: "Configure MaxFailures/FailureWindow to blunt password guessing.",
			Eval: func(cfg posture.Config) string {
				if !cfg.Auth.DisableAuth && cfg.Auth.MaxFailures <= 0 {
					return "Auth.MaxFailures=0: unlimited guessing rate"
				}
				return ""
			},
		},
		{
			ID: "JPY-012", Title: "No content quota",
			Severity:    rules.SevLow,
			Remediation: "Set a content quota so a compromised kernel cannot fill storage.",
			Eval: func(cfg posture.Config) string {
				if cfg.ContentQuota == 0 {
					return "ContentQuota=0 (unlimited)"
				}
				return ""
			},
		},
	}
}

// Scan runs all static checks against a configuration.
func Scan(cfg posture.Config) []scan.Finding {
	var out []scan.Finding
	for _, c := range Checks() {
		if ev := c.Eval(cfg); ev != "" {
			out = append(out, scan.Finding{
				Suite: SuiteName, CheckID: c.ID, Title: c.Title, Severity: c.Severity,
				Class: rules.ClassMisconfig, Evidence: ev, Remediation: c.Remediation,
			})
		}
	}
	scan.Sort(out)
	return out
}

// Render prints findings as an aligned report.
func Render(findings []scan.Finding) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Misconfiguration scan: %d findings, hardening score %.0f/100\n",
		len(findings), scan.Score(findings))
	for _, f := range findings {
		fmt.Fprintf(&b, "[%-8s] %s — %s\n    evidence: %s\n    fix: %s\n",
			f.Severity, f.CheckID, f.Title, f.Evidence, f.Remediation)
	}
	return b.String()
}

// ProbeResult is what the live probe learned about a remote server.
type ProbeResult struct {
	Reachable        bool
	OpenAccess       bool // /api/status served without credentials
	TerminalsEnabled bool
	WildcardCORS     bool
	Findings         []scan.Finding
}

// Probe tests a live server the way an internet scanner would:
// unauthenticated requests against well-known endpoints.
func Probe(addr string, timeout time.Duration) ProbeResult {
	return ProbeCtx(context.Background(), addr, timeout)
}

// ProbeCtx is Probe with cancellation: a fleet sweep aborts in-flight
// probes when the scan context is cancelled instead of waiting out
// each per-target timeout.
func ProbeCtx(ctx context.Context, addr string, timeout time.Duration) ProbeResult {
	var res ProbeResult
	hc := &http.Client{Timeout: timeout}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/api/status", nil)
	if err != nil {
		return res
	}
	resp, err := hc.Do(req)
	if err != nil {
		return res
	}
	defer resp.Body.Close()
	res.Reachable = true
	if resp.StatusCode == http.StatusOK {
		res.OpenAccess = true
		res.Findings = append(res.Findings, scan.Finding{
			Suite: SuiteName, CheckID: "PRB-001", Title: "API reachable without credentials",
			Severity: rules.SevCritical, Class: rules.ClassMisconfig,
			Evidence:    "GET /api/status returned 200 unauthenticated",
			Remediation: "Enable authentication.",
		})
	}
	if ao := resp.Header.Get("Access-Control-Allow-Origin"); ao == "*" {
		res.WildcardCORS = true
		res.Findings = append(res.Findings, scan.Finding{
			Suite: SuiteName, CheckID: "PRB-002", Title: "Wildcard CORS on live server",
			Severity: rules.SevHigh, Class: rules.ClassMisconfig,
			Evidence:    "Access-Control-Allow-Origin: *",
			Remediation: "Pin allowed origins.",
		})
	}
	// Terminal probe only meaningful if API is open.
	if res.OpenAccess {
		treq, terr := http.NewRequestWithContext(ctx, http.MethodPost,
			"http://"+addr+"/api/terminals", strings.NewReader("{}"))
		if terr != nil {
			return res
		}
		treq.Header.Set("Content-Type", "application/json")
		tresp, err := hc.Do(treq)
		if err == nil {
			tresp.Body.Close()
			if tresp.StatusCode == http.StatusCreated {
				res.TerminalsEnabled = true
				res.Findings = append(res.Findings, scan.Finding{
					Suite: SuiteName, CheckID: "PRB-003", Title: "Terminals spawnable by anonymous users",
					Severity: rules.SevCritical, Class: rules.ClassMisconfig,
					Evidence:    "POST /api/terminals returned 201 unauthenticated",
					Remediation: "Disable terminals and enable authentication.",
				})
			}
		}
	}
	return res
}
