// Package posture defines the security-posture configuration of a
// simulated Jupyter server. It is the leaf the whole assessment stack
// shares: the server materializes a Config into running behavior, the
// misconfiguration scanner audits one statically, the crypto auditor
// derives the primitive inventory from one, and the fleet generator
// samples the taxonomy's knob space over one.
//
// The server package aliases these types (server.Config = posture.
// Config), so call sites may use either name; scanner suites import
// this package directly and stay decoupled from the server runtime.
package posture

import "repro/internal/auth"

// Config is the full server configuration.
type Config struct {
	// Network posture.
	BindAddress string // "127.0.0.1" hardened, "0.0.0.0" exposed
	Port        int    // 0 = ephemeral
	TLSEnabled  bool   // simulated flag; audited, not enforced
	BaseURL     string

	// Auth posture.
	Auth auth.Config

	// CORS / framing posture.
	AllowOrigin string // "" = same-origin only; "*" is the misconfig

	// Capability posture.
	EnableTerminals bool
	AllowRoot       bool
	ShellInKernel   bool // permit shell() builtin inside kernels
	// ScanNotebooks statically analyzes every notebook written through
	// the contents API and surfaces findings as trace events, so
	// trojan notebooks are flagged on arrival.
	ScanNotebooks bool

	// Kernel limits and signing.
	KernelLimits  Limits
	ConnectionKey string

	// Quota for the content filesystem (bytes, 0 = unlimited).
	ContentQuota int64
}

// Limits bounds kernel execution without exporting the interpreter's
// limit type.
type Limits struct {
	MaxSteps       int
	MaxOutputBytes int
}

// Hardened returns the secure-by-default configuration the paper's
// hardening discussion recommends.
func Hardened(token string) Config {
	return Config{
		BindAddress:     "127.0.0.1",
		TLSEnabled:      true,
		Auth:            auth.DefaultConfig(token),
		AllowOrigin:     "",
		EnableTerminals: false,
		AllowRoot:       false,
		ShellInKernel:   false,
		ScanNotebooks:   true,
		ConnectionKey:   "k3rn3l-c0nn3ct10n-k3y-0123456789abcdef",
	}
}

// Sloppy returns the exposed configuration seen on internet-scanned
// Jupyter instances: every knob wrong at once.
func Sloppy() Config {
	return Config{
		BindAddress:     "0.0.0.0",
		TLSEnabled:      false,
		Auth:            auth.Config{DisableAuth: true, AllowTokenInURL: true},
		AllowOrigin:     "*",
		EnableTerminals: true,
		AllowRoot:       true,
		ShellInKernel:   true,
		ConnectionKey:   "",
	}
}

// Preset resolves a named baseline configuration ("hardened" or
// "sloppy"), so the scanner CLI and the fleet generator share one
// preset registry. The hardened preset carries a content quota so a
// fully hardened server audits clean.
func Preset(name, token string) (Config, bool) {
	switch name {
	case "hardened":
		cfg := Hardened(token)
		cfg.ContentQuota = 10 << 30
		return cfg, true
	case "sloppy":
		return Sloppy(), true
	}
	return Config{}, false
}
