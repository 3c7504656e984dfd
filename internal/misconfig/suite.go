package misconfig

import (
	"context"
	"strconv"
	"time"

	"repro/internal/scan"
)

// SweepSuite adapts the misconfiguration scanner to the unified scan
// suite contract: a static posture audit of the target's configuration
// merged with what a live unauthenticated probe observes, plus the
// probe facts as census attributes.
type SweepSuite struct{}

// Name implements scan.Suite.
func (SweepSuite) Name() string { return SuiteName }

// Description implements scan.Suite.
func (SweepSuite) Description() string {
	return "static configuration audit merged with a live unauthenticated probe"
}

// Run implements scan.Suite.
func (SweepSuite) Run(ctx context.Context, t scan.Target) (scan.Outcome, error) {
	budget := t.Budget
	if budget <= 0 {
		budget = 5 * time.Second
	}
	static := Scan(t.Config)
	var pr ProbeResult
	if t.Addr != "" {
		pr = ProbeCtx(ctx, t.Addr, budget)
	}
	return scan.Outcome{
		Findings: scan.Merge(pr.Findings, static),
		Attrs: map[string]string{
			scan.AttrReachable:     strconv.FormatBool(pr.Reachable),
			scan.AttrOpenAccess:    strconv.FormatBool(pr.OpenAccess),
			scan.AttrTerminalsOpen: strconv.FormatBool(pr.TerminalsEnabled),
			scan.AttrWildcardCORS:  strconv.FormatBool(pr.WildcardCORS),
		},
	}, nil
}

func init() { scan.Register(SweepSuite{}) }
