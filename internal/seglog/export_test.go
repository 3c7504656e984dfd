package seglog

import "testing"

// swapOps replaces the file-operation seam for one test and puts the
// real operations back when it ends. This is the only assignment to
// ops anywhere; tests that use it must not run in parallel.
func swapOps(t *testing.T, with fileOps) {
	t.Helper()
	real := ops
	ops = with
	t.Cleanup(func() { ops = real })
}
