package ingest

import (
	"fmt"
	"testing"

	"repro/internal/trace"
)

// stampTenantConcat is stampTenant as it was before the identities of
// one event shared a backing string: one concatenation per field. The
// table test holds the new form to it byte for byte.
func stampTenantConcat(name string, e trace.Event) trace.Event {
	if e.User != "" {
		e.User = name + "/" + e.User
	}
	if e.SrcIP != "" {
		e.SrcIP = name + "/" + e.SrcIP
	}
	if e.KernelID != "" {
		e.KernelID = name + "/" + e.KernelID
	}
	if e.User == "" && e.SrcIP == "" && e.KernelID == "" {
		e.User = name + "/-"
	}
	return e
}

func TestStampTenantMatchesConcatenation(t *testing.T) {
	for _, tenant := range []string{"acme", "t", "a/b", ""} {
		for mask := 0; mask < 8; mask++ {
			in := trace.Event{Kind: trace.KindExec, Session: "s-1", Target: "/home/x"}
			if mask&1 != 0 {
				in.User = "alice"
			}
			if mask&2 != 0 {
				in.SrcIP = "10.0.0.7"
			}
			if mask&4 != 0 {
				in.KernelID = "k-42"
			}
			t.Run(fmt.Sprintf("%q/user=%t,src=%t,kernel=%t", tenant, mask&1 != 0, mask&2 != 0, mask&4 != 0), func(t *testing.T) {
				want := stampTenantConcat(tenant, in)
				got := in
				stampTenant(tenant, &got)
				if got.User != want.User || got.SrcIP != want.SrcIP || got.KernelID != want.KernelID {
					t.Fatalf("identities = (%q, %q, %q), want (%q, %q, %q)",
						got.User, got.SrcIP, got.KernelID, want.User, want.SrcIP, want.KernelID)
				}
				if got.ActorKey() != want.ActorKey() {
					t.Fatalf("actor key %q, want %q", got.ActorKey(), want.ActorKey())
				}
				if got.Session != in.Session || got.Target != in.Target || got.Kind != in.Kind {
					t.Fatalf("stamping touched a non-identity field: %+v", got)
				}
			})
		}
	}
}

func TestStampTenantOneAllocation(t *testing.T) {
	for _, in := range []trace.Event{
		{User: "alice", SrcIP: "10.0.0.7", KernelID: "k-42"},
		{SrcIP: "10.0.0.7"},
		{},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			e := in
			stampTenant("acme", &e)
		})
		if allocs > 1 {
			t.Errorf("stamping %+v cost %.0f allocations, want at most 1", in, allocs)
		}
	}
}
