// Command jingestd runs the multi-tenant live ingest front-end: it
// terminates agent event streams (HTTP batches and WebSockets),
// authenticates each connection with a per-tenant HMAC token, applies
// per-tenant quotas and backpressure, and routes accepted events into
// the live detection engine and/or a replayable event store.
//
// Tenants are declared as name=secret pairs; each tenant's bearer
// token is derived (HMAC-SHA256) from its secret and printed at
// startup, or minted offline with --mint for distribution to agents.
//
//	jingestd --tenants acme=s3cret,globex=hunter2 --store ./events
//	jingestd --tenants acme=s3cret --policy drop --rate 500 --burst 100
//	jingestd --tenants acme=s3cret --mint acme
//
// --store segments use the compact binary-v2 codec. Replay dispatches
// per segment, so a store an older build started in v1 JSON segments
// replays identically after a restart appends to it. The codec only
// affects the on-disk segment frames, not the JSONL wire format
// agents POST. A --store path ending in .jsonl records a flat JSONL
// file instead, with no history.
//
// Agents POST JSONL event batches to /ingest or stream them over
// /ingest/ws (one JSONL batch per message) with headers:
//
//	X-Tenant: acme
//	Authorization: Bearer <token>
//
// /stats serves live per-tenant counters; /healthz reports 503 once
// draining. On SIGINT/SIGTERM the daemon stops admitting work, drains
// every tenant queue, flushes and closes the store — and the indexed
// alert/incident history recorded next to it (default <store>/history
// when detection is on; jsentinel query reads it back) — then prints
// the final per-tenant accounting plus the incident report. A clean
// signal never loses an accepted event. --retain-events/
// --retain-history cap the sealed segment counts at drain, events
// compacting before history so raw data never outlives its summary
// tier the wrong way around.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/auth"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/evstore"
	"repro/internal/histstore"
	"repro/internal/ingest"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	tenantsFlag := flag.String("tenants", "", "comma-separated name=secret tenant declarations (required)")
	mint := flag.String("mint", "", "print the bearer token for this tenant and exit")
	storePath := flag.String("store", "", "record accepted events to this event-store directory (replayable with jsentinel --replay); a path ending in .jsonl records a flat JSONL file with no history")
	detect := flag.Bool("detect", true, "run the detection engine live and print the incident report on shutdown")
	policy := flag.String("policy", "block", "default backpressure policy: block (lossless) or drop (shed newest, counted)")
	tenantPolicy := flag.String("tenant-policy", "", "per-tenant policy overrides, e.g. acme=drop,globex=block")
	rate := flag.Float64("rate", 0, "per-tenant event quota in events/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "quota burst size (default max(1, rate))")
	maxConns := flag.Int("max-conns", 4096, "max concurrently admitted connections across all tenants")
	queue := flag.Int("queue", 1024, "per-tenant queue depth")
	topK := flag.Int("top", 10, "incidents to list in the shutdown report")
	history := flag.String("history", "", "record alert/incident history here for jsentinel query (defaults to <store>/history when --store is a store directory and --detect is on; \"none\" disables)")
	retainEvents := flag.Int("retain-events", -1, "at drain, keep at most this many sealed event segments (-1 = keep all)")
	retainHistory := flag.Int("retain-history", -1, "at drain, keep at most this many sealed history segments (-1 = keep all); events always compact first")
	flag.Parse()

	keyring, err := parseTenants(*tenantsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jingestd: %v\n", err)
		os.Exit(2)
	}
	if *mint != "" {
		tok, ok := keyring.Mint(*mint)
		if !ok {
			fmt.Fprintf(os.Stderr, "jingestd: unknown tenant %q\n", *mint)
			os.Exit(2)
		}
		fmt.Println(tok)
		return
	}

	cfg := ingest.Config{
		Keyring:  keyring,
		MaxConns: *maxConns,
		Queue:    *queue,
		Rate:     *rate,
		Burst:    *burst,
	}
	if cfg.Policy, err = parsePolicy(*policy); err != nil {
		fmt.Fprintf(os.Stderr, "jingestd: %v\n", err)
		os.Exit(2)
	}
	if cfg.TenantPolicy, err = parseTenantPolicies(*tenantPolicy, keyring); err != nil {
		fmt.Fprintf(os.Stderr, "jingestd: %v\n", err)
		os.Exit(2)
	}

	// The sink fan-out: live engine, durable store, either, or both.
	// The store and its history append across restarts; without
	// detection there is nothing to record in a history.
	hist := *history
	if !*detect {
		hist = "none"
	}
	rec, err := cliutil.Open("jingestd", *storePath, hist, evstore.SinkAppend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jingestd: %v\n", err)
		os.Exit(1)
	}
	var sinks []trace.Sink
	var eng *core.Engine
	if *detect {
		engOpts := core.DefaultOptions()
		rec.Hook(&engOpts)
		if eng, err = core.NewEngine(engOpts); err != nil {
			fmt.Fprintf(os.Stderr, "jingestd: %v\n", err)
			os.Exit(1)
		}
		sinks = append(sinks, eng)
	}
	if rec.Events != nil {
		sinks = append(sinks, rec.Events)
	}

	svc := ingest.New(cfg, trace.Tee(sinks...))
	bound, err := svc.Start(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jingestd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("jingestd: ingest on http://%s (policy %s, %d tenants)\n",
		bound, cfg.Policy, len(keyring.Tenants()))
	for _, name := range keyring.Tenants() {
		tok, _ := keyring.Mint(name)
		fmt.Printf("jingestd: tenant %-16s token %s\n", name, tok)
	}
	fmt.Println("jingestd: POST /ingest or stream /ingest/ws; /stats for counters; Ctrl-C to drain")

	ctx, stop := cliutil.SignalContext()
	defer stop()
	<-ctx.Done()
	fmt.Println("\njingestd: draining")
	svc.Drain()

	fmt.Print(svc.Stats().RenderTenantTable())
	if err := rec.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "jingestd: %v\n", err)
		os.Exit(1)
	}
	// Tiered retention runs after both stores have sealed, so the
	// active segments count toward the kept tally. Events compact
	// first, history last: as long as an event segment survives its
	// history can be re-derived, never the other way around.
	if *retainEvents >= 0 || *retainHistory >= 0 {
		var eventStore *evstore.Store
		var histStore *histstore.Store
		if rec.Events != nil {
			eventStore = rec.Events.Store
		}
		if rec.History != nil {
			histStore = rec.History.Store()
		}
		res, err := histstore.ApplyTieredRetention(eventStore, histStore, *retainEvents, *retainHistory)
		if err != nil {
			fmt.Fprintf(os.Stderr, "jingestd: retention: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("jingestd: retention dropped %d event segments, %d history segments\n",
			res.EventSegmentsDropped, res.HistorySegmentsDropped)
	}
	if eng != nil {
		fmt.Print(eng.Report(time.Now()).Render())
		fmt.Print(core.RenderTopIncidents(eng.Incidents(), *topK))
	}
}

func parseTenants(spec string) (*auth.Keyring, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("--tenants is required (name=secret[,name=secret...])")
	}
	kr := auth.NewKeyring()
	for _, pair := range strings.Split(spec, ",") {
		name, secret, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant declaration %q: want name=secret", pair)
		}
		if err := kr.AddTenant(name, []byte(secret)); err != nil {
			return nil, err
		}
	}
	return kr, nil
}

func parsePolicy(s string) (trace.DropPolicy, error) {
	switch s {
	case "block":
		return trace.Block, nil
	case "drop":
		return trace.DropNewest, nil
	}
	return trace.Block, fmt.Errorf("bad policy %q: want block or drop", s)
}

func parseTenantPolicies(spec string, kr *auth.Keyring) (map[string]trace.DropPolicy, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	declared := map[string]bool{}
	for _, name := range kr.Tenants() {
		declared[name] = true
	}
	out := map[string]trace.DropPolicy{}
	for _, pair := range strings.Split(spec, ",") {
		name, pol, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant policy %q: want name=block|drop", pair)
		}
		// An override for an undeclared tenant is a configuration typo
		// worth failing fast on.
		if !declared[name] {
			return nil, fmt.Errorf("tenant policy for undeclared tenant %q", name)
		}
		p, err := parsePolicy(pol)
		if err != nil {
			return nil, err
		}
		out[name] = p
	}
	return out, nil
}
