// Package repro is JupyterGuard: a Go reproduction of "Jupyter
// Notebook Attacks Taxonomy: Ransomware, Data Exfiltration, and
// Security Misconfiguration" (Cao, SC'24 workshops).
//
// The repository implements the simulated Jupyter server substrate
// (REST + WebSocket + kernel messaging protocol), attack drivers for
// every taxonomy class, and the monitoring/auditing tooling the paper
// proposes: a Zeek-like network monitor, an embedded kernel auditor,
// edge honeypots with threat-intel sharing, a misconfiguration
// scanner, and a post-quantum audit-log signing scheme.
//
// The fleet subsystem (internal/fleet) reproduces the paper's
// wide-scan methodology at scale: it spawns a fleet of simulated
// servers whose configurations sample the misconfiguration taxonomy
// and sweeps them through a bounded, rate-limited worker pool with
// any set of pluggable scanner suites (internal/scan registry):
// config posture + live probe (misconfig), notebook deep scan of the
// target's filesystem (nbscan), quantum-threat crypto inventory
// (crypto), and threat-intel enrichment (intel). The census is
// deterministic — per-suite/severity/check histograms, worst targets
// — with streaming JSONL output and a versioned, signature-checked,
// resumable checkpoint (jscan --fleet N --suites ...). Every finding
// is also projected as a scan_finding trace event through a bounded
// stage into the full core detection engine, so a wide scan does not
// just alert through the live pipeline — it correlates per-target
// incidents and closes the census with an OSCRP risk summary, and
// its finding stream replays with jsentinel --replay.
//
// The detection substrate is a sharded streaming pipeline ("pipeline
// v2"): the trace.Bus stamps sequence numbers atomically and fans out
// over copy-on-write sink snapshots; a bounded trace.Stage decouples
// producers from slow consumers with explicit backpressure/drop
// accounting, keeps each actor's events in order on one worker's lane
// (the one actor-ordered fan-out: live taps and JSONL replay alike),
// and hands events over by pointer in batches that grow with its backlog
// (trace.BatchSink: one store lock per batch, single events when
// idle); and the rules.Engine indexes signatures by event kind,
// matches statelessly without locks, and shards threshold/sequence
// correlation state per group, so detection throughput scales with
// cores (jsentinel --workers N, BenchmarkEngineParallel). The core
// engine follows the same contract end to end: anomaly detectors are
// instantiated per actor shard (anomaly.SuiteFactories) and incident
// correlation lives in actor-keyed shards with snapshot-time incident
// IDs, so N workers drive the full brain — signatures, detectors,
// incidents, OSCRP risk — and still produce the exact alert and
// incident sets of a serial run (BenchmarkCoreParallel,
// TestShardedCoreMatchesSerial). Replays shard the event stream by
// actor, which preserves per-group ordering and keeps parallel alert
// sets identical to serial ones for the builtin detectors (see
// DESIGN.md for the exact guarantee).
//
// Persistence is one segment log (internal/seglog) under two stores:
// an append-only directory of CRC-checked frames rotated into
// segments, each sealed by a sidecar index written only after its
// data, with torn-tail recovery, read-only opening and oldest-first
// compaction implemented — and fault-enumerated — once. The event
// store (internal/evstore) puts events in it, with a sidecar index
// (kinds, actors, sequence and time ranges) that lets jsentinel
// --replay DIR --since/--until/--kinds/--actor skip non-matching
// segments outright and feed the actor-sharded detection
// workers from per-segment readers in parallel — so replay throughput
// scales with cores instead of being capped by a whole-file JSONL
// load (go run ./bench --workload forensic_replay). Segments come in two wire versions:
// v1 frames carry JSON event payloads (CRC32-IEEE), v2 frames carry a
// compact tagged-binary encoding of trace.Event with a per-segment
// string-interning dictionary (CRC32-Castagnoli) whose frame header
// exposes kind and actor, so kind/actor-filtered replays discard
// non-matching frames after the CRC check without decoding their
// bodies. Writers (jscan --events, jupyterd --log, jingestd,
// jsentinel --log) write v2 only; readers dispatch on the per-segment
// magic, so stores holding v1 segments from older builds, alone or
// continued in v2, replay identically (JSON stays the interchange
// format: .jsonl paths still stream flat JSONL, and jdataset exports
// it). Compact enforces retention, and corrupt tails from crashed
// writers are truncated and surfaced on open, never silently replayed
// — identically for both versions, with exact tail-loss accounting.
// Replay decoding is arena-backed: each segment's strings land in an
// append-only per-segment arena (zero-copy string headers behind a
// tested unsafe wrapper), segment buffers recycle containers through
// a free list, and the hot rules-engine paths build state keys on
// the stack — a full-store binary replay performs O(segments), not
// O(events × string fields), heap allocations (see DESIGN.md "Replay
// memory model" for the borrow contract).
//
// On top of the event store sits the incident history
// (internal/histstore): every alert and incident snapshot the core
// engine emits (Options.OnAlert / OnIncidentUpdate) is persisted as a
// CRC-framed, schema-versioned record with per-segment sidecar
// indexes over severity, class, actor, and OSCRP risk band, so
// `jsentinel query` answers "which incidents reached high severity
// for actor X last week" from the indexes in well under a millisecond
// instead of re-running detection over the whole store
// (go run ./bench --workload incident_query; the rendered table is
// byte-identical to a full re-detection pass filtered the same way,
// TestHistoryQueryEqualsRedetection). Every incident-producing CLI records history next to its
// event store by default (<store>/history), read-only queries are
// safe under a live writer, and retention is tiered — raw events
// compact away first (evstore.Compact), derived incident history
// last (histstore.ApplyTieredRetention, jingestd --retain-*).
//
// The ingest front-end (internal/ingest, jingestd) runs that pipeline
// as a multi-tenant service: agents stream events over HTTP batches
// or wsproto WebSockets, each connection authenticated with a
// per-tenant HMAC-SHA256 token (auth.Keyring, compared via the
// length-independent auth.DigestEqual), admitted under a global
// connection cap and per-tenant trace.TokenBucket quotas, and routed
// through one bounded single-worker trace.Stage per tenant into the
// engine and/or an event store. Identity fields are namespaced
// "tenant/..." so actor keys never cross tenants — one slow or
// abusive tenant can never convoy the rest, the per-actor
// serial-equivalence contract survives any number of connections,
// and a recorded session replays to a byte-identical incident table
// (cli_test.go pins this through the real binaries). Backpressure is
// an explicit per-tenant policy (Block = lossless stalls, DropNewest
// = counted sheds; submitted == accepted + dropped + denied holds
// exactly, TestWSDropNewestBooksBalanceUnderLoad). JSONL lines on both transports
// (and in every other trace.Decoder consumer) are decoded by a
// hand-written parser that accepts only what it can prove equal to
// encoding/json — one allocation per event, strings cut from a copy
// of the event's own line — and declines everything else to
// json.Unmarshal, which stays as fallback and as the oracle of
// FuzzJSONEventDecode (BenchmarkJSONDecode pins the two side by
// side). SIGINT/SIGTERM triggers a
// drain, not a drop: stop admitting, empty every stage, flush and
// close the store — the daemons (jupyterd, jsentinel, jhoneypot,
// jscan, jingestd) all honor both signals.
//
// Kernel cells execute on a minilang bytecode VM
// (internal/kernel/minilang: compile.go, opt.go, vm.go): programs are
// lowered to a flat instruction stream with slot-resolved variables,
// constant folding, and fused superinstructions, giving ≈5–6x over
// the tree-walking interpreter on the loop-heavy programs attack
// payloads resemble (BenchmarkMinilangEngines in
// internal/kernel/minilang). The VM
// is the only engine kernels run. The interpreter lives in minilang's
// tests as the oracle of the standing differential fuzz harness
// (FuzzVMMatchesInterp): the two must agree down to host-call order,
// stdout bytes, error lines, and step-limit accounting, and the
// harness's seed corpus holds every attack payload the drivers send
// (written by internal/attacks' TestAttackPayloadFuzzSeeds), so every
// go test run compares the engines on the real payloads. The kernel
// manager caches parsed programs in a bounded LRU keyed by source hash
// (256 programs), shared across kernels, so repeated cells — the
// fleet-census shape — skip the parse and bytecode compilation
// entirely; hit/miss counters surface in kernel usage.
//
// README.md lists each paper claim with the command that reproduces
// it; DESIGN.md has the system inventory and each layer's contract
// ("Performance budget" has the per-hop cost of a live event). There
// is one benchmark system: bench/ (go run ./bench, contract in
// BENCHMARK.json), whose result each change commits as BENCH_<n>.json
// and cmd/jbenchjson diffs. The root bench_test.go keeps only the
// micro-benchmarks no workload supersedes — the paper experiments, the
// ablations and in-process speedup ratios — and CI runs each once.
package repro
