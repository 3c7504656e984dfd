// Package honeypot implements the paper's edge-deployment strategy:
// decoy Jupyter servers that record every interaction, fingerprint
// attackers, extract signatures from observed payloads, and publish
// threat-intel bundles that production monitors consume — "catch the
// latest signatures of attacks in the wild before they reach the
// actual Jupyter Notebooks instances deployed in supercomputers."
//
// A honeypot is a real (simulated) Jupyter server run deliberately
// sloppy: auth open, terminals on, baited notebooks in place. Because
// it serves no legitimate users, *everything* it sees is hostile.
package honeypot

import (
	"fmt"
	"regexp"
	"sort"
	"sync"
	"time"

	"repro/internal/nbformat"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/threatintel"
	"repro/internal/trace"
)

// Interaction is one recorded attacker action.
type Interaction struct {
	Time   time.Time
	SrcIP  string
	Kind   trace.Kind
	Method string
	Path   string
	Code   string
	Detail string
}

// Fingerprint summarizes one attacker source.
type Fingerprint struct {
	SrcIP        string
	FirstSeen    time.Time
	LastSeen     time.Time
	Requests     int
	Executions   int
	TermCommands int
	Classes      map[string]int // taxonomy class -> alert count
}

// Honeypot is a decoy server plus its recorder.
type Honeypot struct {
	ID     string
	Server *server.Server
	Addr   string

	mu           sync.Mutex
	interactions []Interaction
	fingerprints map[string]*Fingerprint
	userIP       map[string]string // user -> last source IP
	lastIP       string
	engine       engine
	clock        trace.Clock
}

// engine abstracts the detection engine used for classification so the
// honeypot package does not depend on core (avoiding a cycle for users
// who embed both).
type engine interface {
	Process(trace.Event) []rules.Alert
}

// Config tunes honeypot construction.
type Config struct {
	ID    string
	Clock trace.Clock
	// Engine classifies observed events (usually rules.NewEngine with
	// the builtin set). Required.
	Engine interface {
		Process(trace.Event) []rules.Alert
	}
}

// New boots a honeypot on an ephemeral loopback port with bait content
// installed.
func New(cfg Config) (*Honeypot, error) {
	if cfg.Engine == nil {
		eng, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			return nil, err
		}
		cfg.Engine = eng
	}
	if cfg.Clock == nil {
		cfg.Clock = trace.RealClock{}
	}
	if cfg.ID == "" {
		cfg.ID = "honeypot-1"
	}
	srv := server.NewServer(server.SloppyConfig(), server.WithClock(cfg.Clock))
	hp := &Honeypot{
		ID: cfg.ID, Server: srv,
		fingerprints: map[string]*Fingerprint{},
		userIP:       map[string]string{},
		engine:       cfg.Engine,
		clock:        cfg.Clock,
	}
	srv.Bus().Subscribe(trace.SinkFunc(hp.observe))
	if err := hp.installBait(); err != nil {
		return nil, err
	}
	addr, err := srv.Start()
	if err != nil {
		return nil, err
	}
	hp.Addr = addr
	return hp, nil
}

// Close stops the decoy server.
func (hp *Honeypot) Close() error {
	return hp.Server.Close()
}

// installBait seeds believable research artifacts: the lure for
// ransomware and exfiltration actors.
func (hp *Honeypot) installBait() error {
	nb := nbformat.New()
	nb.AppendMarkdown("md-1", "# Protein folding training run\nInternal — do not distribute.")
	nb.AppendCode("code-1", `data = read_file("data/sequences.csv")
print("rows", len(split(data, "\n")))`)
	nbJSON, err := nb.Marshal()
	if err != nil {
		return err
	}
	files := map[string]string{
		"notebooks/train_model.ipynb": string(nbJSON),
		"data/sequences.csv":          "id,sequence\n1,MKTAYIAKQR\n2,GADVNVKKVL\n",
		"models/checkpoint_7b.bin":    "SIMULATED-WEIGHTS-" + repeat("wb", 2048),
		"secrets/.aws_credentials":    "[default]\naws_access_key_id=AKIA-SIMULATED\n",
	}
	for p, content := range files {
		if err := hp.Server.FS.Write(p, "bait", []byte(content)); err != nil {
			return err
		}
	}
	return nil
}

func repeat(s string, n int) string {
	out := make([]byte, 0, len(s)*n)
	for i := 0; i < n; i++ {
		out = append(out, s...)
	}
	return string(out)
}

// observe records every event and classifies it.
func (hp *Honeypot) observe(e trace.Event) {
	alerts := hp.engine.Process(e)
	hp.mu.Lock()
	defer hp.mu.Unlock()
	if e.SrcIP != "" || e.Kind == trace.KindExec || e.Kind == trace.KindTermCmd {
		hp.interactions = append(hp.interactions, Interaction{
			Time: e.Time, SrcIP: e.SrcIP, Kind: e.Kind,
			Method: e.Method, Path: e.Path, Code: e.Code, Detail: e.Detail,
		})
	}
	// Kernel-side events (exec, file ops) carry no transport address;
	// attribute them to the user's last-seen source, falling back to
	// the most recent source on the decoy (a honeypot serves no
	// legitimate traffic, so the attribution is sound).
	ip := e.SrcIP
	if ip != "" {
		hp.lastIP = ip
		if e.User != "" {
			hp.userIP[e.User] = ip
		}
	} else {
		if e.User != "" {
			ip = hp.userIP[e.User]
		}
		if ip == "" {
			ip = hp.lastIP
		}
	}
	if ip == "" {
		return
	}
	fp := hp.fingerprints[ip]
	if fp == nil {
		fp = &Fingerprint{SrcIP: ip, FirstSeen: e.Time, Classes: map[string]int{}}
		hp.fingerprints[ip] = fp
	}
	fp.LastSeen = e.Time
	switch e.Kind {
	case trace.KindHTTP:
		fp.Requests++
	case trace.KindExec:
		fp.Executions++
	case trace.KindTermCmd:
		fp.TermCommands++
	}
	for _, a := range alerts {
		fp.Classes[a.Class]++
	}
}

// Interactions returns the recorded interaction stream.
func (hp *Honeypot) Interactions() []Interaction {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	out := make([]Interaction, len(hp.interactions))
	copy(out, hp.interactions)
	return out
}

// Fingerprints returns attacker fingerprints sorted by source IP.
func (hp *Honeypot) Fingerprints() []Fingerprint {
	hp.mu.Lock()
	defer hp.mu.Unlock()
	out := make([]Fingerprint, 0, len(hp.fingerprints))
	for _, fp := range hp.fingerprints {
		cp := *fp
		cp.Classes = map[string]int{}
		for k, v := range fp.Classes {
			cp.Classes[k] = v
		}
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SrcIP < out[j].SrcIP })
	return out
}

// signatureCandidate captures a code payload worth generalizing.
var minerPattern = regexp.MustCompile(`(?i)(stratum\+tcp://[^\s"']+|xmrig|minerd)`)

// ExtractSignatures mines recorded interactions for payload-derived
// signatures: exact payload hashes always; literal pattern rules for
// recognizable tool strings. Returned rules carry ids namespaced by
// honeypot so merges stay idempotent.
func (hp *Honeypot) ExtractSignatures() []*rules.Rule {
	hp.mu.Lock()
	interactions := make([]Interaction, len(hp.interactions))
	copy(interactions, hp.interactions)
	hp.mu.Unlock()

	var out []*rules.Rule
	seen := map[string]bool{}
	for _, it := range interactions {
		if it.Code == "" {
			continue
		}
		if m := minerPattern.FindString(it.Code); m != "" && !seen["miner:"+m] {
			seen["miner:"+m] = true
			out = append(out, &rules.Rule{
				ID:          fmt.Sprintf("%s-sig-miner-%d", hp.ID, len(out)+1),
				Description: fmt.Sprintf("honeypot-extracted miner indicator %q", m),
				Class:       rules.ClassCryptomining,
				Severity:    rules.SevCritical,
				Conditions: []rules.Condition{
					{Field: "kind", Equals: "exec"},
					{Field: "code", Contains: m},
				},
			})
		}
		hash := threatintel.HashPayload([]byte(it.Code))
		if !seen["hash:"+hash] {
			seen["hash:"+hash] = true
			out = append(out, &rules.Rule{
				ID:          fmt.Sprintf("%s-sig-payload-%s", hp.ID, hash[:12]),
				Description: "honeypot-observed payload (exact match)",
				Class:       rules.ClassZeroDay,
				Severity:    rules.SevHigh,
				Conditions: []rules.Condition{
					{Field: "kind", Equals: "exec"},
					{Field: "code", Equals: it.Code},
				},
			})
		}
	}
	return out
}

// PublishIntel exports a threat-intel bundle: attacker IPs with
// confidence scaled by activity, payload hashes, and extracted rules.
func (hp *Honeypot) PublishIntel(now time.Time) *threatintel.Bundle {
	store := threatintel.NewStore()
	for _, fp := range hp.Fingerprints() {
		conf := 0.5
		if fp.Executions > 0 || fp.TermCommands > 0 {
			conf = 0.9 // touched a decoy kernel/terminal: certainly hostile
		} else if fp.Requests >= 5 {
			conf = 0.75
		}
		topClass := ""
		topCount := 0
		for c, n := range fp.Classes {
			if n > topCount {
				topClass, topCount = c, n
			}
		}
		store.Observe(threatintel.Indicator{
			Type: threatintel.TypeSourceIP, Value: fp.SrcIP,
			Class: topClass, Confidence: conf,
			FirstSeen: fp.FirstSeen, LastSeen: fp.LastSeen,
			Sightings: fp.Requests + fp.Executions + fp.TermCommands,
			Source:    hp.ID, TTL: 24 * time.Hour,
		})
	}
	for _, it := range hp.Interactions() {
		if it.Code == "" {
			continue
		}
		store.Observe(threatintel.Indicator{
			Type: threatintel.TypePayloadHash, Value: threatintel.HashPayload([]byte(it.Code)),
			Class: "", Confidence: 0.8,
			FirstSeen: it.Time, LastSeen: it.Time, Sightings: 1,
			Source: hp.ID, TTL: 7 * 24 * time.Hour,
		})
	}
	for _, r := range hp.ExtractSignatures() {
		_ = store.AddRule(r)
	}
	return store.Export(hp.ID, now)
}

// Fleet coordinates several honeypots feeding one intel store.
type Fleet struct {
	Honeypots []*Honeypot
	Store     *threatintel.Store
}

// NewFleet boots n honeypots.
func NewFleet(n int, clock trace.Clock) (*Fleet, error) {
	f := &Fleet{Store: threatintel.NewStore()}
	for i := 0; i < n; i++ {
		eng, err := rules.NewEngine(rules.BuiltinRules())
		if err != nil {
			return nil, err
		}
		hp, err := New(Config{ID: fmt.Sprintf("edge-hp-%d", i+1), Clock: clock, Engine: eng})
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Honeypots = append(f.Honeypots, hp)
	}
	return f, nil
}

// Collect pulls every honeypot's intel into the fleet store,
// returning totals of new indicators and rules.
func (f *Fleet) Collect(now time.Time) (indicators, sigs int) {
	for _, hp := range f.Honeypots {
		ni, nr := f.Store.Merge(hp.PublishIntel(now))
		indicators += ni
		sigs += nr
	}
	return indicators, sigs
}

// Close stops all honeypots.
func (f *Fleet) Close() {
	for _, hp := range f.Honeypots {
		_ = hp.Close()
	}
}
