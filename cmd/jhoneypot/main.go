// Command jhoneypot runs a decoy Jupyter server at the "network edge",
// records attacker interactions, and on shutdown prints fingerprints
// and writes the extracted threat-intel bundle.
//
//	jhoneypot --id edge-hp-1 --intel intel.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/honeypot"
)

func main() {
	id := flag.String("id", "edge-hp-1", "honeypot identifier (namespaces extracted signatures)")
	intelPath := flag.String("intel", "intel.json", "write the threat-intel bundle here on exit")
	flag.Parse()

	hp, err := honeypot.New(honeypot.Config{ID: *id})
	if err != nil {
		fmt.Fprintf(os.Stderr, "jhoneypot: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("jhoneypot: decoy %q listening on http://%s (deliberately open, baited)\n", *id, hp.Addr)
	fmt.Println("jhoneypot: Ctrl-C to stop and publish intel")

	ctx, stop := cliutil.SignalContext()
	defer stop()
	<-ctx.Done()
	_ = hp.Close()

	fps := hp.Fingerprints()
	fmt.Printf("\njhoneypot: %d interactions from %d sources\n", len(hp.Interactions()), len(fps))
	for _, fp := range fps {
		fmt.Printf("  %s: requests=%d execs=%d term=%d classes=%v\n",
			fp.SrcIP, fp.Requests, fp.Executions, fp.TermCommands, fp.Classes)
	}

	bundle := hp.PublishIntel(time.Now())
	data, err := bundle.Marshal()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jhoneypot: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*intelPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "jhoneypot: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("jhoneypot: wrote %d indicators and %d extracted signatures to %s\n",
		len(bundle.Indicators), len(bundle.Rules), *intelPath)
}
