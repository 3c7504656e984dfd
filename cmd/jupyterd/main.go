// Command jupyterd runs the simulated Jupyter server.
//
// By default it boots the hardened configuration and prints the token.
// The --sloppy flag boots the exposed archetype (auth off, terminals
// on, wildcard CORS) used for attack demonstrations and honeypots.
//
// Trace events stream to --log: an event-store directory by default
// (segmented, indexed, replayable with jsentinel --replay DIR and its
// filters), or a legacy flat JSONL file when the path ends in .jsonl.
// Store segments use the compact binary-v2 codec; readers dispatch per
// segment, so a log an older build started in v1 JSON frames replays
// identically after a restart appends v2 segments to it.
// On SIGINT or SIGTERM the server shuts down cleanly and flushes the
// log's buffered writes before exiting — a signal never tears the
// recording's tail.
//
// Kernels execute minilang on the bytecode VM.
//
//	jupyterd --addr 127.0.0.1:8888
//	jupyterd --sloppy --log ./events-store
//	jupyterd --sloppy --log events.jsonl
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"

	"repro/internal/auth"
	"repro/internal/cliutil"
	"repro/internal/evstore"
	"repro/internal/misconfig"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	sloppy := flag.Bool("sloppy", false, "run with every misconfiguration (demo/honeypot mode)")
	token := flag.String("token", "", "bearer token (generated if empty)")
	logPath := flag.String("log", "", "record trace events here: an event-store directory, or JSONL when the path ends in .jsonl")
	terminals := flag.Bool("terminals", false, "enable terminals on hardened config")
	scan := flag.Bool("scan", false, "print misconfiguration scan of the chosen config and exit")
	flag.Parse()

	var cfg server.Config
	if *sloppy {
		cfg = server.SloppyConfig()
	} else {
		tok := *token
		if tok == "" {
			tok = auth.GenerateToken()
		}
		cfg = server.HardenedConfig(tok)
		cfg.EnableTerminals = *terminals
	}
	host, portStr, err := net.SplitHostPort(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jupyterd: bad --addr: %v\n", err)
		os.Exit(2)
	}
	cfg.BindAddress = host
	cfg.Port, _ = strconv.Atoi(portStr)

	if *scan {
		fmt.Print(misconfig.Render(misconfig.Scan(cfg)))
		return
	}

	srv := server.NewServer(cfg)
	// A server log legitimately spans restarts, so it appends (and
	// says so). The server runs no detection, so there is no history.
	rec, err := cliutil.Open("jupyterd", *logPath, "none", evstore.SinkAppend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jupyterd: %v\n", err)
		os.Exit(1)
	}
	if rec.Events != nil {
		srv.Bus().Subscribe(rec.Events)
	}

	bound, err := srv.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jupyterd: %v\n", err)
		os.Exit(1)
	}
	mode := "hardened"
	if *sloppy {
		mode = "SLOPPY (deliberately misconfigured)"
	}
	fmt.Printf("jupyterd: serving on http://%s (%s)\n", bound, mode)
	if !cfg.Auth.DisableAuth {
		fmt.Printf("jupyterd: token: %s\n", cfg.Auth.Token)
		fmt.Printf("jupyterd: try: curl -H 'Authorization: token %s' http://%s/api/status\n",
			cfg.Auth.Token, bound)
	} else {
		fmt.Printf("jupyterd: auth DISABLED — findings:\n%s",
			indent(misconfig.Render(misconfig.Scan(cfg))))
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()
	<-ctx.Done()
	fmt.Println("\njupyterd: shutting down")
	_ = srv.Close()
	// Close flushes the log's buffered writes and returns the first
	// write error, so a torn log never exits 0.
	if err := rec.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "jupyterd: %v\n", err)
		os.Exit(1)
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ") + "\n"
}
