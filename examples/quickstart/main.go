// Quickstart: boot a monitored Jupyter server, execute a notebook cell
// over the real protocol stack (REST + WebSocket + kernel messaging),
// and print what the network monitor and detection engine saw.
//
// This is the end-to-end tour of the system: the Fig. 2 message flow
// on the wire, the visibility ladder, and a first alert.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netmon"
	"repro/internal/server"
)

func main() {
	// 1. A hardened server behind a network tap.
	cfg := server.HardenedConfig("quickstart-token")
	srv := server.NewServer(cfg)
	mon := netmon.NewMonitor(netmon.FullVisibility(), srv.Bus())
	eng := core.MustEngine()
	srv.Bus().Subscribe(eng) // detection runs on wire- and host-derived events

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Serve(mon.WrapListener(ln))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server up on %s\n\n", addr)

	// 2. A researcher session: write a notebook, start a kernel,
	// execute a cell over the WebSocket channel.
	c := client.New(addr, "quickstart-token")
	if err := c.PutFile("data/results.csv", "epoch,loss\n1,0.9\n2,0.4\n3,0.2\n"); err != nil {
		log.Fatal(err)
	}
	k, err := c.StartKernel("minilang")
	if err != nil {
		log.Fatal(err)
	}
	kc, err := c.ConnectKernel(k.ID, "alice")
	if err != nil {
		log.Fatal(err)
	}
	defer kc.Close()

	res, err := kc.Execute(`rows = split(read_file("data/results.csv"), "\n")
print("epochs recorded:", len(rows) - 2)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cell executed: status=%s stdout=%q\n\n", res.Status, res.Stdout)

	// 3. The Fig. 2 message flow, as the client saw it.
	fmt.Println("kernel message flow (Fig. 2):")
	for _, m := range res.Messages {
		fmt.Printf("  %-8s <- %s\n", m.Channel, m.Header.MsgType)
	}

	// 4. What the passive network monitor decoded, layer by layer.
	time.Sleep(150 * time.Millisecond) // let analyzers drain
	vis := mon.Visibility()
	fmt.Printf("\nwire visibility ladder:\n")
	fmt.Printf("  connections:       %d (%d bytes)\n", vis.Conns, vis.BytesTotal)
	fmt.Printf("  http requests:     %d\n", vis.HTTPRequests)
	fmt.Printf("  websocket frames:  %d\n", vis.WSFrames)
	fmt.Printf("  jupyter messages:  %d\n", vis.JupyterMessages)

	// 5. A hostile cell: the monitor sees the payload on the wire and
	// the engine classifies it.
	_, _ = kc.Execute(`pool = "stratum+tcp://pool.evil.example:4444"
print("worker xmrig-6.21 connecting to", pool)`)
	time.Sleep(150 * time.Millisecond)

	fmt.Println("\ndetection report after a miner payload:")
	fmt.Print(eng.Report(time.Now()).Render())
	for _, inc := range eng.Incidents() {
		fmt.Println("  " + inc.Summary())
	}
}
