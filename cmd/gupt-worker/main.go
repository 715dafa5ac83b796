// Command gupt-worker is the per-node client component of GUPT's
// computation manager: it executes single data blocks inside local
// isolation chambers on behalf of a guptd server. Run one per cluster node
// and list their addresses in guptd's -workers flag.
//
// Usage:
//
//	gupt-worker -listen 127.0.0.1:7201
//	guptd ... -workers 127.0.0.1:7201,127.0.0.1:7202
package main

import (
	"flag"
	"log"
	"net"
	"net/http"

	"gupt/internal/compman"
	"gupt/internal/telemetry"
)

func main() {
	log.SetPrefix("gupt-worker: ")
	log.SetFlags(log.LstdFlags)

	var (
		listen     = flag.String("listen", "127.0.0.1:7201", "address to listen on")
		adminAddr  = flag.String("admin-addr", "", "operator admin HTTP endpoint (/metrics, /healthz, /debug/pprof); empty disables")
		adminToken = flag.String("admin-token", "", "shared secret gating the admin HTTP endpoint (all routes except /healthz); empty leaves it open")
	)
	flag.Parse()

	tel := telemetry.NewRegistry()
	w := compman.NewWorker(compman.WorkerConfig{
		Logger:    log.Default(),
		Telemetry: tel,
	})

	// The worker's own admin plane: chamber counters and its per-stage
	// span histograms (bucketed, like every telemetry export). Operator-
	// facing only — bind to loopback or an ops network.
	if *adminAddr != "" {
		al, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		handler := telemetry.AdminHandler(telemetry.AdminConfig{
			Registry: tel,
			Health:   func() error { return nil },
			Token:    *adminToken,
		})
		go func() {
			if err := http.Serve(al, handler); err != nil {
				log.Printf("admin server: %v", err)
			}
		}()
		log.Printf("admin endpoint on http://%s (/metrics /healthz /debug/pprof/)", al.Addr())
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("executing blocks on %s", l.Addr())
	if err := w.Serve(l); err != nil {
		log.Fatal(err)
	}
}
