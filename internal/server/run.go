package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	dq "repro"
)

// Flags are the listener and lifecycle flags every server binary shares.
type Flags struct {
	Addr       string        // TCP listen address
	AddrFile   string        // file the bound address is written to ("" = none)
	MaxConns   int           // concurrent connection cap
	Metrics    string        // HTTP address of /metrics and /debug/flightrecorder ("" = off)
	FlightDump time.Duration // flight-dump rate limit (0 = no automatic dumps)
	Drain      time.Duration // graceful drain window on SIGTERM
}

// Define registers the shared flags on fs; addr is the binary's default
// listen address.
func (f *Flags) Define(fs *flag.FlagSet, addr string) {
	fs.StringVar(&f.Addr, "addr", addr, "TCP listen address (use :0 with -addr-file for an ephemeral port)")
	fs.StringVar(&f.AddrFile, "addr-file", "", "write the bound listen address to this file once listening")
	fs.IntVar(&f.MaxConns, "maxconns", 64, "concurrent connection cap (front-end handles are pooled up to this)")
	fs.StringVar(&f.Metrics, "metrics", "", "serve Prometheus /metrics and /debug/flightrecorder on this HTTP address (empty disables)")
	fs.DurationVar(&f.FlightDump, "flight-dump", 0, "auto-dump the flight recorder to stderr on watchdog/announce distress, rate-limited to one dump per this interval (0 disables)")
	fs.DurationVar(&f.Drain, "drain-timeout", 5*time.Second, "graceful drain window on SIGTERM before in-flight ops are cancelled")
}

// Run is a server binary's life after flag parsing: listen on f.Addr
// (writing the bound address to f.AddrFile), arm the flight dump, serve
// the metrics endpoint, print "<banner> on <addr>" on stdout as the
// readiness line, and serve until SIGINT/SIGTERM. A signal starts a
// graceful drain; after f.Drain in-flight operations are cancelled. A
// final Prometheus snapshot goes to stderr. Returns the exit code.
func (e *Engine) Run(f Flags, banner string) int {
	name := e.cfg.Name
	ln, err := net.Listen("tcp", f.Addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		return 1
	}
	if f.AddrFile != "" {
		if err := os.WriteFile(f.AddrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			return 1
		}
	}
	if f.FlightDump > 0 {
		e.cfg.Pool.SetFlightDump(os.Stderr, f.FlightDump)
	}

	// Optional scrape endpoint: a fresh pool-merged snapshot per request.
	var msrv *http.Server
	if f.Metrics != "" {
		msrv = &http.Server{Addr: f.Metrics, Handler: e.handler()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, name+": metrics server:", err)
			}
		}()
	}

	fmt.Printf("%s on %s\n", banner, ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- e.Serve(ln) }()

	exit := 0
	select {
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		fmt.Fprintf(os.Stderr, "%s: draining (up to %s)\n", name, f.Drain)
		sctx, cancel := context.WithTimeout(context.Background(), f.Drain)
		if err := e.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, name+": hard stop after drain timeout:", err)
		}
		cancel()
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			exit = 1
		}
	}
	if msrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		msrv.Shutdown(sctx)
		cancel()
	}

	fmt.Fprintln(os.Stderr, name+": final metrics snapshot")
	if err := e.writeProm(os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
	}
	return exit
}

// handler serves /metrics (the pool's series, the merged latency
// histograms and the front-end's own block) and
// /debug/flightrecorder (JSON {"total", "records"} from the pool's
// flight recorders).
func (e *Engine) handler() http.Handler {
	name := e.cfg.Name
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := e.writeProm(rw, e.latencySnapshot()); err != nil {
			fmt.Fprintln(os.Stderr, name+": write /metrics:", err)
		}
	})
	mux.HandleFunc("/debug/flightrecorder", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{
			"total":   e.cfg.Pool.FlightTotal(),
			"records": e.cfg.Pool.FlightRecords(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, name+": write /debug/flightrecorder:", err)
		}
	})
	return mux
}

// writeProm writes the pool's Prometheus series, then the latency
// histograms when lat is non-nil, then the front-end's own block.
func (e *Engine) writeProm(w io.Writer, lat *dq.LatSnapshotSet) error {
	if err := dq.WriteMetricsProm(w, e.cfg.Name, e.cfg.Pool.Metrics()); err != nil {
		return err
	}
	if lat != nil {
		if err := dq.WriteLatMetricsProm(w, e.cfg.Name, lat); err != nil {
			return err
		}
	}
	if e.cfg.WriteProm != nil {
		return e.cfg.WriteProm(w)
	}
	return nil
}
