// Command aromad is the Aroma simulation daemon: a resident process
// hosting many concurrent simulated worlds behind a JSON HTTP API.
//
// Each world is a registered scenario built to time zero and then
// driven over HTTP — step by step, for a duration, or to its horizon —
// with live trace streaming over SSE. Worlds can be checkpointed into
// the daemon's snapshot store, and snapshots restored or forked
// (restored + reseeded) into new worlds; a downloaded snapshot restores
// in-process to the bit-identical world. See internal/daemon for the
// API table and pkg/aroma/client for the Go client.
//
// Usage:
//
//	aromad [-addr host:port] [-supervise N]
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: in-flight requests
// get a grace period, every hosted world's command loop stops.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aroma/internal/daemon"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios" // populate the scenario registry
)

// Server timeouts. ReadHeaderTimeout bounds how long a client may take
// to send request headers, so a stalled connection cannot hold a
// goroutine forever; IdleTimeout closes keep-alive connections that
// carry no request.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7433", "listen address")
	supervise := flag.Int("supervise", 0, "self-healing restart budget per world: resurrect a failed world from its most recent snapshot up to N times (0 = failures are terminal)")
	chaos := flag.Bool("chaos", false, "register the chaosbomb drill scenario (panics out of a kernel event at t=10s) for exercising panic isolation and supervised recovery")
	flag.Parse()

	if *chaos {
		registerChaosBomb()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := daemon.New(daemon.WithSupervisor(*supervise))
	// WriteTimeout stays unset: it would cut off the long-lived SSE
	// event streams and long run requests mid-response.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "aromad: listening on http://%s\n", *addr)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "aromad:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	shutdown(hs, srv)
}

// registerChaosBomb adds the chaos drill to this process's scenario
// registry: a world that panics out of a kernel event mid-run. Gated
// behind -chaos so ordinary daemons never host it by accident; CI's
// chaos smoke drives the panic-isolation and supervisor-resurrection
// paths through it over plain HTTP.
func registerChaosBomb() {
	scenario.RegisterWorld("chaosbomb", "chaos drill: panics out of a kernel event at t=10s",
		func(cfg scenario.Config) (*scenario.Built, error) {
			w := aroma.NewWorld(aroma.WithName("chaos"), aroma.WithSeed(cfg.SeedOr(1)))
			w.AddDevice("dev", aroma.Pt(1, 1), aroma.WithSpec(aroma.AdapterSpec()))
			w.Schedule(10*aroma.Second, "chaos.detonate", func() {
				panic("chaosbomb: injected drill failure")
			})
			return &scenario.Built{World: w, Horizon: cfg.HorizonOr(30 * aroma.Second)}, nil
		})
}

func shutdown(hs *http.Server, srv *daemon.Server) {
	fmt.Fprintln(os.Stderr, "aromad: shutting down")
	// Close the worlds first: that ends every SSE stream (they select on
	// the world's quit channel), so Shutdown is not held open by
	// long-lived streaming connections.
	srv.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "aromad: shutdown:", err)
	}
}
