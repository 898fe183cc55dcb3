// Command webiq-serve serves the simulated Deep Web over HTTP: browse
// the generated sources' query interfaces, submit probe searches against
// their backing tables, and view the unified interface WebIQ + matching
// produce per domain.
//
//	webiq-serve -addr :8080
//
// Then visit http://localhost:8080/ for the source index. Metrics are
// exposed in Prometheus text format at /metrics; passing -pprof mounts
// the net/http/pprof profiling handlers under /debug/pprof/. Passing
// -flight-dir enables the flight recorder: wide-event capture plus
// anomaly-triggered diagnostic bundles (inspect them with
// webiq-flight), controlled by -flight-window and -flight-triggers.
// Every request that fires a trigger also appends its wide event as one
// NDJSON line to events.ndjson in the flight directory (size-rotated),
// even when the dump debounce suppresses its bundle; for a slow-request
// log, run with -flight-dir D -flight-triggers slow=250ms.
//
// Every node holds the whole world and answers every route itself. To
// run replicas, boot each node from the same -snapshot file and put a
// load balancer in front that health-checks /readyz; the nodes share
// nothing and never talk to each other.
//
// On SIGINT or SIGTERM the server flips /readyz to 503, stops accepting
// connections and drains in-flight requests for up to the -drain
// duration before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"webiq/internal/obs"
	"webiq/internal/resilience"
	"webiq/internal/server"
	"webiq/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("webiq-serve: ")

	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "random seed for all generators")
	snapPath := flag.String("snapshot", "", "boot from a webiq-snapshot world file instead of building the world at startup (the file's seed overrides -seed)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	drain := flag.Duration("drain", 10*time.Second, "how long to wait for in-flight requests on shutdown")
	faults := flag.String("faults", "", "inject the named fault profile (p10, p30, latency2x, burst, malformed) into the request-time source probes of /source/{ifc}/search and the /unified/{domain}/search fan-out; a probe that still fails after retries answers 503 or is listed as unavailable")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault-injection stream")
	maxInflight := flag.Int("max-inflight", 0, "bound concurrent requests (admission control); 0 disables")
	queue := flag.Int("queue", 16, "requests allowed to wait for an admission slot before shedding with 503")
	traceRetention := flag.Int("trace-retention", obs.DefTraceRetention, "per-trace FIFO store capacity for /trace/{id} lookups; 0 or negative disables the store")
	flightDir := flag.String("flight-dir", "", "enable the flight recorder: write anomaly-triggered diagnostic bundles, and the wide event of every triggering request to events.ndjson, in this directory")
	flightWindow := flag.Duration("flight-window", obs.DefFlightWindow, "how much recent wide-event history a diagnostic bundle includes")
	flightTriggers := flag.String("flight-triggers", "", "trigger rules for automatic bundles: comma-separated 5xx, slow=DUR, breaker, shed, p99=DUR[:MINCOUNT], debounce=DUR; empty means the defaults, 'none' disables (manual /debug/flight/snapshot only)")
	flag.Parse()

	var opts []server.Option
	if *faults != "" {
		prof, err := resilience.ProfileByName(*faults)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, server.WithFaultProfile(prof, *faultSeed))
		log.Printf("fault injection on: profile %s, seed %d", prof.Name, *faultSeed)
	}
	if *maxInflight > 0 {
		opts = append(opts, server.WithAdmission(server.AdmissionConfig{
			MaxInFlight: *maxInflight,
			MaxQueued:   *queue,
		}))
		log.Printf("admission control on: %d in flight, %d queued", *maxInflight, *queue)
	}
	if *traceRetention != obs.DefTraceRetention {
		opts = append(opts, server.WithTraceRetention(*traceRetention))
		log.Printf("trace retention: %d traces", *traceRetention)
	}
	if *flightDir != "" {
		triggers, err := obs.ParseTriggers(*flightTriggers)
		if err != nil {
			log.Fatal(err)
		}
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			log.Fatal(err)
		}
		opts = append(opts, server.WithFlightRecorder(obs.FlightOptions{
			Dir:      *flightDir,
			Window:   *flightWindow,
			Triggers: triggers,
		}))
		log.Printf("flight recorder on: bundles in %s, triggers %s, window %v", *flightDir, triggers, *flightWindow)
	}

	start := time.Now()
	var srv *server.Server
	if *snapPath != "" {
		world, err := snapshot.Load(*snapPath)
		if err != nil {
			log.Fatal(err)
		}
		srv, err = server.NewFromSnapshot(world, opts...)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded snapshot %s (seed %d, scale %g, %d domains) in %v; all domains ready",
			*snapPath, world.Meta.Seed, world.Meta.Scale, len(world.Meta.Domains),
			time.Since(start).Round(time.Millisecond))
	} else {
		var err error
		srv, err = server.New(*seed, opts...)
		if err != nil {
			log.Fatal(err)
		}
	}
	srv.RecordStartup(time.Since(start))
	defer srv.Close()

	var handler http.Handler = srv
	if *pprofFlag {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", srv)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	log.Printf("substrates ready in %v; listening on %s", time.Since(start).Round(time.Millisecond), *addr)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills us
		log.Printf("signal received; draining for up to %v", *drain)
		// Flip /readyz to 503 and shed new arrivals before closing
		// listeners, so load balancers see us leave the rotation while
		// in-flight and queued requests finish inside the drain window.
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
		log.Printf("bye")
	}
}
