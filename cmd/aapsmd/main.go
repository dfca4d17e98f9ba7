// Command aapsmd serves the AAPSM pipeline as a long-running HTTP/JSON
// service over the Engine/Session API: clients create sessions from layout
// uploads, then address every stage of the paper's flow — detection, phase
// assignment, correction, mask view, DRC, SVG render — and apply batched
// edits with incremental re-detection, all against a bounded LRU+TTL session
// store.
//
// Usage:
//
//	aapsmd [-addr :8080] [-parallelism N] [-detect-workers N]
//	       [-store-capacity N] [-session-ttl 30m] [-request-timeout 60s]
//	       [-max-body 33554432] [-graph pcg|fg] [-method gen|opt|lawler]
//	       [-improved-recheck] [-drain-timeout 15s]
//	       [-store-dir DIR] [-flush-interval 30s]
//	       [-max-inflight N] [-max-session-inflight N] [-queue-wait 1s]
//	       [-batch-max N] [-batch-wait 2ms]
//	       [-stream-max N] [-stream-heartbeat 15s]
//	       [-read-timeout 2m] [-write-timeout 2m] [-idle-timeout 2m]
//	       [-chaos SPEC]
//
// Concurrent POST /edits requests to one session coalesce into merged
// batches: up to -batch-max requests collected over at most -batch-wait run
// one incremental re-pipeline and fan the results back out per request.
// GET /v1/sessions/{id}/stream holds a Server-Sent Events connection
// (bounded by -stream-max, kept alive by -stream-heartbeat pings) that
// pushes per-stage results after every committed batch.
//
// See the README's "Serving", "Persistence" and "Failure modes" sections for
// the endpoint reference and curl examples. -store-dir enables session
// persistence: snapshots land in DIR/snapshots (written on eviction, every
// -flush-interval, and at shutdown), so sessions survive a crash or restart
// and are rehydrated on their next request. SIGINT/SIGTERM starts a
// graceful drain: /healthz flips to 503, in-flight requests finish (bounded
// by -drain-timeout), every live session is flushed, then the process exits
// 0.
//
// -chaos wraps the snapshot store in a deterministic fault injector for
// torture testing (never use it in production). The spec is comma-separated
// key=value pairs: seed=N, write-fail=P, enospc=P, torn=P, read-fail=P,
// read-corrupt=P, latency=DUR, plus panic=P to fire injected panics inside
// shard solvers. Probabilities are 0..1; e.g.
//
//	aapsmd -store-dir /tmp/aapsm -chaos 'seed=7,write-fail=0.1,torn=0.05'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	aapsm "repro"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		par      = flag.Int("parallelism", 0, "engine worker bound (0 = GOMAXPROCS)")
		workers  = flag.Int("detect-workers", 1, "shard workers per session detection")
		capacity = flag.Int("store-capacity", 1024, "max live sessions (LRU eviction past it)")
		ttl      = flag.Duration("session-ttl", 30*time.Minute, "idle session lifetime (negative = never expire)")
		reqTO    = flag.Duration("request-timeout", 60*time.Second, "per-request pipeline timeout (negative = none)")
		maxBody  = flag.Int64("max-body", 32<<20, "max upload body bytes")
		graph    = flag.String("graph", "pcg", "graph representation: pcg | fg")
		method   = flag.String("method", "gen", "T-join reduction: gen | opt | lawler")
		imp      = flag.Bool("improved-recheck", false, "use parity-based crossing recheck")
		drainTO  = flag.Duration("drain-timeout", 15*time.Second, "max wait for in-flight requests on shutdown")
		storeDir = flag.String("store-dir", "", "persistence root: session snapshots survive restarts (empty = in-memory only)")
		flushInt = flag.Duration("flush-interval", 30*time.Second, "period of the background snapshot flush, which also retries failed writes and so clears a degraded /readyz (negative = eviction/shutdown only: after a write failure /readyz stays degraded until an explicit flush succeeds)")
		maxInfl  = flag.Int("max-inflight", 256, "max concurrently admitted requests; past it requests queue then 429 (negative = unlimited)")
		maxSess  = flag.Int("max-session-inflight", 16, "max concurrent requests per session (negative = unlimited)")
		qWait    = flag.Duration("queue-wait", time.Second, "how long a request may queue for an admission slot before a 429 (negative = shed immediately)")
		batchMax = flag.Int("batch-max", 32, "max edit requests coalesced into one merged batch (negative = no coalescing)")
		batchW   = flag.Duration("batch-wait", 2*time.Millisecond, "how long a batch lingers for more edit requests before running (negative = run as soon as the session is free)")
		streamN  = flag.Int("stream-max", 256, "max concurrent streaming connections (negative = unbounded)")
		streamHB = flag.Duration("stream-heartbeat", 15*time.Second, "idle-stream keep-alive ping period")
		readTO   = flag.Duration("read-timeout", 2*time.Minute, "http.Server full-request read timeout")
		writeTO  = flag.Duration("write-timeout", 2*time.Minute, "http.Server response write timeout")
		idleTO   = flag.Duration("idle-timeout", 2*time.Minute, "http.Server keep-alive idle timeout")
		chaos    = flag.String("chaos", "", "fault-injection spec (dev/torture only): seed=,write-fail=,enospc=,torn=,read-fail=,read-corrupt=,latency=,panic=")
		rules    = flag.String("rules", "bright-90nm", "default rules profile for new sessions (per-session override: POST /v1/sessions?profile=)")
	)
	flag.Parse()

	if _, err := aapsm.ProfileByName(*rules); err != nil {
		fatalf("%v", err)
	}
	opts := []aapsm.EngineOption{
		aapsm.WithProfile(*rules),
		aapsm.WithParallelism(*par),
		aapsm.WithImprovedRecheck(*imp),
	}
	switch *graph {
	case "pcg":
		opts = append(opts, aapsm.WithGraph(aapsm.PCG))
	case "fg":
		opts = append(opts, aapsm.WithGraph(aapsm.FG))
	default:
		fatalf("unknown -graph %q", *graph)
	}
	switch *method {
	case "gen":
		opts = append(opts, aapsm.WithTJoinMethod(aapsm.GeneralizedGadgets))
	case "opt":
		opts = append(opts, aapsm.WithTJoinMethod(aapsm.OptimizedGadgets))
	case "lawler":
		opts = append(opts, aapsm.WithTJoinMethod(aapsm.LawlerReduction))
	default:
		fatalf("unknown -method %q", *method)
	}

	cfg := server.Config{
		Engine:             aapsm.NewEngine(opts...),
		StoreCapacity:      *capacity,
		SessionTTL:         *ttl,
		RequestTimeout:     *reqTO,
		DetectWorkers:      *workers,
		MaxBodyBytes:       *maxBody,
		FlushInterval:      *flushInt,
		MaxInflight:        *maxInfl,
		MaxSessionInflight: *maxSess,
		QueueWait:          *qWait,
		BatchMax:           *batchMax,
		BatchWait:          *batchW,
		MaxStreams:         *streamN,
		StreamHeartbeat:    *streamHB,
	}
	if *storeDir != "" {
		snaps, err := persist.NewDiskStore(filepath.Join(*storeDir, "snapshots"))
		if err != nil {
			fatalf("open snapshot store: %v", err)
		}
		cfg.Snapshots = snaps
	}
	if *chaos != "" {
		applyChaos(&cfg, *chaos)
	}
	srv := server.New(cfg)
	defer srv.Close()

	// Full read/write/idle timeouts (not just the header timeout) so a
	// stalled or abandoned client cannot hold a connection and its admission
	// slot forever.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}

	// Bind before serving so `-addr 127.0.0.1:0` works: the kernel picks a
	// free port and the log line reports the actual address. Harness scripts
	// (the CI smoke) parse that line instead of hard-coding a port, so
	// parallel runs cannot collide.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("aapsmd listening on %s (capacity %d, ttl %v)", ln.Addr(), *capacity, *ttl)
		errc <- httpSrv.Serve(ln)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("aapsmd draining (up to %v)", *drainTO)
	srv.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		// A timeout here means in-flight requests were cut off; report it
		// but still exit cleanly — the drain did all it could.
		log.Printf("aapsmd shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("aapsmd serve: %v", err)
	}
	if *storeDir != "" {
		// Persist even sessions that were never evicted, so a graceful stop
		// loses nothing.
		srv.FlushAll()
		log.Printf("aapsmd flushed sessions to %s", *storeDir)
	}
	log.Printf("aapsmd stopped")
}

// applyChaos wraps the snapshot store in a deterministic fault injector and
// arms the shard-solver panic hook, per the -chaos spec. Without -store-dir
// it installs an in-memory snapshot store first so every injected failure
// path is still exercised.
func applyChaos(cfg *server.Config, spec string) {
	fcfg, extra, err := persist.ParseFaultConfig(spec)
	if err != nil {
		fatalf("-chaos: %v", err)
	}
	panicP := 0.0
	if v, ok := extra["panic"]; ok {
		panicP, err = strconv.ParseFloat(v, 64)
		if err != nil || panicP < 0 || panicP > 1 {
			fatalf("-chaos: panic=%q: want a probability in [0,1]", v)
		}
		delete(extra, "panic")
	}
	for k := range extra {
		fatalf("-chaos: unknown key %q", k)
	}
	if cfg.Snapshots == nil {
		cfg.Snapshots = persist.NewMemStore()
	}
	cfg.Snapshots = persist.NewFaultStore(cfg.Snapshots, fcfg)
	if panicP > 0 {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(fcfg.Seed + 1))
		hook := func() {
			mu.Lock()
			fire := rng.Float64() < panicP
			mu.Unlock()
			if fire {
				panic("chaos: injected shard-solver panic")
			}
		}
		core.FaultHook.Store(&hook)
	}
	log.Printf("aapsmd CHAOS MODE: injecting faults (%s) — never use in production", spec)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "aapsmd: "+format+"\n", args...)
	os.Exit(2)
}
