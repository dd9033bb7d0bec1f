// Command pmjoind serves pmjoin as a long-lived HTTP/JSON join service: one
// shared System and simulated disk (whose plan memo joins and explains
// share), and an admission controller bounding concurrent joins by
// buffer-frame budget. Each join reads through its own private buffer pool.
//
// Usage:
//
//	pmjoind [-addr :7744] [-admit-frames 16384] [-queue-depth 64]
//	        [-queue-timeout 5s] [-recent 64]
//	        [-page-bytes 4096]
//
// Endpoints (see internal/joinsvc):
//
//	POST /open        create a synthetic dataset
//	POST /join        run a join (429 + Retry-After under overload)
//	POST /explain     plan a join from the System's plan memo
//	GET  /metrics     service counters + folded per-request metrics
//	GET  /debug/joins in-flight and recent requests
//	GET  /healthz     liveness
//
// Quickstart:
//
//	pmjoind -addr :7744 &
//	curl -s localhost:7744/open -d '{"name":"a","kind":"vector","n":20000,"seed":1}'
//	curl -s localhost:7744/open -d '{"name":"b","kind":"vector","n":15000,"seed":2}'
//	curl -s localhost:7744/join -d '{"left":"a","right":"b","options":{"method":"SC","epsilon":0.02,"bufferPages":400}}'
//	curl -s localhost:7744/metrics
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

	"pmjoin"
	"pmjoin/internal/joinsvc"
	"pmjoin/internal/pool"
)

func main() {
	addr := flag.String("addr", ":7744", "listen address")
	pageBytes := flag.Int("page-bytes", 0, "simulated disk page size (0 = default 4096)")
	admitFrames := flag.Int("admit-frames", 0, "admission budget: total buffer frames joinable at once (0 = default 16384)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue length before 429 (0 = default 64)")
	queueTimeout := flag.Duration("queue-timeout", 0, "longest a join waits for admission (0 = default 5s)")
	recent := flag.Int("recent", 0, "terminal requests kept for /debug/joins (0 = default 64)")
	flag.Parse()

	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: *pageBytes})
	srv, err := pmjoin.NewServer(sys, pmjoin.ServeOptions{
		AdmitFrames:  *admitFrames,
		QueueDepth:   *queueDepth,
		QueueTimeout: *queueTimeout,
		RecentJoins:  *recent,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "pmjoind: %v\n", err)
		os.Exit(1)
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           joinsvc.New(srv).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The shutdown watcher runs on a worker pool (the repo's one sanctioned
	// concurrency primitive — see the rawgo rule in LINTING.md): it waits
	// for SIGINT/SIGTERM, then drains the listener. stop() below also
	// cancels ctx, so the watcher always terminates and Close never hangs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	watcher := pool.New(1)
	watcher.Run(func() {
		<-ctx.Done()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fmt.Fprintf(os.Stderr, "pmjoind: shutdown: %v\n", err)
		}
	})

	fmt.Printf("pmjoind: serving on %s (admit budget %d frames)\n",
		*addr, srv.Options().AdmitFrames)
	err = hs.ListenAndServe()
	stop()
	watcher.Close()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pmjoind: %v\n", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Printf("pmjoind: drained — %d admitted, %d completed, %d rejected\n",
		st.Admitted, st.Completed, st.Rejected)
}
