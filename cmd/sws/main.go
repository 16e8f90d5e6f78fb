// Command sws runs the real SWS Web server on the mely runtime: static
// content, a subset of HTTP/1.1, prebuilt responses. Pair it with
// cmd/swsload for a closed-loop load test.
//
//	sws -listen :8080 -files 150 -size 1024 -policy melyws -backend epoll
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/rtflags"
	"github.com/melyruntime/mely/internal/sws"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sws:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", ":8080", "listen address")
		nfiles      = flag.Int("files", 150, "number of distinct files to serve")
		size        = flag.Int("size", 1024, "file size in bytes (the paper serves 1 KB files)")
		policyName  = flag.String("policy", "melyws", "scheduling policy: melyws|mely|melybasews|melytimeleftws|melypenaltyws|melylocalityws|libasync|libasyncws")
		maxClients  = flag.Int("max-clients", 0, "simultaneous client limit (0 = unlimited)")
		idleTimeout = flag.Duration("idle-timeout", 60*time.Second, "reap connections idle this long (0 = never)")
		backendName = flag.String("backend", "auto", "netpoll backend: auto (epoll on Linux, pumps elsewhere), epoll, pumps")
		shards      = flag.Int("poller-shards", 0, "epoll reactor shards (0 = NumCPU)")
		shed        = flag.Bool("shed-overload", false, "answer 503 while the runtime is saturated (needs -max-queued)")
		injectStall = flag.Duration("inject-stall", 0, "FAULT INJECTION: sleep this long inside every -inject-stall-every'th request handler, for drilling the stall watchdog and health detectors (0 = off)")
		injectEvery = flag.Int("inject-stall-every", 32, "stall every Nth request when -inject-stall is set")
		rtf         = rtflags.Bind(flag.CommandLine)
	)
	flag.Parse()

	backend, err := netpoll.ParseBackend(*backendName)
	if err != nil {
		return err
	}

	pol, err := mely.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	rt, closeRT, err := rtf.New(pol, "sws")
	if err != nil {
		return err
	}
	defer closeRT()

	files := make(map[string][]byte, *nfiles)
	for i := 0; i < *nfiles; i++ {
		body := make([]byte, *size)
		for j := range body {
			body[j] = byte('a' + (i+j)%26)
		}
		files[fmt.Sprintf("/file%d.bin", i)] = body
	}
	srv, err := sws.New(sws.Config{
		Runtime: rt, Files: files, MaxClients: *maxClients, IdleTimeout: *idleTimeout,
		Backend: backend, PollerShards: *shards, ShedOverload: *shed,
		Stall: *injectStall, StallEvery: *injectEvery,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if err := srv.Serve(ln); err != nil {
		return err
	}
	fmt.Printf("sws: serving %d files of %d bytes on %s (policy %s, %d cores, %s backend)\n",
		*nfiles, *size, srv.Addr(), pol, rtf.Config.Cores, srv.NetBackend())

	// Run ties the lifecycle to the interrupt signal: on ^C the server
	// stops accepting, then the runtime drains and stops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	closed := make(chan error, 1)
	context.AfterFunc(ctx, func() { closed <- srv.Close() })
	if err := rt.Run(ctx); err != nil {
		return err
	}
	fmt.Printf("sws: served %d responses, %d idle connections reaped\n", srv.Served(), srv.IdleClosed())
	stats := rt.Stats()
	st := stats.Total()
	fmt.Printf("sws: steals=%d (remote %d) stolen-events=%d\n", st.Steals, st.RemoteSteals, st.StolenEvents)
	count := func(n int64) string { return strconv.FormatInt(n, 10) }
	fmt.Printf("sws: timers fired=%d canceled=%d pending=%d lag-hist(%s)=%v\n",
		st.TimersFired, stats.TimersCanceled, st.TimersPending,
		obs.TimerLagBounds.Legend(func(ns int64) string { return time.Duration(ns).String() }), st.TimerLagHist)
	if stats.PollWakeups > 0 {
		fmt.Printf("sws: poll wakeups=%d events=%d (%.1f events/wakeup) batch-hist(%s)=%v write-stalls=%d\n",
			stats.PollWakeups, stats.PollEvents,
			float64(stats.PollEvents)/float64(stats.PollWakeups),
			obs.PollBatchBounds.Legend(count), stats.PollBatchHist, stats.WriteStalls)
	}
	if rt.Bounded() {
		fmt.Printf("sws: overload: rejected=%d blocked=%d spilled=%d reloaded=%d spill-errors=%d read-pauses=%d shed503=%d spill-depth-hist(%s)=%v\n",
			stats.RejectedPosts, stats.BlockedPosts, stats.SpilledEvents,
			stats.ReloadedEvents, stats.SpillErrors, stats.ReadPauses,
			srv.OverloadShed(), obs.SpillDepthBounds.Legend(count), stats.SpillDepthHist)
		if stats.SpillSyncs > 0 || stats.RecoveredEvents > 0 || stats.TornRecords > 0 {
			fmt.Printf("sws: spill durability: syncs=%d recovered=%d torn=%d\n",
				stats.SpillSyncs, stats.RecoveredEvents, stats.TornRecords)
		}
	}
	return <-closed
}
