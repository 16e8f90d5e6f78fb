// Webserver: the paper's SWS scenario end to end — a static Web server
// on the mely runtime serving 1 KB files, plus a built-in closed-loop
// load burst so the example is self-contained.
//
//	go run ./examples/webserver
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/loadgen"
	"github.com/melyruntime/mely/internal/sws"
)

func main() {
	rt, err := mely.New(mely.Config{Policy: mely.PolicyMelyWS})
	if err != nil {
		log.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	// 150 one-KB files, like the paper's workload.
	files := make(map[string][]byte, 150)
	for i := 0; i < 150; i++ {
		body := make([]byte, 1024)
		for j := range body {
			body[j] = byte('a' + (i+j)%26)
		}
		files[fmt.Sprintf("/file%d.bin", i)] = body
	}
	// Idle connections are reaped by the runtime's color-serialized timers:
	// a PostAfter per connection, serialized with that connection's
	// request handlers, no locks and no time.AfterFunc goroutines.
	srv, err := sws.New(sws.Config{Runtime: rt, Files: files, IdleTimeout: 400 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	// On Linux this runs the raw-epoll backend: reactor shards harvest
	// readiness and post colored events, no goroutine per connection.
	fmt.Printf("serving %d files on %s (%s backend)\n", len(files), srv.Addr(), srv.NetBackend())

	// Closed-loop burst: 50 virtual clients for 3 seconds.
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	res, err := loadgen.RunHTTP(context.Background(), loadgen.HTTPConfig{
		Addr:            srv.Addr().String(),
		Clients:         50,
		RequestsPerConn: 150,
		Paths:           paths,
		Duration:        3 * time.Second,
		// A little think time makes some clients outlast the server's
		// idle timeout, exercising the timer-driven reaper.
		ThinkTime:   20 * time.Millisecond,
		ThinkJitter: 600 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Clients whose think pause outlasts the idle timeout find their
	// connection reaped and reconnect; loadgen reports those as errors.
	fmt.Printf("served %d requests in %v (%.1f KReq/s, %d reaped-mid-think errors)\n",
		res.Requests, res.Elapsed.Round(time.Millisecond), res.KRequestsPS, res.Errors)
	stats := rt.Stats()
	st := stats.Total()
	fmt.Printf("runtime: events=%d steals=%d (remote %d) stolen-time=%v\n",
		st.Events, st.Steals, st.RemoteSteals, st.StolenTime.Round(time.Microsecond))
	fmt.Printf("timers: fired=%d canceled=%d idle-reaped=%d\n",
		st.TimersFired, stats.TimersCanceled, srv.IdleClosed())
	if stats.PollWakeups > 0 {
		fmt.Printf("poller: wakeups=%d events=%d (%.1f events/wakeup) write-stalls=%d\n",
			stats.PollWakeups, stats.PollEvents,
			float64(stats.PollEvents)/float64(stats.PollWakeups), stats.WriteStalls)
	}
}
