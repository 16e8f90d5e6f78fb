// Command sfsd runs the real secure file server on the mely runtime:
// encrypted, authenticated file reads over persistent connections, with
// only the CPU-intensive crypto handler colored (the paper's SFS
// coloring scheme). Pair it with cmd/sfsbench.
//
//	sfsd -listen :4460 -file-mb 200 -psk secret
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/rtflags"
	"github.com/melyruntime/mely/internal/sfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sfsd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen       = flag.String("listen", ":4460", "listen address")
		fileMB       = flag.Int("file-mb", 200, "size of the served file in MiB (the paper reads 200 MB)")
		psk          = flag.String("psk", "", "pre-shared secret (required)")
		shedOverload = flag.Bool("shed-overload", false, "answer READs with OVERLOADED while the runtime is saturated instead of queuing crypto work (needs -max-queued or -max-queued-color)")
		rtf          = rtflags.Bind(flag.CommandLine)
	)
	flag.Parse()
	if *psk == "" {
		return fmt.Errorf("a -psk is required")
	}
	rt, closeRT, err := rtf.New(mely.PolicyMelyWS, "sfsd")
	if err != nil {
		return err
	}
	defer closeRT()

	if *shedOverload && !rt.Bounded() {
		return fmt.Errorf("-shed-overload needs a bounded runtime (-max-queued or -max-queued-color)")
	}

	content := make([]byte, *fileMB<<20)
	rand.New(rand.NewSource(1)).Read(content)
	srv, err := sfs.NewServer(sfs.ServerConfig{
		Runtime:      rt,
		Files:        map[string][]byte{"/data": content},
		PSK:          []byte(*psk),
		ShedOverload: *shedOverload,
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
	fmt.Printf("sfsd: serving /data (%d MiB) on %s\n", *fileMB, srv.Addr())

	// Run ties the lifecycle to the interrupt signal: on ^C the server
	// stops accepting, then the runtime drains in-flight events and
	// stops its workers.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	closed := make(chan error, 1)
	context.AfterFunc(ctx, func() { closed <- srv.Close() })
	if err := rt.Run(ctx); err != nil {
		return err
	}
	fmt.Printf("sfsd: sent %d responses (%d shed)\n", srv.Sent(), srv.Shed())
	return <-closed
}
