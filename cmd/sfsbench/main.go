// Command sfsbench is the multio-like SFS client benchmark (section
// V-C2): each client reads the 200 MB file over a persistent
// connection and reports its throughput; a master aggregates.
//
//	sfsbench -addr localhost:4460 -clients 16 -file-mb 200 -psk secret
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/melyruntime/mely/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sfsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "localhost:4460", "server address")
		clients = flag.Int("clients", 16, "concurrent clients (the paper uses 16)")
		fileMB  = flag.Int("file-mb", 200, "file size in MiB")
		chunkKB = flag.Int("chunk-kb", 64, "read chunk in KiB")
		ahead   = flag.Int("readahead", 4, "outstanding requests per client")
		psk     = flag.String("psk", "", "pre-shared secret (required)")
	)
	flag.Parse()
	if *psk == "" {
		return fmt.Errorf("a -psk is required")
	}

	res, err := loadgen.RunSFS(context.Background(), loadgen.SFSConfig{
		Addr:      *addr,
		PSK:       []byte(*psk),
		Clients:   *clients,
		Path:      "/data",
		FileBytes: *fileMB << 20,
		Chunk:     *chunkKB << 10,
		ReadAhead: *ahead,
	})
	if err != nil {
		return err
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d clients failed", res.Errors, *clients)
	}
	mb := float64(res.BytesRead) / (1 << 20)
	fmt.Printf("clients=%d read=%.0f MiB elapsed=%v throughput=%.1f MB/s\n",
		*clients, mb, res.Elapsed.Round(time.Millisecond), mb/res.Elapsed.Seconds())
	return nil
}
