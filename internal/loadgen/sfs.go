package loadgen

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/melyruntime/mely/internal/sfs"
)

// SFSConfig parameterizes a closed-loop run against an sfs server:
// clients that each read one file whole, multio style, over a
// persistent connection.
type SFSConfig struct {
	// Addr is the server's host:port, PSK its pre-shared key.
	Addr string
	PSK  []byte
	// Clients is the number of concurrent clients.
	Clients int
	// Path names the file and FileBytes its size.
	Path      string
	FileBytes int
	// Chunk and ReadAhead shape the reads (0 = the client's defaults).
	Chunk     int
	ReadAhead int
	// Duration bounds the run: each client re-reads the file, and
	// reconnects after a hard failure, until it is over. Zero is the
	// one-shot benchmark (cmd/sfsbench): every client reads the file
	// once and a failed client stays failed.
	Duration time.Duration
	// ThinkTime pauses each client between reads.
	ThinkTime time.Duration
}

// RunSFS runs the clients and aggregates their results: reads completed,
// failed attempts, connections, bytes, and the read-latency percentiles.
// A shed READ (sfs.ErrOverloaded) counts as an error without costing the
// client its connection — how many are acceptable is the caller's call.
func RunSFS(ctx context.Context, cfg SFSConfig) (Result, error) {
	if cfg.Addr == "" {
		return Result{}, errors.New("loadgen: no server address")
	}
	oneShot := cfg.Duration <= 0
	if !oneShot {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	// As in RunHTTP, the deadline's timestamp gates the loop and the
	// error accounting, not just the context's timer.
	deadline, bounded := ctx.Deadline()
	live := func() bool { return ctx.Err() == nil && (!bounded || time.Now().Before(deadline)) }

	var (
		requests, errCount, connects, bytesRead atomic.Int64
		lat                                     LatencyRecorder
		wg                                      sync.WaitGroup
	)
	began := time.Now()
	for i := 0; i < max(cfg.Clients, 1); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var samples []time.Duration
			defer func() { lat.Add(samples) }()
			for live() {
				c, err := sfs.Dial(cfg.Addr, cfg.PSK)
				if err != nil {
					if live() {
						errCount.Add(1)
					}
					return
				}
				connects.Add(1)
				if cfg.Chunk > 0 {
					c.SetChunk(uint32(cfg.Chunk))
				}
				if cfg.ReadAhead > 0 {
					c.SetReadAhead(cfg.ReadAhead)
				}
				for live() {
					sent := time.Now()
					data, err := c.ReadFile(cfg.Path, cfg.FileBytes)
					if err != nil {
						if live() {
							errCount.Add(1)
						}
						if oneShot || !errors.Is(err, sfs.ErrOverloaded) {
							break // reconnect on hard failure
						}
						continue
					}
					requests.Add(1)
					bytesRead.Add(int64(len(data)))
					samples = append(samples, time.Since(sent))
					if oneShot {
						break
					}
					time.Sleep(cfg.ThinkTime)
				}
				c.Close()
				if oneShot {
					return
				}
			}
		}()
	}
	wg.Wait()
	res := Result{
		Requests:  requests.Load(),
		Errors:    errCount.Load(),
		Connects:  connects.Load(),
		BytesRead: bytesRead.Load(),
		Elapsed:   time.Since(began),
	}
	res.KRequestsPS = float64(res.Requests) / res.Elapsed.Seconds() / 1000
	res.LatencyP50, res.LatencyP99 = lat.Percentiles()
	return res, nil
}
