package netpoll

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/melyruntime/mely"
)

// TestReadBackpressure: on a bounded runtime, a connection flooding a
// saturated data color must have its reads paused (counted in
// Stats.ReadPauses) while the unread bytes wait in the kernel — and
// every byte must still be delivered once the handler drains. Run for
// every backend available on this platform.
func TestReadBackpressure(t *testing.T) {
	backends := []Backend{BackendPumps}
	if EpollSupported() {
		backends = append(backends, BackendEpoll)
	}
	for _, be := range backends {
		t.Run(be.String(), func(t *testing.T) { testReadBackpressure(t, be) })
	}
}

func testReadBackpressure(t *testing.T, backend Backend) {
	rt, err := mely.New(mely.Config{
		Cores:           2,
		MaxQueuedEvents: 2,
		OverloadPolicy:  mely.OverloadBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	gate := make(chan struct{})
	var gated atomic.Bool
	gated.Store(true)
	var received atomic.Int64
	onData := rt.Register("data", func(ctx *mely.Ctx) {
		msg := ctx.Data().(*Message)
		received.Add(int64(len(msg.Data)))
		msg.Release()
		if gated.Load() {
			<-gate
		}
	})
	onAccept := rt.Register("accept", func(ctx *mely.Ctx) {})
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(ln, Config{
		Runtime:      rt,
		OnAccept:     onAccept,
		AcceptColor:  1,
		OnData:       onData,
		readBufBytes: 1024, // small reads: many pump iterations per flood
		Backend:      backend,
		PollerShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Flood: with the handler gated the runtime saturates after two
	// messages, so the backend must pause reading long before all of
	// this arrives.
	const totalBytes = 64 << 10
	payload := make([]byte, totalBytes)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := conn.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, werr := conn.Write(payload)
		wrote <- werr
	}()

	// Wait until a pause is observed (the gated handler holds the
	// bound, the flood keeps arriving).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rt.Stats().ReadPauses > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if rt.Stats().ReadPauses == 0 {
		t.Fatal("no read pause observed while the data color was saturated")
	}

	// Release the handlers: the backlog drains, reads resume, and every
	// byte arrives.
	gated.Store(false)
	close(gate)
	if err := <-wrote; err != nil {
		t.Fatalf("client write: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && received.Load() < totalBytes {
		time.Sleep(time.Millisecond)
	}
	if got := received.Load(); got != totalBytes {
		t.Fatalf("received %d of %d bytes after resume", got, totalBytes)
	}
	if err := rt.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := rt.Stats()
	t.Log(fmt.Sprintf("readPauses=%d queued=%d", s.ReadPauses, s.QueuedEvents))
}
