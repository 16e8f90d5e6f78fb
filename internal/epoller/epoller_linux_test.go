//go:build linux

package epoller

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"testing"
	"time"
)

// socketpair returns two connected non-blocking stream descriptors.
func socketpair(t *testing.T) (int, int) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fds[0]); syscall.Close(fds[1]) })
	return fds[0], fds[1]
}

func newPoller(t *testing.T) *Poller {
	t.Helper()
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestReadReadiness(t *testing.T) {
	p := newPoller(t)
	a, b := socketpair(t)
	if err := p.Add(a, 7, true, false); err != nil {
		t.Fatal(err)
	}
	// Nothing pending: a short timed wait harvests no events.
	out := make([]Event, 8)
	n, err := p.Wait(out, 10)
	if err != nil || n != 0 {
		t.Fatalf("idle Wait = %d, %v", n, err)
	}
	if _, err := syscall.Write(b, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	n, err = p.Wait(out, 1000)
	if err != nil || n != 1 {
		t.Fatalf("Wait = %d, %v", n, err)
	}
	if out[0].Token != 7 || !out[0].Readable {
		t.Fatalf("event = %+v", out[0])
	}
	buf := make([]byte, 16)
	if n, err := Read(a, buf); err != nil || n != 2 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if _, err := Read(a, buf); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("drained Read err = %v", err)
	}
}

func TestEdgeTriggerReportsOnceUntilNewData(t *testing.T) {
	p := newPoller(t)
	a, b := socketpair(t)
	if err := p.Add(a, 1, true, false); err != nil {
		t.Fatal(err)
	}
	if _, err := syscall.Write(b, []byte("x")); err != nil {
		t.Fatal(err)
	}
	out := make([]Event, 8)
	if n, _ := p.Wait(out, 1000); n != 1 {
		t.Fatal("missing first edge")
	}
	// Not reading: edge triggering must stay silent on the old data.
	if n, _ := p.Wait(out, 50); n != 0 {
		t.Fatal("edge-triggered fd re-reported unread data")
	}
	// New bytes are a new edge.
	if _, err := syscall.Write(b, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Wait(out, 1000); n != 1 {
		t.Fatal("new data did not produce a new edge")
	}
}

func TestWritableAfterDrain(t *testing.T) {
	p := newPoller(t)
	a, b := socketpair(t)
	// Shrink the send buffer so it fills quickly.
	_ = syscall.SetsockoptInt(a, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4096)
	junk := make([]byte, 64<<10)
	var stalled bool
	for i := 0; i < 64; i++ {
		if _, err := Write(a, junk); errors.Is(err, ErrWouldBlock) {
			stalled = true
			break
		}
	}
	if !stalled {
		t.Skip("could not fill the socket buffer")
	}
	if err := p.Add(a, 3, true, true); err != nil {
		t.Fatal(err)
	}
	// Peer drains: writability appears as an edge.
	go func() {
		buf := make([]byte, 32<<10)
		for {
			if _, err := Read(b, buf); err != nil {
				if errors.Is(err, ErrWouldBlock) {
					time.Sleep(time.Millisecond)
					continue
				}
				return
			}
		}
	}()
	out := make([]Event, 8)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		n, err := p.Wait(out, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if out[i].Token == 3 && out[i].Writable {
				return
			}
		}
	}
	t.Fatal("no writable event after the peer drained")
}

func TestPeerCloseSurfacesAsReadableEOF(t *testing.T) {
	p := newPoller(t)
	a, b := socketpair(t)
	if err := p.Add(a, 9, true, false); err != nil {
		t.Fatal(err)
	}
	syscall.Close(b)
	out := make([]Event, 8)
	n, err := p.Wait(out, 1000)
	if err != nil || n != 1 {
		t.Fatalf("Wait = %d, %v", n, err)
	}
	buf := make([]byte, 4)
	if _, err := Read(a, buf); !errors.Is(err, io.EOF) {
		t.Fatalf("Read after peer close = %v, want EOF", err)
	}
}

func TestWakeInterruptsWait(t *testing.T) {
	p := newPoller(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		out := make([]Event, 4)
		n, err := p.Wait(out, -1) // blocks forever without the wake
		if err != nil || n != 0 {
			t.Errorf("woken Wait = %d, %v", n, err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	if err := p.Wake(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wake did not interrupt Wait")
	}
}

func TestCloseUnblocksWait(t *testing.T) {
	p, err := New()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		out := make([]Event, 4)
		_, err := p.Wait(out, -1)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Wait after Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Wait")
	}
}

func TestModReArmsWritable(t *testing.T) {
	p := newPoller(t)
	a, _ := socketpair(t)
	if err := p.Add(a, 5, true, false); err != nil {
		t.Fatal(err)
	}
	// The socket is writable right now; arming EPOLLOUT via Mod must
	// deliver the pending level as a fresh edge.
	if err := p.Mod(a, 5, true, true); err != nil {
		t.Fatal(err)
	}
	out := make([]Event, 8)
	n, err := p.Wait(out, 1000)
	if err != nil || n != 1 || !out[0].Writable {
		t.Fatalf("Wait after Mod = %d, %v (%+v)", n, err, out[0])
	}
	// Disarm: no further writable spam.
	if err := p.Mod(a, 5, true, false); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.Wait(out, 50); n != 0 {
		t.Fatal("disarmed fd still reports writable")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	for _, token := range []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 32, 1<<63 + 12345, ^uint64(0) - 1} {
		var ev syscall.EpollEvent
		packToken(&ev, token)
		if got := unpackToken(&ev); got != token {
			t.Fatalf("token %d round-tripped to %d", token, got)
		}
	}
}

// readAll drains fd until it would block.
func readAll(t *testing.T, fd int) []byte {
	t.Helper()
	var got []byte
	buf := make([]byte, 32<<10)
	for {
		n, err := Read(fd, buf)
		got = append(got, buf[:n]...)
		if err != nil {
			if !errors.Is(err, ErrWouldBlock) {
				t.Fatalf("Read: %v", err)
			}
			return got
		}
	}
}

// numbered returns n buffers of the given sizes (cycled), each byte
// telling its buffer, and their concatenation.
func numbered(n int, sizes ...int) (bufs [][]byte, all []byte) {
	for i := 0; i < n; i++ {
		b := bytes.Repeat([]byte{byte(i + 1)}, sizes[i%len(sizes)])
		bufs = append(bufs, b)
		all = append(all, b...)
	}
	return bufs, all
}

func TestWritevGathersInOrder(t *testing.T) {
	for _, tt := range []struct {
		name  string
		n     int
		sizes []int
	}{
		{"one", 1, []int{100}},
		{"sixteen", 16, []int{1100}},
		{"empty elements", 9, []int{0, 7, 0, 0, 300}},
		{"all empty", 4, []int{0}},
		{"none", 0, []int{0}},
		// More than one writev(2) holds: the vector is cut at 64.
		{"past the iovec cap", 3*maxIovecs + 5, []int{3, 0, 41}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			a, b := socketpair(t)
			bufs, want := numbered(tt.n, tt.sizes...)
			keep := append([][]byte(nil), bufs...)
			n, err := Writev(a, bufs)
			if err != nil || n != len(want) {
				t.Fatalf("Writev = %d, %v; want %d", n, err, len(want))
			}
			if got := readAll(t, b); !bytes.Equal(got, want) {
				t.Fatalf("peer read %d bytes, want %d, or bytes out of order", len(got), len(want))
			}
			for i := range bufs {
				if len(bufs[i]) != len(keep[i]) || (len(bufs[i]) > 0 && &bufs[i][0] != &keep[i][0]) {
					t.Fatalf("Writev modified bufs[%d]", i)
				}
			}
		})
	}
}

// TestWritevWouldBlock: a vector larger than the socket buffer is cut
// short with ErrWouldBlock, the count says exactly how much the peer
// will read, and resuming from that offset delivers the rest in order.
func TestWritevWouldBlock(t *testing.T) {
	a, b := socketpair(t)
	_ = syscall.SetsockoptInt(a, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 4096)
	bufs, want := numbered(100, 1000, 0, 2500)
	var got []byte
	stalls := 0
	for sent := 0; sent < len(want); {
		// Resume where the last call stopped, as netpoll's pending queue does.
		rest, skip := bufs, sent
		for skip >= len(rest[0]) {
			skip -= len(rest[0])
			rest = rest[1:]
		}
		rest = append([][]byte{rest[0][skip:]}, rest[1:]...)
		n, err := Writev(a, rest)
		sent += n
		switch {
		case errors.Is(err, ErrWouldBlock):
			stalls++
		case err != nil:
			t.Fatal(err)
		}
		got = append(got, readAll(t, b)...)
		if len(got) != sent {
			t.Fatalf("Writev reported %d bytes in all, the peer has read %d", sent, len(got))
		}
	}
	if stalls == 0 {
		t.Skip("could not fill the socket buffer")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes out of order across short writes")
	}
}

// TestWritevSurvivesSignals: writev(2) interrupted by a signal (EINTR)
// is retried, never reported and never repeated. Signals cannot be made
// to land inside the call, so this storms the process with them while
// it writes and checks the stream.
func TestWritevSurvivesSignals(t *testing.T) {
	sig := make(chan os.Signal, 64)
	signal.Notify(sig, syscall.SIGUSR1)
	defer signal.Stop(sig)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-sig:
			default:
				_ = syscall.Kill(syscall.Getpid(), syscall.SIGUSR1)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	a, b := socketpair(t)
	bufs, want := numbered(16, 1100)
	for round := 0; round < 200; round++ {
		n, err := Writev(a, bufs)
		if err != nil || n != len(want) {
			t.Fatalf("round %d: Writev = %d, %v", round, n, err)
		}
		if got := readAll(t, b); !bytes.Equal(got, want) {
			t.Fatalf("round %d: stream differs", round)
		}
	}
}
