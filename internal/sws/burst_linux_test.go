//go:build linux

package sws

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
)

// The slow-reader rows of the burst matrix. They size the server's
// socket buffer through the listener, which is a Linux habit.

// listenSmallSndbuf listens on loopback with SO_SNDBUF fixed at 64 KiB.
// Accepted sockets inherit it (and lose send-buffer autotuning, which
// on loopback grows to tcp_wmem's 4 MiB within one burst), so how much
// the kernel absorbs of a server's replies is known and small.
func listenSmallSndbuf(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF, 64<<10)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return ln
}

// startStalling serves four 16 KiB files behind a small send buffer.
func startStalling(t *testing.T, backend netpoll.Backend) (*Server, map[string][]byte) {
	t.Helper()
	files := numberedFiles(4, 16<<10)
	srv := startServerOn(t, mely.Config{Cores: 2},
		Config{Files: files, Backend: backend}, nil, listenSmallSndbuf(t))
	return srv, files
}

// stalledBurst sends requests GETs of those files in one write from a
// client that is not reading, and returns the bytes the replies will
// amount to. The client's receive buffer is fixed too (above the
// loopback MTU), so the kernel holds some 400 KB on the server's behalf.
func stalledBurst(t *testing.T, srv *Server, files map[string][]byte, requests int) (net.Conn, []byte) {
	t.Helper()
	conn := dialBurst(t, srv)
	_ = conn.(*net.TCPConn).SetReadBuffer(128 << 10)
	var burst string
	var want []byte
	for i := 0; i < requests; i++ {
		path := fmt.Sprintf("/f%d", i%4)
		burst += getReq(path)
		want = append(want, reply(files, path)...)
	}
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	return conn, want
}

// TestBurstToStalledReader: a client that stops reading mid-burst. On
// epoll the gathered writes run into a full socket, their remainders
// queue in the connection's pending buffer and drain on EPOLLOUT; on
// pumps the write blocks. Either way, once the client reads again it
// gets every reply, in order.
func TestBurstToStalledReader(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend netpoll.Backend) {
		srv, files := startStalling(t, backend)
		conn, want := stalledBurst(t, srv, files, 192) // 3 MiB of replies, inside the 4 MiB pending budget
		// Let the server run into the full socket before reading.
		if backend == netpoll.BackendEpoll {
			waitUntil(t, "a write stall", func() bool { return srv.rt.Stats().WriteStalls > 0 })
		} else {
			waitUntil(t, "the first write", func() bool { return srv.Served() > 0 })
			time.Sleep(20 * time.Millisecond) // no stall counter: a pump write just blocks
		}
		expectReplies(t, conn, want)
		if got := srv.Served(); got != 192 {
			t.Fatalf("Served = %d, want 192", got)
		}
	})
}

// TestBurstPastWriteBudgetShutsDown: replies to a client that never
// reads are not buffered past netpoll's pending-write budget (4 MiB) —
// the connection is shut down, and what did reach the client is an
// in-order prefix.
func TestBurstPastWriteBudgetShutsDown(t *testing.T) {
	// Epoll only: the pending-write budget is that backend's; a pump
	// write blocks instead.
	srv, files := startStalling(t, netpoll.BackendEpoll)
	conn, want := stalledBurst(t, srv, files, 512) // 8 MiB of replies
	waitUntil(t, "the server to drop the connection", func() bool { return srv.srv.Live() == 0 })
	got, _ := io.ReadAll(conn) // ends in EOF or a reset, after whatever the kernel held
	if len(got) >= len(want) || !bytes.Equal(got, want[:len(got)]) {
		t.Fatalf("client read %d of %d bytes; want an in-order proper prefix", len(got), len(want))
	}
}
