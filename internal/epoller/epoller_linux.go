//go:build linux

package epoller

import (
	"errors"
	"io"
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// Supported reports whether this platform has the raw epoll reactor.
const Supported = true

// ErrWouldBlock is returned by Read, Write, and Accept when the
// operation would block (EAGAIN on a non-blocking descriptor). It marks
// the end of an edge-triggered drain loop.
var ErrWouldBlock = errors.New("epoller: operation would block")

// ErrClosed is returned by Wait after Close.
var ErrClosed = errors.New("epoller: poller closed")

// wakeToken is the token reserved for the internal wake pipe; user
// tokens must stay below it.
const wakeToken = ^uint64(0)

// epollET is EPOLLET as the uint32 the kernel wants (syscall.EPOLLET is
// a negative int constant).
const epollET = uint32(1) << 31

// Event is one decoded readiness notification.
type Event struct {
	// Token is the value registered with Add for the ready descriptor.
	Token uint64
	// Readable is set on EPOLLIN (and on EPOLLHUP/EPOLLRDHUP, which are
	// surfaced by attempting the read: it returns EOF).
	Readable bool
	// Writable is set on EPOLLOUT.
	Writable bool
	// Closed is set on EPOLLHUP, EPOLLERR, or EPOLLRDHUP: the
	// descriptor is dead or the peer has shut its write side. The
	// reader must drain to EOF rather than stop at a partial read —
	// under edge triggering this event may be the last one the
	// descriptor ever delivers (data and FIN coalesce into one edge).
	Closed bool
}

// Poller wraps one epoll instance. Wait must be called from a single
// goroutine (the reactor); Add, Mod, Del, and Wake are safe from any
// goroutine (epoll_ctl is thread-safe against epoll_wait).
type Poller struct {
	epfd  int
	wakeR int
	wakeW int

	// pollFile wraps epfd for the Go runtime's netpoller: an epoll fd
	// is itself pollable, so an indefinite Wait parks in the runtime
	// netpoller (via rawConn.Read) instead of blocking an OS thread in
	// epoll_wait. The difference is the wake-up path: a netpoller wake
	// re-enters the scheduler like any unblocked goroutine, while a
	// thread sleeping in raw epoll_wait has lost its P and must wait
	// for the scheduler to re-admit it — a wake-to-running bubble that
	// throttles the reactor when every P is busy. rawConn is nil when
	// the integration is unavailable (raw blocking wait fallback).
	pollFile *os.File
	rawConn  syscall.RawConn

	closeOnce sync.Once
	closed    chan struct{}

	// ctlMu guards Add/Mod/Del/Wake against release: once the reactor
	// has released the descriptors, a late control call must see
	// released=true instead of operating on a recycled fd number.
	ctlMu    sync.Mutex
	released bool

	// kevents is the reactor-owned raw event buffer (sized lazily to
	// the caller's batch).
	kevents []syscall.EpollEvent
}

// New creates an epoll instance with its wake pipe registered.
func New() (*Poller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	var pipefds [2]int
	if err := syscall.Pipe2(pipefds[:], syscall.O_NONBLOCK|syscall.O_CLOEXEC); err != nil {
		syscall.Close(epfd)
		return nil, err
	}
	p := &Poller{epfd: epfd, wakeR: pipefds[0], wakeW: pipefds[1], closed: make(chan struct{})}
	// The wake pipe is level-triggered: a pending wake byte keeps Wait
	// returning until drained, so wakes can never be lost.
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN)}
	packToken(&ev, wakeToken)
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.wakeR, &ev); err != nil {
		p.release() // no Wait will ever run: free the descriptors here
		return nil, err
	}
	// Netpoller integration (see the field comment). The non-blocking
	// mode is what os.NewFile keys pollability on; epoll_wait itself
	// ignores the flag.
	_ = syscall.SetNonblock(epfd, true)
	p.pollFile = os.NewFile(uintptr(epfd), "epoller")
	if rc, err := p.pollFile.SyscallConn(); err == nil {
		p.rawConn = rc
	}
	return p, nil
}

// Close tears the poller down. A blocked Wait returns ErrClosed (via a
// final wake) and releases the descriptors on its way out; a poller
// whose reactor never started must use Release instead, or its
// descriptors leak.
func (p *Poller) Close() error {
	p.closeOnce.Do(func() {
		close(p.closed)
		_ = p.Wake()
	})
	return nil
}

// Release closes the poller AND frees its descriptors immediately. It
// is only safe when no goroutine is in (or will ever enter) Wait —
// the setup-failure path of a reactor that never started. With a live
// reactor, use Close: the waiter frees the descriptors itself, which
// is what keeps a concurrent Wait off a recycled fd number.
func (p *Poller) Release() {
	_ = p.Close()
	p.release()
}

// release frees the descriptors; called by the reactor after Wait
// reports ErrClosed (so no goroutine is left inside epoll_wait on a
// closed fd, and — via ctlMu — no control call is mid-syscall).
func (p *Poller) release() {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	if p.released {
		return
	}
	p.released = true
	if p.pollFile != nil {
		_ = p.pollFile.Close() // owns epfd: deregisters and closes it
	} else {
		syscall.Close(p.epfd)
	}
	syscall.Close(p.wakeR)
	syscall.Close(p.wakeW)
}

// Wake forces a blocked Wait to return (with zero or more events).
func (p *Poller) Wake() error {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	if p.released {
		return ErrClosed
	}
	var one = [1]byte{1}
	for {
		_, err := syscall.Write(p.wakeW, one[:])
		switch err {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return nil // a wake is already pending
		default:
			return err
		}
	}
}

// packToken stows a 64-bit token in the event's Fd+Pad payload.
func packToken(ev *syscall.EpollEvent, token uint64) {
	ev.Fd = int32(token)
	ev.Pad = int32(token >> 32)
}

func unpackToken(ev *syscall.EpollEvent) uint64 {
	return uint64(uint32(ev.Fd)) | uint64(uint32(ev.Pad))<<32
}

func interest(readable, writable, edge bool) uint32 {
	var events uint32
	if readable {
		events |= uint32(syscall.EPOLLIN) | uint32(syscall.EPOLLRDHUP)
	}
	if writable {
		events |= uint32(syscall.EPOLLOUT)
	}
	if edge {
		events |= epollET
	}
	return events
}

// ctl runs one epoll_ctl under the release guard.
func (p *Poller) ctl(op int, fd int, ev *syscall.EpollEvent) error {
	p.ctlMu.Lock()
	defer p.ctlMu.Unlock()
	if p.released {
		return ErrClosed
	}
	return syscall.EpollCtl(p.epfd, op, fd, ev)
}

// Add registers fd with the given interest, edge-triggered, delivering
// the token in its events. Tokens must be < 2^64-1 (the max is the wake
// token).
func (p *Poller) Add(fd int, token uint64, readable, writable bool) error {
	ev := syscall.EpollEvent{Events: interest(readable, writable, true)}
	packToken(&ev, token)
	return p.ctl(syscall.EPOLL_CTL_ADD, fd, &ev)
}

// Mod updates fd's interest set (edge-triggered), re-delivering the
// token. With edge triggering, a Mod re-arms the descriptor: a pending
// level (e.g. writable space that appeared before the Mod) is reported
// again.
func (p *Poller) Mod(fd int, token uint64, readable, writable bool) error {
	ev := syscall.EpollEvent{Events: interest(readable, writable, true)}
	packToken(&ev, token)
	return p.ctl(syscall.EPOLL_CTL_MOD, fd, &ev)
}

// Del removes fd from the interest set.
func (p *Poller) Del(fd int) error {
	return p.ctl(syscall.EPOLL_CTL_DEL, fd, nil)
}

// Wait harvests up to len(out) readiness events, blocking up to msec
// milliseconds (-1 = forever). Wake-pipe events are consumed internally
// and not reported; the returned count excludes them. After Close it
// returns ErrClosed and releases the descriptors.
func (p *Poller) Wait(out []Event, msec int) (int, error) {
	if len(out) == 0 {
		return 0, errors.New("epoller: empty event buffer")
	}
	if cap(p.kevents) < len(out) {
		p.kevents = make([]syscall.EpollEvent, len(out))
	}
	kev := p.kevents[:len(out)]
	for {
		n, err := p.waitRaw(kev, msec)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			select {
			case <-p.closed:
				p.release()
				return 0, ErrClosed
			default:
			}
			return 0, err
		}
		m := 0
		for i := 0; i < n; i++ {
			token := unpackToken(&kev[i])
			if token == wakeToken {
				p.drainWake()
				continue
			}
			e := Event{Token: token}
			events := kev[i].Events
			if events&uint32(syscall.EPOLLIN) != 0 || events&uint32(syscall.EPOLLRDHUP) != 0 {
				e.Readable = true
			}
			if events&uint32(syscall.EPOLLOUT) != 0 {
				e.Writable = true
			}
			if events&uint32(syscall.EPOLLHUP) != 0 || events&uint32(syscall.EPOLLERR) != 0 ||
				events&uint32(syscall.EPOLLRDHUP) != 0 {
				e.Closed = true
			}
			out[m] = e
			m++
		}
		select {
		case <-p.closed:
			p.release()
			return 0, ErrClosed
		default:
		}
		// A wake-only round returns 0 events: callers use Wake to ask
		// the reactor to look at out-of-band work, so Wait must yield.
		return m, nil
	}
}

// waitRaw performs one epoll_wait. Indefinite waits go through the
// runtime netpoller when available: park until the epoll fd reports
// readiness, then harvest with a zero timeout.
func (p *Poller) waitRaw(kev []syscall.EpollEvent, msec int) (int, error) {
	if msec < 0 && p.rawConn != nil {
		var (
			n    int
			werr error
		)
		rerr := p.rawConn.Read(func(uintptr) bool {
			n, werr = syscall.EpollWait(p.epfd, kev, 0)
			if werr == syscall.EINTR {
				werr = nil
				return false // re-park; readiness will re-report
			}
			return n != 0 || werr != nil
		})
		if rerr == nil {
			return n, werr
		}
		// The integration failed (unsupported kernel/file type, or the
		// poller is closing): fall back to the raw blocking wait. Wait's
		// caller-side closed check turns a dead fd into ErrClosed.
		p.rawConn = nil
	}
	return syscall.EpollWait(p.epfd, kev, msec)
}

func (p *Poller) drainWake() {
	var buf [64]byte
	for {
		n, err := syscall.Read(p.wakeR, buf[:])
		if n == len(buf) && err == nil {
			continue
		}
		return
	}
}

// SetNonblock marks fd non-blocking.
func SetNonblock(fd int) error { return syscall.SetNonblock(fd, true) }

// Accept accepts one connection from a non-blocking listening socket,
// returning the new descriptor already non-blocking and close-on-exec.
// ErrWouldBlock means the backlog is drained.
func Accept(fd int) (int, syscall.Sockaddr, error) {
	for {
		nfd, sa, err := syscall.Accept4(fd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
		switch err {
		case nil:
			return nfd, sa, nil
		case syscall.EINTR, syscall.ECONNABORTED:
			continue // retry: the peer gave up mid-handshake
		case syscall.EAGAIN:
			return -1, nil, ErrWouldBlock
		default:
			return -1, nil, err
		}
	}
}

// Read reads from a non-blocking descriptor. It returns ErrWouldBlock
// when drained and io.EOF on an orderly peer close.
func Read(fd int, p []byte) (int, error) {
	for {
		n, err := syscall.Read(fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, ErrWouldBlock
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		default:
			return n, nil
		}
	}
}

// Write writes to a non-blocking descriptor. A short count with
// ErrWouldBlock means the kernel buffer filled mid-write.
func Write(fd int, p []byte) (int, error) {
	written := 0
	for written < len(p) {
		n, err := syscall.Write(fd, p[written:])
		if n > 0 {
			written += n
		}
		switch err {
		case nil:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return written, ErrWouldBlock
		default:
			return written, err
		}
	}
	return written, nil
}

// maxIovecs is the most buffers one writev(2) carries here. The kernel
// takes up to IOV_MAX (1024); 64 keeps the vector on the stack.
const maxIovecs = 64

// Writev writes bufs, in order, to a non-blocking descriptor with
// writev(2): one system call per 64 non-empty buffers instead of one
// per buffer. It returns the bytes written across all of bufs; a short
// count with ErrWouldBlock means the kernel buffer filled mid-vector.
// bufs and its elements are not modified.
func Writev(fd int, bufs [][]byte) (int, error) {
	var iov [maxIovecs]syscall.Iovec
	written := 0
	skip := 0 // bytes of bufs[0] already written
	for {
		n, off := 0, skip
		for _, b := range bufs {
			b, off = b[off:], 0
			if len(b) == 0 {
				continue
			}
			if n == len(iov) {
				break
			}
			iov[n].Base = &b[0]
			iov[n].SetLen(len(b))
			n++
		}
		if n == 0 {
			return written, nil
		}
		r, _, errno := syscall.Syscall(syscall.SYS_WRITEV, uintptr(fd), uintptr(unsafe.Pointer(&iov[0])), uintptr(n))
		switch errno {
		case 0:
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return written, ErrWouldBlock
		default:
			return written, errno
		}
		written += int(r)
		// Drop what was written from the front of bufs.
		skip += int(r)
		for len(bufs) > 0 && skip >= len(bufs[0]) {
			skip -= len(bufs[0])
			bufs = bufs[1:]
		}
	}
}

// CloseFd closes a raw descriptor.
func CloseFd(fd int) { _ = syscall.Close(fd) }
