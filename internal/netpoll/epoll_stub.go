//go:build !linux

package netpoll

import (
	"errors"
	"net"
)

// epollBackend does not exist off Linux. Serve refuses BackendEpoll
// before reaching newEpollBackend (epoller.Supported is false), so
// nothing here ever runs; it is what lets the package build.
type epollBackend struct{ serverBackend }

func newEpollBackend(*Server, *net.TCPListener) (*epollBackend, error) {
	return nil, errors.New("netpoll: epoll backend requires linux")
}

func (*epollBackend) start() {}
