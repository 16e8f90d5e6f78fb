// Package epoller is a thin reactor layer over raw Linux epoll: an
// edge-triggered epoll instance with 64-bit event tokens, a wake pipe
// for out-of-band kicks, and the non-blocking descriptor operations
// (accept4, read, write, writev) a readiness loop needs, all via the syscall
// package with no cgo and no extra dependencies.
//
// It exists so the mely runtime can own the event loop the way the
// paper's runtime does: internal/netpoll's epoll backend runs one
// reactor goroutine per poller shard, each harvesting readiness in
// batches and posting colored events — connection count no longer
// drives goroutine count. On non-Linux platforms Supported is false
// and New fails; netpoll falls back to its portable pump backend.
//
// Concurrency contract: Wait belongs to a single reactor goroutine;
// Add, Mod, Del, Wake, and Close are safe from any goroutine
// (epoll_ctl is thread-safe against a concurrent epoll_wait).
package epoller
