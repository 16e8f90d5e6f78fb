package netpoll

import "sync"

// The read-buffer pool recycles Message backing arrays instead of
// allocating one per read. sync.Pool keeps its free lists per-P
// (per-core caches with a work-stealing overflow), so on the hot path
// a reactor shard or read pump gets back a buffer that was released by
// a handler on the same core — the same locality argument the paper
// makes for colored queues, applied to buffer memory. Every read is
// issued at readBufSize; a smaller one (tests) is a pool buffer cut
// short, and a larger one is allocated afresh.
const readBufSize = 16 << 10

var readBufPool sync.Pool

// getReadBuf returns a buffer of length size (capacity readBufSize
// unless size exceeds it).
func getReadBuf(size int) []byte {
	if size > readBufSize {
		return make([]byte, size)
	}
	if v := readBufPool.Get(); v != nil {
		return v.([]byte)[:size]
	}
	return make([]byte, size, readBufSize)
}

// putReadBuf returns a buffer obtained from getReadBuf. Foreign
// buffers (any other capacity) are dropped for the GC.
func putReadBuf(buf []byte) {
	if cap(buf) == readBufSize {
		readBufPool.Put(buf[:readBufSize]) //nolint:staticcheck // slice header allocation is amortized by the pool
	}
}
