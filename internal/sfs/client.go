package sfs

import (
	"errors"
	"fmt"
	"io"
	"net"
)

// ErrOverloaded reports a READ rejected by a server shedding load
// (ServerConfig.ShedOverload). Callers distinguish it with errors.Is to
// count sheds separately from hard failures.
var ErrOverloaded = errors.New("sfs: server overloaded")

// clientReadBytes is the least room a connection read is offered.
const clientReadBytes = 64 << 10

// Client reads files from an SFS server over one persistent connection,
// with a read-ahead window like the multio benchmark. Client is not
// safe for concurrent use; run one per goroutine (as multio runs one
// per load machine).
type Client struct {
	conn net.Conn
	keys Keys
	// buf holds bytes read off the connection; buf[rd:] is unconsumed.
	buf   []byte
	rd    int
	next  uint32
	chunk uint32
	ahead int
}

// Dial connects to an SFS server.
func Dial(addr string, psk []byte) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn:  conn,
		keys:  DeriveKeys(psk),
		chunk: 64 << 10,
		ahead: 4,
	}, nil
}

// SetChunk adjusts the per-request read size.
func (c *Client) SetChunk(bytes uint32) { c.chunk = bytes }

// SetReadAhead adjusts the outstanding-request window.
func (c *Client) SetReadAhead(n int) {
	if n < 1 {
		n = 1
	}
	c.ahead = n
}

// ReadFile fetches a whole file, issuing chunked READs with the
// read-ahead window; every response is verified, then decrypted
// straight into its place in the result.
func (c *Client) ReadFile(path string, size int) ([]byte, error) {
	out := make([]byte, size)
	inflight := make(map[uint32]uint64, c.ahead) // request id → offset

	var (
		sendOff uint64
		end     int // highest byte of out written
	)
	send := func() error {
		if len(inflight) >= c.ahead || sendOff >= uint64(size) {
			return nil
		}
		id := c.next
		c.next++
		req := EncodeRead(ReadRequest{ReqID: id, Path: path, Offset: sendOff, Length: c.chunk})
		if _, err := c.conn.Write(req); err != nil {
			return err
		}
		inflight[id] = sendOff
		sendOff += uint64(c.chunk)
		return nil
	}
	for i := 0; i < c.ahead; i++ {
		if err := send(); err != nil {
			return nil, err
		}
	}

	for len(inflight) > 0 {
		payload, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		resp, nonce, ct, err := verify(&c.keys, payload)
		if err != nil {
			return nil, err
		}
		off, ok := inflight[resp.ReqID]
		if !ok {
			return nil, fmt.Errorf("sfs: unexpected response id %d", resp.ReqID)
		}
		delete(inflight, resp.ReqID)
		if resp.Status == statusOverloaded {
			return nil, fmt.Errorf("%w (offset %d)", ErrOverloaded, off)
		}
		if resp.Status != statusOK {
			return nil, fmt.Errorf("sfs: server status %d for offset %d", resp.Status, off)
		}
		// Requests start below size, so off indexes out; a last chunk
		// reaching past size is cut there.
		dst := out[off:]
		if len(dst) > len(ct) {
			dst = dst[:len(ct)]
		}
		if err := decrypt(&c.keys, nonce, dst, ct); err != nil {
			return nil, err
		}
		if e := int(off) + len(dst); e > end {
			end = e
		}
		if err := send(); err != nil {
			return nil, err
		}
	}
	return out[:end], nil
}

// readFrame returns the payload of the next framed response. It aliases
// the client's read buffer and is valid until the next call.
func (c *Client) readFrame() ([]byte, error) {
	for {
		frames, _, err := SplitFrames(c.buf[c.rd:])
		if err != nil {
			return nil, err
		}
		if len(frames) > 0 {
			c.rd += 4 + len(frames[0])
			return frames[0], nil
		}
		// Make room for one more read: slide the unconsumed bytes to
		// the front once the tail runs short, and grow only when a
		// frame is larger than the buffer.
		if cap(c.buf)-len(c.buf) < clientReadBytes {
			unread, dst := c.buf[c.rd:], c.buf[:0]
			if cap(c.buf)-len(unread) < clientReadBytes {
				dst = make([]byte, 0, 2*cap(c.buf)+clientReadBytes)
			}
			c.buf, c.rd = append(dst, unread...), 0
		}
		n, err := c.conn.Read(c.buf[len(c.buf):cap(c.buf)])
		c.buf = c.buf[:len(c.buf)+n]
		if n > 0 {
			continue
		}
		if err != nil {
			if err == io.EOF {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// FrameSize reports the wire size of a sealed chunk of dataLen bytes.
func FrameSize(dataLen int) int {
	return 4 + respHeaderBytes + dataLen + macBytes
}
