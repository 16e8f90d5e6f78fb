package sfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/netpoll"
)

// ServerConfig configures an SFS server.
type ServerConfig struct {
	Runtime *mely.Runtime
	// Files is the in-memory store (the paper keeps the requested file
	// in the server's buffer cache, so serving is compute-bound).
	Files map[string][]byte
	// PSK is the pre-shared secret sessions derive their keys from.
	PSK []byte
	// CryptoPenalty is the ws_penalty annotation on the crypto handler
	// (its working set is the in-flight chunk, short-lived, so the
	// default penalty 1 lets thieves balance crypto freely — matching
	// the paper, where stealing helps SFS).
	CryptoPenalty int
	// ShedOverload answers READs with an OVERLOADED status while the
	// runtime is saturated (mely.Runtime.Saturated) instead of posting
	// more crypto work — the sealing of the tiny status frame is the
	// only CPU spent on a shed request. Only meaningful on a bounded
	// runtime.
	ShedOverload bool
}

// Server serves encrypted file reads on the mely runtime. Handlers:
// Decode (default color) parses frames and fetches file bytes; Crypto
// (per-connection color, the only CPU-intensive handler) seals the
// response; Send (default color) writes it out.
type Server struct {
	rt    *mely.Runtime
	files map[string][]byte
	keys  Keys

	hDecode, hCrypto, hSend mely.Handler

	srv          *netpoll.Server
	nonce        atomic.Uint64
	sent         atomic.Int64
	shedOverload bool
	shed         atomic.Int64
}

type cryptoJob struct {
	conn   *netpoll.Conn
	reqID  uint32
	status byte
	data   []byte
}

// sendJob carries a sealed frame from Crypto to Send. Jobs are recycled
// with their frame storage (sendJobs): once Conn.Send returns the frame
// is free again, because both netpoll backends copy whatever the kernel
// did not take.
type sendJob struct {
	conn  *netpoll.Conn
	frame []byte
}

var sendJobs = sync.Pool{New: func() any { return new(sendJob) }}

// sfsConnState buffers partial frames per connection. Decode runs under
// the default color, so a single goroutine... rather, a single color
// serializes all Decode handlers; the per-connection buffer still lives
// on the connection for locality.
type sfsConnState struct {
	buf bytes.Buffer
}

// NewServer builds the server and registers its handlers.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("sfs: nil runtime")
	}
	if len(cfg.PSK) == 0 {
		return nil, fmt.Errorf("sfs: empty pre-shared key")
	}
	if cfg.CryptoPenalty < 1 {
		cfg.CryptoPenalty = 1
	}
	s := &Server{rt: cfg.Runtime, files: cfg.Files, keys: DeriveKeys(cfg.PSK), shedOverload: cfg.ShedOverload}

	s.hSend = s.rt.Register("sfs.Send", func(ctx *mely.Ctx) {
		job := ctx.Data().(*sendJob)
		conn := job.conn
		err := conn.Send(job.frame)
		job.conn = nil
		sendJobs.Put(job)
		if err != nil {
			conn.Shutdown()
			return
		}
		s.sent.Add(1)
	})

	s.hCrypto = s.rt.Register("sfs.Crypto", func(ctx *mely.Ctx) {
		job := ctx.Data().(*cryptoJob)
		var nonce [nonceBytes]byte
		binary.BigEndian.PutUint64(nonce[:8], s.nonce.Add(1))
		out := sendJobs.Get().(*sendJob)
		frame, err := sealInto(out.frame, &s.keys, job.reqID, job.status, nonce, job.data)
		if err != nil {
			sendJobs.Put(out)
			job.conn.Shutdown()
			return
		}
		out.conn, out.frame = job.conn, frame
		if err := ctx.Post(s.hSend, mely.DefaultColor, out); err != nil {
			job.conn.Shutdown()
		}
	}, mely.WithPenalty(cfg.CryptoPenalty))

	s.hDecode = s.rt.Register("sfs.Decode", s.decode)
	return s, nil
}

// Serve starts accepting on ln. Decode input arrives under the default
// color (only crypto is colored, per the paper's scheme).
func (s *Server) Serve(ln net.Listener) error {
	srv, err := netpoll.Serve(ln, netpoll.Config{
		Runtime:     s.rt,
		OnAccept:    s.rt.Register("sfs.Accept", func(ctx *mely.Ctx) {}),
		AcceptColor: 1,
		OnData:      s.hDecode,
		DataColor:   func(*netpoll.Conn) mely.Color { return mely.DefaultColor },
	})
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

func (s *Server) decode(ctx *mely.Ctx) {
	msg := ctx.Data().(*netpoll.Message)
	st, ok := msg.Conn.UserData.(*sfsConnState)
	if !ok {
		st = &sfsConnState{}
		msg.Conn.UserData = st
	}
	st.buf.Write(msg.Data)
	msg.Release() // bytes copied into the frame buffer; recycle
	frames, rest, err := SplitFrames(st.buf.Bytes())
	if err != nil {
		msg.Conn.Shutdown()
		return
	}
	// Copy out the frames before compacting the buffer.
	jobs := make([]*cryptoJob, 0, len(frames))
	for _, f := range frames {
		req, err := DecodeRead(f)
		if err != nil {
			msg.Conn.Shutdown()
			return
		}
		if s.shedOverload && s.rt.Saturated(msg.Conn.Color()) {
			// Reject new crypto work while the runtime is saturated:
			// the client gets a sealed OVERLOADED status (cheap — no
			// payload to encrypt) instead of this READ's chunk joining
			// an already-bounded queue.
			s.shed.Add(1)
			jobs = append(jobs, &cryptoJob{conn: msg.Conn, reqID: req.ReqID, status: statusOverloaded})
			continue
		}
		jobs = append(jobs, s.lookup(msg.Conn, req))
	}
	remaining := append([]byte(nil), rest...)
	st.buf.Reset()
	st.buf.Write(remaining)

	for _, job := range jobs {
		// The CPU-intensive handler is colored per connection so
		// distinct clients encrypt in parallel.
		if err := ctx.Post(s.hCrypto, msg.Conn.Color(), job); err != nil {
			msg.Conn.Shutdown()
			return
		}
	}
}

// lookup resolves a READ against the store.
func (s *Server) lookup(conn *netpoll.Conn, req ReadRequest) *cryptoJob {
	job := &cryptoJob{conn: conn, reqID: req.ReqID}
	content, ok := s.files[req.Path]
	if !ok {
		job.status = statusNotFound
		return job
	}
	if req.Offset > uint64(len(content)) {
		job.status = statusBadRange
		return job
	}
	end := req.Offset + uint64(req.Length)
	if end > uint64(len(content)) {
		end = uint64(len(content))
	}
	job.status = statusOK
	job.data = content[req.Offset:end]
	return job
}

// Sent reports the number of responses written.
func (s *Server) Sent() int64 { return s.sent.Load() }

// Shed reports the number of READs answered OVERLOADED by the
// ShedOverload rejector.
func (s *Server) Shed() int64 { return s.shed.Load() }

// Addr reports the listen address (valid after Serve).
func (s *Server) Addr() net.Addr { return s.srv.Addr() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
