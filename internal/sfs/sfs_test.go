package sfs

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"

	"github.com/melyruntime/mely"
)

var psk = []byte("test-shared-secret")

func TestSealOpenRoundTrip(t *testing.T) {
	keys := DeriveKeys(psk)
	var nonce [nonceBytes]byte
	nonce[0] = 7
	plain := []byte("the quick brown fox")
	frame, err := Seal(&keys, 42, statusOK, nonce, plain)
	if err != nil {
		t.Fatal(err)
	}
	frames, rest, err := SplitFrames(frame)
	if err != nil || len(frames) != 1 || len(rest) != 0 {
		t.Fatalf("framing: %v %d %d", err, len(frames), len(rest))
	}
	resp, err := Open(&keys, frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReqID != 42 || resp.Status != statusOK || !bytes.Equal(resp.Data, plain) {
		t.Fatalf("round trip mismatch: %+v", resp)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	keys := DeriveKeys(psk)
	var nonce [nonceBytes]byte
	frame, err := Seal(&keys, 1, statusOK, nonce, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	frames, _, _ := SplitFrames(frame)
	tampered := append([]byte(nil), frames[0]...)
	tampered[len(tampered)/2] ^= 0xff
	if _, err := Open(&keys, tampered); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered frame must fail MAC, got %v", err)
	}
	// Wrong key fails too.
	other := DeriveKeys([]byte("other"))
	if _, err := Open(&other, frames[0]); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("wrong key must fail MAC, got %v", err)
	}
}

func TestEncodeDecodeRead(t *testing.T) {
	f := func(id uint32, path string, off uint64, length uint32) bool {
		if len(path) > 60000 {
			path = path[:60000]
		}
		frame := EncodeRead(ReadRequest{ReqID: id, Path: path, Offset: off, Length: length})
		frames, rest, err := SplitFrames(frame)
		if err != nil || len(frames) != 1 || len(rest) != 0 {
			return false
		}
		got, err := DecodeRead(frames[0])
		if err != nil {
			return false
		}
		return got.ReqID == id && got.Path == path && got.Offset == off && got.Length == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeReadRejectsGarbage(t *testing.T) {
	if _, err := DecodeRead([]byte{}); err == nil {
		t.Error("empty payload must fail")
	}
	if _, err := DecodeRead([]byte{9, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("wrong type must fail")
	}
	if _, err := DecodeRead([]byte{typeRead, 0, 0, 0, 0, 0, 99}); err == nil {
		t.Error("truncated path must fail")
	}
}

func TestSplitFramesPartial(t *testing.T) {
	full := EncodeRead(ReadRequest{ReqID: 1, Path: "/f", Length: 10})
	// Feed byte by byte: no frame until complete.
	for i := 1; i < len(full); i++ {
		frames, rest, err := SplitFrames(full[:i])
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != 0 || len(rest) != i {
			t.Fatalf("premature frame at %d bytes", i)
		}
	}
	frames, rest, err := SplitFrames(full)
	if err != nil || len(frames) != 1 || len(rest) != 0 {
		t.Fatalf("complete frame not extracted: %v %d %d", err, len(frames), len(rest))
	}
}

func TestSplitFramesRejectsOversized(t *testing.T) {
	var huge [8]byte
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := SplitFrames(huge[:]); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

// startServer brings up a real SFS server on a loopback listener.
func startServer(t *testing.T, files map[string][]byte) *Server {
	t.Helper()
	rt, err := mely.New(mely.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	srv, err := NewServer(ServerConfig{Runtime: rt, Files: files, PSK: psk})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Drain(ctx)
	})
	return srv
}

func TestEndToEndRead(t *testing.T) {
	content := make([]byte, 300<<10) // spans several chunks
	rng := rand.New(rand.NewSource(1))
	rng.Read(content)
	srv := startServer(t, map[string][]byte{"/data": content})

	client, err := Dial(srv.Addr().String(), psk)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := client.ReadFile("/data", len(content))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("file corrupted in transit")
	}
}

func TestEndToEndNotFound(t *testing.T) {
	srv := startServer(t, map[string][]byte{})
	client, err := Dial(srv.Addr().String(), psk)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.ReadFile("/missing", 100); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestEndToEndConcurrentClients(t *testing.T) {
	content := make([]byte, 128<<10)
	rand.New(rand.NewSource(2)).Read(content)
	srv := startServer(t, map[string][]byte{"/f": content})

	const clients = 4
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			client, err := Dial(srv.Addr().String(), psk)
			if err != nil {
				errc <- err
				return
			}
			defer client.Close()
			client.SetChunk(16 << 10)
			got, err := client.ReadFile("/f", len(content))
			if err == nil && !bytes.Equal(got, content) {
				err = errors.New("corrupt")
			}
			errc <- err
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerConfigValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("nil runtime must fail")
	}
	rt, _ := mely.New(mely.Config{Cores: 1})
	if _, err := NewServer(ServerConfig{Runtime: rt}); err == nil {
		t.Fatal("empty PSK must fail")
	}
}

// Property: Seal/Open round-trips arbitrary payloads and ids.
func TestSealOpenProperty(t *testing.T) {
	keys := DeriveKeys(psk)
	f := func(id uint32, status byte, nonceSeed int64, payload []byte) bool {
		var nonce [nonceBytes]byte
		rand.New(rand.NewSource(nonceSeed)).Read(nonce[:])
		frame, err := Seal(&keys, id, status, nonce, payload)
		if err != nil {
			return false
		}
		frames, rest, err := SplitFrames(frame)
		if err != nil || len(frames) != 1 || len(rest) != 0 {
			return false
		}
		resp, err := Open(&keys, frames[0])
		if err != nil {
			return false
		}
		return resp.ReqID == id && resp.Status == status && bytes.Equal(resp.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSealOpenLeaveInputsIntact: callers seal one plaintext and open one
// frame over and over; neither call may write to what it was given, and
// sealing into recycled storage must produce the same bytes as a fresh
// Seal whatever the storage held before.
func TestSealOpenLeaveInputsIntact(t *testing.T) {
	keys := DeriveKeys(psk)
	plain := make([]byte, 4<<10)
	rand.New(rand.NewSource(3)).Read(plain)
	plainCopy := append([]byte(nil), plain...)
	nonce := [nonceBytes]byte{7}

	frame, err := Seal(&keys, 9, statusOK, nonce, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, plainCopy) {
		t.Fatal("Seal wrote to its plaintext")
	}
	if len(frame) != FrameSize(len(plain)) {
		t.Fatalf("frame is %d bytes, FrameSize says %d", len(frame), FrameSize(len(plain)))
	}
	dirty := bytes.Repeat([]byte{0xAA}, len(frame)+100)
	again, err := sealInto(dirty, &keys, 9, statusOK, nonce, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) {
		t.Fatal("sealing into recycled storage changed the frame")
	}
	if &again[0] != &dirty[0] {
		t.Fatal("sealInto did not reuse storage that was large enough")
	}

	frameCopy := append([]byte(nil), frame...)
	for i := 0; i < 2; i++ {
		resp, err := Open(&keys, frame[4:])
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if !bytes.Equal(resp.Data, plain) || !bytes.Equal(frame, frameCopy) {
			t.Fatalf("open %d: wrong plaintext or frame written to", i)
		}
	}
}

// TestReadFileSizes: chunks are decrypted straight into the result, so
// the sizes that do not line up with the chunk grid are the risky ones —
// a size short of the file cuts the last chunk, a size past it (within
// the same chunk) returns the file.
func TestReadFileSizes(t *testing.T) {
	content := make([]byte, 40<<10+123)
	rand.New(rand.NewSource(4)).Read(content)
	srv := startServer(t, map[string][]byte{"/f": content})
	client, err := Dial(srv.Addr().String(), psk)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetChunk(16 << 10)
	for _, size := range []int{0, 1, 16 << 10, 16<<10 + 1, len(content) - 5, len(content), len(content) + 900} {
		got, err := client.ReadFile("/f", size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		want := content[:min(size, len(content))]
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: got %d bytes, want %d, or contents differ", size, len(got), len(want))
		}
	}
}
