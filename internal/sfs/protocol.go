// Package sfs is the real counterpart of the paper's secure file
// server (SFS, Mazières et al.): clients read files over persistent TCP
// connections with all payloads encrypted and authenticated, making the
// server CPU-bound on cryptography. Following the paper's coloring
// scheme, only the CPU-intensive crypto handler is colored (per
// connection); protocol decode and send run under the default color.
//
// The wire protocol is a simplification — SFS's self-certifying key
// management is out of scope (the paper uses SFS as a crypto-heavy
// workload, not for its security architecture) — so sessions derive
// their cipher and MAC keys from a pre-shared secret. Requests are
// plaintext READ commands; responses carry AES-CTR ciphertext
// authenticated with HMAC-SHA256.
package sfs

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame layout: 4-byte big-endian payload length, then the payload.
// Request payload:  type(1)=1 reqID(4) pathLen(2) path offset(8) length(4)
// Response payload: type(1)=2 reqID(4) status(1) nonce(16) ctLen(4) ct mac(32)
const (
	typeRead     = 1
	typeResponse = 2

	statusOK         = 0
	statusNotFound   = 1
	statusBadRange   = 2
	statusOverloaded = 3

	nonceBytes = 16
	macBytes   = sha256.Size

	// MaxFrame bounds a frame to keep malicious lengths in check.
	MaxFrame = 4 << 20
)

var (
	// ErrBadFrame reports a malformed or oversized frame.
	ErrBadFrame = errors.New("sfs: malformed frame")
	// ErrBadMAC reports an authentication failure.
	ErrBadMAC = errors.New("sfs: message authentication failed")
)

// Keys holds the derived session keys.
type Keys struct {
	enc [32]byte
	mac [32]byte
}

// DeriveKeys expands a pre-shared secret into cipher and MAC keys.
func DeriveKeys(psk []byte) Keys {
	var k Keys
	e := sha256.Sum256(append(append([]byte{}, psk...), []byte("/enc")...))
	m := sha256.Sum256(append(append([]byte{}, psk...), []byte("/mac")...))
	k.enc, k.mac = e, m
	return k
}

// ReadRequest is a decoded READ command.
type ReadRequest struct {
	ReqID  uint32
	Path   string
	Offset uint64
	Length uint32
}

// EncodeRead marshals a READ request frame.
func EncodeRead(r ReadRequest) []byte {
	payload := make([]byte, 0, 1+4+2+len(r.Path)+8+4)
	payload = append(payload, typeRead)
	payload = binary.BigEndian.AppendUint32(payload, r.ReqID)
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(r.Path)))
	payload = append(payload, r.Path...)
	payload = binary.BigEndian.AppendUint64(payload, r.Offset)
	payload = binary.BigEndian.AppendUint32(payload, r.Length)
	return appendFrame(nil, payload)
}

// DecodeRead unmarshals a READ request payload.
func DecodeRead(payload []byte) (ReadRequest, error) {
	var r ReadRequest
	if len(payload) < 1+4+2 || payload[0] != typeRead {
		return r, ErrBadFrame
	}
	r.ReqID = binary.BigEndian.Uint32(payload[1:5])
	plen := int(binary.BigEndian.Uint16(payload[5:7]))
	rest := payload[7:]
	if len(rest) != plen+8+4 {
		return r, ErrBadFrame
	}
	r.Path = string(rest[:plen])
	r.Offset = binary.BigEndian.Uint64(rest[plen : plen+8])
	r.Length = binary.BigEndian.Uint32(rest[plen+8:])
	return r, nil
}

// Response is a decoded (and verified) response.
type Response struct {
	ReqID  uint32
	Status byte
	Data   []byte
}

// respHeaderBytes is the response payload up to the ciphertext:
// type(1) reqID(4) status(1) nonce(16) ctLen(4).
const respHeaderBytes = 1 + 4 + 1 + nonceBytes + 4

// Seal encrypts and authenticates a response. The nonce must be unique
// per key; the server uses a counter.
func Seal(k *Keys, reqID uint32, status byte, nonce [nonceBytes]byte, plaintext []byte) ([]byte, error) {
	return sealInto(nil, k, reqID, status, nonce, plaintext)
}

// sealInto is Seal building the frame in buf's storage when it is large
// enough: the ciphertext is written straight to its place in the frame
// and the MAC appended behind it, so a chunk costs no copy beyond the
// encryption itself. buf must not overlap plaintext.
func sealInto(buf []byte, k *Keys, reqID uint32, status byte, nonce [nonceBytes]byte, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(k.enc[:])
	if err != nil {
		return nil, err
	}
	n := FrameSize(len(plaintext))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	frame := buf[:4]
	binary.BigEndian.PutUint32(frame, uint32(n-4))
	frame = append(frame, typeResponse)
	frame = binary.BigEndian.AppendUint32(frame, reqID)
	frame = append(frame, status)
	frame = append(frame, nonce[:]...)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(plaintext)))
	ct := frame[len(frame) : len(frame)+len(plaintext)]
	cipher.NewCTR(block, nonce[:]).XORKeyStream(ct, plaintext)
	frame = frame[:len(frame)+len(ct)]

	mac := hmac.New(sha256.New, k.mac[:])
	mac.Write(frame[4:])
	return mac.Sum(frame), nil
}

// Open verifies and decrypts a response payload.
func Open(k *Keys, payload []byte) (Response, error) {
	r, nonce, ct, err := verify(k, payload)
	if err != nil {
		return r, err
	}
	r.Data = make([]byte, len(ct))
	return r, decrypt(k, nonce, r.Data, ct)
}

// verify authenticates a response payload and splits it: the returned
// Response has no Data yet, nonce and ct alias payload.
func verify(k *Keys, payload []byte) (r Response, nonce, ct []byte, err error) {
	if len(payload) < respHeaderBytes+macBytes || payload[0] != typeResponse {
		return r, nil, nil, ErrBadFrame
	}
	body := payload[:len(payload)-macBytes]
	tag := payload[len(payload)-macBytes:]
	mac := hmac.New(sha256.New, k.mac[:])
	mac.Write(body)
	var sum [macBytes]byte
	if !hmac.Equal(tag, mac.Sum(sum[:0])) {
		return r, nil, nil, ErrBadMAC
	}

	r.ReqID = binary.BigEndian.Uint32(body[1:5])
	r.Status = body[5]
	nonce = body[6 : 6+nonceBytes]
	ctLen := int(binary.BigEndian.Uint32(body[6+nonceBytes : respHeaderBytes]))
	ct = body[respHeaderBytes:]
	if len(ct) != ctLen {
		return r, nil, nil, ErrBadFrame
	}
	return r, nonce, ct, nil
}

// decrypt writes the plaintext of ct[:len(dst)] to dst, which must not
// overlap ct.
func decrypt(k *Keys, nonce, dst, ct []byte) error {
	block, err := aes.NewCipher(k.enc[:])
	if err != nil {
		return err
	}
	cipher.NewCTR(block, nonce).XORKeyStream(dst, ct[:len(dst)])
	return nil
}

// appendFrame appends a length-prefixed frame.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// SplitFrames extracts complete frames from buf, returning the frames
// and the remaining bytes.
func SplitFrames(buf []byte) (frames [][]byte, rest []byte, err error) {
	rest = buf
	for {
		if len(rest) < 4 {
			return frames, rest, nil
		}
		n := binary.BigEndian.Uint32(rest[:4])
		if n > MaxFrame {
			return nil, nil, fmt.Errorf("%w: frame of %d bytes", ErrBadFrame, n)
		}
		if len(rest) < 4+int(n) {
			return frames, rest, nil
		}
		frames = append(frames, rest[4:4+n])
		rest = rest[4+int(n):]
	}
}
