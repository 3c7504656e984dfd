// Package wsproto is a from-scratch RFC 6455 WebSocket implementation
// over net.Conn: the opening handshake (Sec-WebSocket-Key/Accept),
// frame encoding and decoding with client masking, fragmentation,
// control frames (ping/pong/close), and close-code semantics.
//
// Jupyter multiplexes all kernel channels over one WebSocket; the
// paper's observability argument is that network tools must parse this
// layer before they can see any Jupyter semantics. The netmon package
// reuses the frame codec here as its analyzer, so the monitor and the
// server agree byte-for-byte on the protocol.
package wsproto

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Opcode is a WebSocket frame opcode.
type Opcode byte

// RFC 6455 opcodes.
const (
	OpContinuation Opcode = 0x0
	OpText         Opcode = 0x1
	OpBinary       Opcode = 0x2
	OpClose        Opcode = 0x8
	OpPing         Opcode = 0x9
	OpPong         Opcode = 0xA
)

// Control reports whether the opcode is a control opcode.
func (op Opcode) Control() bool { return op >= 0x8 }

// String returns the opcode name.
func (op Opcode) String() string {
	switch op {
	case OpContinuation:
		return "continuation"
	case OpText:
		return "text"
	case OpBinary:
		return "binary"
	case OpClose:
		return "close"
	case OpPing:
		return "ping"
	case OpPong:
		return "pong"
	}
	return fmt.Sprintf("opcode(%#x)", byte(op))
}

// Close codes from RFC 6455 §7.4.1.
const (
	CloseNormal          = 1000
	CloseGoingAway       = 1001
	CloseProtocolError   = 1002
	CloseUnsupported     = 1003
	CloseInvalidPayload  = 1007
	ClosePolicyViolation = 1008
	CloseTooBig          = 1009
	CloseInternalError   = 1011
)

// Protocol errors.
var (
	ErrBadHandshake     = errors.New("wsproto: bad handshake")
	ErrReservedBits     = errors.New("wsproto: non-zero reserved bits")
	ErrFragmentedCtl    = errors.New("wsproto: fragmented control frame")
	ErrControlTooLong   = errors.New("wsproto: control frame payload > 125")
	ErrUnmaskedClient   = errors.New("wsproto: client frame not masked")
	ErrMaskedServer     = errors.New("wsproto: server frame masked")
	ErrMessageTooBig    = errors.New("wsproto: message exceeds size limit")
	ErrUnexpectedOpcode = errors.New("wsproto: unexpected opcode")
	ErrClosed           = errors.New("wsproto: connection closed")
)

// magicGUID is the RFC 6455 handshake GUID.
const magicGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// AcceptKey computes Sec-WebSocket-Accept for a Sec-WebSocket-Key.
func AcceptKey(key string) string {
	h := sha1.Sum([]byte(key + magicGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// Frame is one decoded WebSocket frame.
type Frame struct {
	Fin     bool
	Opcode  Opcode
	Masked  bool
	Payload []byte
}

// Header returns the encoded frame header for a payload of the frame's
// length, with the given masking key (nil for unmasked).
func appendHeader(dst []byte, fin bool, op Opcode, payloadLen int, maskKey []byte) []byte {
	b0 := byte(op)
	if fin {
		b0 |= 0x80
	}
	dst = append(dst, b0)
	maskBit := byte(0)
	if maskKey != nil {
		maskBit = 0x80
	}
	switch {
	case payloadLen < 126:
		dst = append(dst, maskBit|byte(payloadLen))
	case payloadLen <= 0xFFFF:
		dst = append(dst, maskBit|126)
		var ext [2]byte
		binary.BigEndian.PutUint16(ext[:], uint16(payloadLen))
		dst = append(dst, ext[:]...)
	default:
		dst = append(dst, maskBit|127)
		var ext [8]byte
		binary.BigEndian.PutUint64(ext[:], uint64(payloadLen))
		dst = append(dst, ext[:]...)
	}
	if maskKey != nil {
		dst = append(dst, maskKey...)
	}
	return dst
}

// maskBytes XORs payload in place with the 4-byte key starting at
// offset pos, returning the next offset.
func maskBytes(key []byte, pos int, b []byte) int {
	// Eight bytes at a time: 8 is a multiple of the key length, so the
	// key read twice over from offset pos masks every 8-byte word
	// counted from the start of b. The byte loop takes the tail.
	if n := len(b) &^ 7; n > 0 {
		var k8 [8]byte
		for i := range k8 {
			k8[i] = key[(pos+i)&3]
		}
		k := binary.LittleEndian.Uint64(k8[:])
		for i := 0; i < n; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], binary.LittleEndian.Uint64(b[i:])^k)
		}
		pos += n
		b = b[n:]
	}
	for i := range b {
		b[i] ^= key[pos&3]
		pos++
	}
	return pos
}

// EncodeFrame encodes a single complete frame. If maskKey is non-nil
// it must be 4 bytes and the payload is masked (client→server
// direction). The payload slice is not modified.
func EncodeFrame(fin bool, op Opcode, payload, maskKey []byte) []byte {
	out := appendHeader(make([]byte, 0, len(payload)+14), fin, op, len(payload), maskKey)
	if maskKey == nil {
		return append(out, payload...)
	}
	start := len(out)
	out = append(out, payload...)
	maskBytes(maskKey, 0, out[start:])
	return out
}

// FrameReader decodes frames from a byte stream.
type FrameReader struct {
	r        *bufio.Reader
	maxFrame int
}

// NewFrameReader wraps r with a frame decoder. maxFrame bounds single
// frame payloads; <=0 means the 64 MiB default.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	if maxFrame <= 0 {
		maxFrame = 64 << 20
	}
	return &FrameReader{r: bufio.NewReader(r), maxFrame: maxFrame}
}

// ReadFrame reads and unmasks the next frame.
func (fr *FrameReader) ReadFrame() (*Frame, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	fin := hdr[0]&0x80 != 0
	if hdr[0]&0x70 != 0 {
		return nil, ErrReservedBits
	}
	op := Opcode(hdr[0] & 0x0F)
	masked := hdr[1]&0x80 != 0
	length := uint64(hdr[1] & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(fr.r, ext[:]); err != nil {
			return nil, err
		}
		length = uint64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(fr.r, ext[:]); err != nil {
			return nil, err
		}
		length = binary.BigEndian.Uint64(ext[:])
	}
	if op.Control() {
		if !fin {
			return nil, ErrFragmentedCtl
		}
		if length > 125 {
			return nil, ErrControlTooLong
		}
	}
	if length > uint64(fr.maxFrame) {
		return nil, ErrMessageTooBig
	}
	var maskKey [4]byte
	if masked {
		if _, err := io.ReadFull(fr.r, maskKey[:]); err != nil {
			return nil, err
		}
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	if masked {
		maskBytes(maskKey[:], 0, payload)
	}
	return &Frame{Fin: fin, Opcode: op, Masked: masked, Payload: payload}, nil
}

// Conn is an established WebSocket connection. It enforces the
// role-dependent masking rules: clients mask outgoing frames, servers
// must not; each side validates the peer's compliance.
type Conn struct {
	raw      net.Conn
	fr       *FrameReader
	isClient bool
	maxMsg   int
	rng      *rand.Rand

	wmu    sync.Mutex
	closed bool

	// CloseCode and CloseReason record the peer's close frame.
	CloseCode   int
	CloseReason string
}

func newConn(raw net.Conn, isClient bool, maxMsg int) *Conn {
	if maxMsg <= 0 {
		maxMsg = 64 << 20
	}
	return &Conn{
		raw: raw, fr: NewFrameReader(raw, maxMsg),
		isClient: isClient, maxMsg: maxMsg,
		rng: rand.New(rand.NewSource(0x6a757079)), // masking keys need no crypto strength
	}
}

// Underlying returns the wrapped net.Conn.
func (c *Conn) Underlying() net.Conn { return c.raw }

// WriteMessage sends one complete message (no fragmentation).
func (c *Conn) WriteMessage(op Opcode, payload []byte) error {
	var mask []byte
	if c.isClient {
		var k [4]byte
		binary.BigEndian.PutUint32(k[:], c.rng.Uint32())
		mask = k[:]
	}
	frame := EncodeFrame(true, op, payload, mask)
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return ErrClosed
	}
	_, err := c.raw.Write(frame)
	return err
}

// WriteFragmented sends a message split into chunkSize fragments, used
// by tests and by the low-and-slow attack driver.
func (c *Conn) WriteFragmented(op Opcode, payload []byte, chunkSize int) error {
	if chunkSize <= 0 || chunkSize >= len(payload) {
		return c.WriteMessage(op, payload)
	}
	first := true
	for len(payload) > 0 {
		n := chunkSize
		if n > len(payload) {
			n = len(payload)
		}
		chunk := payload[:n]
		payload = payload[n:]
		fop := OpContinuation
		if first {
			fop = op
			first = false
		}
		var mask []byte
		if c.isClient {
			var k [4]byte
			binary.BigEndian.PutUint32(k[:], c.rng.Uint32())
			mask = k[:]
		}
		frame := EncodeFrame(len(payload) == 0, fop, chunk, mask)
		c.wmu.Lock()
		if c.closed {
			c.wmu.Unlock()
			return ErrClosed
		}
		_, err := c.raw.Write(frame)
		c.wmu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadMessage reads the next complete data message, transparently
// answering pings and reassembling fragments. It returns the data
// opcode (text or binary) and full payload. A close frame yields
// ErrClosed with CloseCode/CloseReason populated.
func (c *Conn) ReadMessage() (Opcode, []byte, error) {
	var (
		msgOp  Opcode
		buf    []byte
		inFrag bool
	)
	for {
		f, err := c.fr.ReadFrame()
		if err != nil {
			return 0, nil, err
		}
		// Masking direction checks.
		if c.isClient && f.Masked {
			return 0, nil, ErrMaskedServer
		}
		if !c.isClient && !f.Masked && !f.Opcode.Control() {
			return 0, nil, ErrUnmaskedClient
		}
		switch f.Opcode {
		case OpPing:
			if err := c.WriteMessage(OpPong, f.Payload); err != nil {
				return 0, nil, err
			}
			continue
		case OpPong:
			continue
		case OpClose:
			c.CloseCode, c.CloseReason = ParseClosePayload(f.Payload)
			_ = c.writeCloseLocked(c.CloseCode, "")
			return 0, nil, ErrClosed
		case OpText, OpBinary:
			if inFrag {
				return 0, nil, ErrUnexpectedOpcode
			}
			if f.Fin {
				return f.Opcode, f.Payload, nil
			}
			msgOp, buf, inFrag = f.Opcode, append([]byte(nil), f.Payload...), true
		case OpContinuation:
			if !inFrag {
				return 0, nil, ErrUnexpectedOpcode
			}
			buf = append(buf, f.Payload...)
			if len(buf) > c.maxMsg {
				return 0, nil, ErrMessageTooBig
			}
			if f.Fin {
				return msgOp, buf, nil
			}
		default:
			return 0, nil, ErrUnexpectedOpcode
		}
	}
}

// ParseClosePayload decodes a close frame payload.
func ParseClosePayload(p []byte) (code int, reason string) {
	if len(p) < 2 {
		return CloseNormal, ""
	}
	return int(binary.BigEndian.Uint16(p[:2])), string(p[2:])
}

// ClosePayload encodes a close frame payload.
func ClosePayload(code int, reason string) []byte {
	p := make([]byte, 2+len(reason))
	binary.BigEndian.PutUint16(p, uint16(code))
	copy(p[2:], reason)
	return p
}

func (c *Conn) writeCloseLocked(code int, reason string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var mask []byte
	if c.isClient {
		mask = []byte{0, 0, 0, 0}
	}
	frame := EncodeFrame(true, OpClose, ClosePayload(code, reason), mask)
	// The close frame is best-effort: a peer that has stopped reading
	// must not wedge shutdown, so bound the write.
	_ = c.raw.SetWriteDeadline(time.Now().Add(250 * time.Millisecond))
	_, err := c.raw.Write(frame)
	_ = c.raw.SetWriteDeadline(time.Time{})
	return err
}

// Close sends a close frame and closes the transport.
func (c *Conn) Close(code int, reason string) error {
	err := c.writeCloseLocked(code, reason)
	if cerr := c.raw.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- Handshakes ----

// CloseCodeForError maps a ReadMessage/ReadFrame error onto the RFC
// 6455 close code a server should send before dropping the
// connection: protocol violations (masking, reserved bits, fragment
// discipline) are 1002, an oversized message is 1009, anything else
// (I/O, decode) is 1011. Servers that close with the right code give
// compliant clients an actionable reason instead of a bare TCP reset.
func CloseCodeForError(err error) int {
	switch {
	case errors.Is(err, ErrMessageTooBig):
		return CloseTooBig
	case errors.Is(err, ErrReservedBits), errors.Is(err, ErrFragmentedCtl),
		errors.Is(err, ErrControlTooLong), errors.Is(err, ErrUnmaskedClient),
		errors.Is(err, ErrMaskedServer), errors.Is(err, ErrUnexpectedOpcode):
		return CloseProtocolError
	default:
		return CloseInternalError
	}
}

// Upgrade performs the server side of the opening handshake on an
// http.ResponseWriter that supports hijacking, returning the
// WebSocket connection with the default 64 MiB message limit.
func Upgrade(w http.ResponseWriter, r *http.Request) (*Conn, error) {
	return UpgradeLimit(w, r, 0)
}

// UpgradeLimit is Upgrade with an explicit per-message size limit
// (maxMsg <= 0 means the 64 MiB default). Ingest-style endpoints that
// accept frames from untrusted agents must bound what one message can
// buffer; ReadMessage fails with ErrMessageTooBig beyond the limit,
// which CloseCodeForError maps to close code 1009.
func UpgradeLimit(w http.ResponseWriter, r *http.Request, maxMsg int) (*Conn, error) {
	if !IsUpgradeRequest(r) {
		http.Error(w, "not a websocket upgrade", http.StatusBadRequest)
		return nil, ErrBadHandshake
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		http.Error(w, "missing Sec-WebSocket-Key", http.StatusBadRequest)
		return nil, ErrBadHandshake
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "cannot hijack", http.StatusInternalServerError)
		return nil, errors.New("wsproto: response writer does not support hijacking")
	}
	raw, rw, err := hj.Hijack()
	if err != nil {
		return nil, fmt.Errorf("wsproto: hijack: %w", err)
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + AcceptKey(key) + "\r\n\r\n"
	if _, err := rw.WriteString(resp); err != nil {
		raw.Close()
		return nil, err
	}
	if err := rw.Flush(); err != nil {
		raw.Close()
		return nil, err
	}
	return newConn(raw, false, maxMsg), nil
}

// IsUpgradeRequest reports whether r is a WebSocket upgrade request.
func IsUpgradeRequest(r *http.Request) bool {
	return strings.EqualFold(r.Header.Get("Upgrade"), "websocket") &&
		headerContainsToken(r.Header.Get("Connection"), "upgrade")
}

func headerContainsToken(header, token string) bool {
	for _, part := range strings.Split(header, ",") {
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

// Dial performs the client side of the handshake over an established
// net.Conn. path is the request target; host fills the Host header;
// extra headers (e.g. Authorization) may be supplied.
func Dial(raw net.Conn, host, path string, extra http.Header) (*Conn, error) {
	keyBytes := make([]byte, 16)
	rng := rand.New(rand.NewSource(int64(len(path))*7919 + int64(len(host))))
	for i := range keyBytes {
		keyBytes[i] = byte(rng.Intn(256))
	}
	key := base64.StdEncoding.EncodeToString(keyBytes)

	var req strings.Builder
	fmt.Fprintf(&req, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&req, "Host: %s\r\n", host)
	req.WriteString("Upgrade: websocket\r\nConnection: Upgrade\r\n")
	fmt.Fprintf(&req, "Sec-WebSocket-Key: %s\r\n", key)
	req.WriteString("Sec-WebSocket-Version: 13\r\n")
	for k, vs := range extra {
		for _, v := range vs {
			fmt.Fprintf(&req, "%s: %s\r\n", k, v)
		}
	}
	req.WriteString("\r\n")
	if _, err := raw.Write([]byte(req.String())); err != nil {
		return nil, err
	}

	br := bufio.NewReader(raw)
	resp, err := http.ReadResponse(br, &http.Request{Method: "GET"})
	if err != nil {
		return nil, fmt.Errorf("wsproto: read handshake response: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		return nil, fmt.Errorf("%w: status %d", ErrBadHandshake, resp.StatusCode)
	}
	if got := resp.Header.Get("Sec-WebSocket-Accept"); got != AcceptKey(key) {
		return nil, fmt.Errorf("%w: bad accept key", ErrBadHandshake)
	}
	c := newConn(raw, true, 0)
	// The response reader may have buffered frames; keep using it.
	c.fr = NewFrameReader(br, c.maxMsg)
	return c, nil
}
