package wsproto

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// The frame reader consumes attacker-controlled bytes directly off the
// network; it must never panic and never allocate unboundedly for any
// input.

func TestFrameReaderNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("ReadFrame panicked on %x: %v", data, r)
			}
		}()
		fr := NewFrameReader(bytes.NewReader(data), 1<<20)
		for i := 0; i < 16; i++ {
			if _, err := fr.ReadFrame(); err != nil {
				return true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFrameReaderBoundedAllocationOnLyingLength(t *testing.T) {
	// A header claiming a huge payload with no bytes behind it must
	// fail at the size check, not attempt the allocation.
	hdr := []byte{0x82, 127, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	fr := NewFrameReader(bytes.NewReader(hdr), 1<<20)
	if _, err := fr.ReadFrame(); err != ErrMessageTooBig {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameReaderTruncatedEverywhere(t *testing.T) {
	full := EncodeFrame(true, OpBinary, bytes.Repeat([]byte{0xAA}, 300), []byte{1, 2, 3, 4})
	for cut := 0; cut < len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]), 0)
		if _, err := fr.ReadFrame(); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestConnReadMessageGarbageStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, rng.Intn(512))
		rng.Read(data)
		fr := NewFrameReader(bytes.NewReader(data), 1<<16)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on garbage stream: %v", r)
				}
			}()
			for i := 0; i < 8; i++ {
				if _, err := fr.ReadFrame(); err != nil {
					return
				}
			}
		}()
	}
}

// fuzzConn is a net.Conn whose reads come from a fixed byte stream and
// whose writes (pongs, the close reply) go nowhere.
type fuzzConn struct {
	net.Conn
	r *bytes.Reader
}

func (c fuzzConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c fuzzConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzFrameReader feeds arbitrary bytes to the frame reader and to
// ReadMessage in both roles. Property: every input gives a frame (or a
// message) or an error, never a panic, never a payload longer than the
// frame limit, and a reassembled message never longer than the message
// limit. The seeds cover fragmentation, oversized and negative (high
// bit set) lengths, unmasked client frames, control frames between
// fragments and close-payload edges, besides the truncation and
// garbage shapes of the tests above. The CI fuzz-smoke step picks this
// target up automatically.
func FuzzFrameReader(f *testing.F) {
	const limit = 1 << 10
	key := []byte{1, 2, 3, 4}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	full := EncodeFrame(true, OpBinary, bytes.Repeat([]byte{0xAA}, 300), key)
	for cut := 0; cut < len(full); cut += 37 {
		f.Add(full[:cut])
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		garbage := make([]byte, rng.Intn(512))
		rng.Read(garbage)
		f.Add(garbage)
	}
	f.Add([]byte{0x82, 127, 0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // lying length
	f.Add([]byte{0x82, 127, 0x80, 0, 0, 0, 0, 0, 0, 1})                      // "negative" length
	f.Add([]byte{0x82, 0xFE, 0x04, 0x01, 1, 2, 3, 4})                        // 1025 bytes, over the limit
	f.Add(cat(EncodeFrame(false, OpText, []byte("frag-"), key),
		EncodeFrame(false, OpContinuation, []byte("ment-"), key),
		EncodeFrame(true, OpContinuation, []byte("ed"), key)))
	f.Add(cat(EncodeFrame(false, OpText, []byte("a"), key),
		EncodeFrame(true, OpPing, []byte("mid"), key),
		EncodeFrame(true, OpPong, nil, key),
		EncodeFrame(true, OpContinuation, []byte("b"), key)))
	f.Add(cat(EncodeFrame(false, OpBinary, bytes.Repeat([]byte{1}, 600), key),
		EncodeFrame(true, OpContinuation, bytes.Repeat([]byte{2}, 600), key))) // message over the limit
	f.Add(EncodeFrame(true, OpText, []byte("unmasked client"), nil))
	f.Add(EncodeFrame(true, OpText, []byte("masked server"), key))
	f.Add(EncodeFrame(true, OpContinuation, []byte("orphan"), key))
	f.Add(cat(EncodeFrame(false, OpText, []byte("x"), key), EncodeFrame(true, OpText, []byte("y"), key)))
	f.Add(EncodeFrame(false, OpPing, []byte("fragmented control"), key))
	f.Add(append([]byte{0x89, 126, 0x00, 0x80}, make([]byte, 128)...)) // control over 125
	f.Add(EncodeFrame(true, OpText|0x40, []byte("rsv1"), key))
	f.Add(EncodeFrame(true, Opcode(0x3), []byte("reserved opcode"), key))
	for _, p := range [][]byte{nil, {0x03}, ClosePayload(0, ""), ClosePayload(1005, ""), ClosePayload(0xFFFF, "bye"), ClosePayload(CloseNormal, string([]byte{0xff, 0xfe}))} {
		f.Add(EncodeFrame(true, OpClose, p, key))
		f.Add(EncodeFrame(true, OpClose, p, nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), limit)
		for {
			frame, err := fr.ReadFrame()
			if err != nil {
				break
			}
			if frame == nil {
				t.Fatal("ReadFrame returned neither a frame nor an error")
			}
			if len(frame.Payload) > limit {
				t.Fatalf("frame payload of %d bytes past the %d-byte limit", len(frame.Payload), limit)
			}
			if frame.Opcode.Control() && (!frame.Fin || len(frame.Payload) > 125) {
				t.Fatalf("control frame accepted: fin=%v, %d bytes", frame.Fin, len(frame.Payload))
			}
		}
		for _, client := range []bool{false, true} {
			c := newConn(fuzzConn{r: bytes.NewReader(data)}, client, limit)
			for {
				op, msg, err := c.ReadMessage()
				if err != nil {
					if code := CloseCodeForError(err); code != CloseProtocolError && code != CloseTooBig && code != CloseInternalError {
						t.Fatalf("error %v maps to close code %d", err, code)
					}
					if errors.Is(err, ErrClosed) && (c.CloseCode < 0 || c.CloseCode > 0xFFFF) {
						t.Fatalf("peer close code %d", c.CloseCode)
					}
					break
				}
				if op != OpText && op != OpBinary {
					t.Fatalf("message with opcode %v", op)
				}
				if len(msg) > limit {
					t.Fatalf("message of %d bytes past the %d-byte limit", len(msg), limit)
				}
			}
		}
	})
}
