package wsproto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestAcceptKeyRFCVector(t *testing.T) {
	// The example from RFC 6455 §1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Fatalf("AcceptKey = %q, want %q", got, want)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, masked bool, fin bool) bool {
		var key []byte
		if masked {
			key = []byte{1, 2, 3, 4}
		}
		raw := EncodeFrame(fin, OpBinary, payload, key)
		fr := NewFrameReader(bytes.NewReader(raw), 0)
		frame, err := fr.ReadFrame()
		if err != nil {
			return false
		}
		return frame.Fin == fin && frame.Opcode == OpBinary &&
			frame.Masked == masked && bytes.Equal(frame.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameLengthEncodings(t *testing.T) {
	for _, n := range []int{0, 1, 125, 126, 127, 65535, 65536, 70000} {
		payload := bytes.Repeat([]byte{0xAB}, n)
		raw := EncodeFrame(true, OpBinary, payload, nil)
		fr := NewFrameReader(bytes.NewReader(raw), 0)
		frame, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(frame.Payload) != n {
			t.Fatalf("n=%d: got %d", n, len(frame.Payload))
		}
	}
}

func TestMaskingActuallyMasks(t *testing.T) {
	payload := []byte("secret token data")
	raw := EncodeFrame(true, OpText, payload, []byte{9, 9, 9, 9})
	if bytes.Contains(raw, payload) {
		t.Fatal("masked frame contains plaintext payload")
	}
}

// TestMaskBytesMatchesByteLoop checks the word-wise masking against
// the RFC's byte-at-a-time definition at every key offset and at
// lengths on both sides of each word boundary.
func TestMaskBytesMatchesByteLoop(t *testing.T) {
	key := []byte{0x37, 0xfa, 0x21, 0x3d}
	for pos := 0; pos < 4; pos++ {
		for n := 0; n <= 40; n++ {
			got := make([]byte, n)
			for i := range got {
				got[i] = byte(i*7 + 1)
			}
			want := append([]byte(nil), got...)
			for i := range want {
				want[i] ^= key[(pos+i)&3]
			}
			if next := maskBytes(key, pos, got); !bytes.Equal(got, want) || next != pos+n {
				t.Fatalf("pos=%d n=%d: got %x (next %d), want %x (next %d)", pos, n, got, next, want, pos+n)
			}
		}
	}
}

func TestControlFrameRules(t *testing.T) {
	// Fragmented control frame.
	raw := EncodeFrame(false, OpPing, []byte("x"), nil)
	fr := NewFrameReader(bytes.NewReader(raw), 0)
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrFragmentedCtl) {
		t.Fatalf("err = %v", err)
	}
	// Oversized control payload: hand-craft header claiming 126 bytes.
	bad := []byte{0x89, 126, 0x00, 0x80}
	bad = append(bad, make([]byte, 128)...)
	fr = NewFrameReader(bytes.NewReader(bad), 0)
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrControlTooLong) {
		t.Fatalf("err = %v", err)
	}
}

func TestReservedBitsRejected(t *testing.T) {
	raw := EncodeFrame(true, OpText, []byte("a"), nil)
	raw[0] |= 0x40 // set RSV1
	fr := NewFrameReader(bytes.NewReader(raw), 0)
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrReservedBits) {
		t.Fatalf("err = %v", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	raw := EncodeFrame(true, OpBinary, make([]byte, 4096), nil)
	fr := NewFrameReader(bytes.NewReader(raw), 1024)
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("err = %v", err)
	}
}

func TestClosePayloadRoundTrip(t *testing.T) {
	p := ClosePayload(CloseGoingAway, "maintenance")
	code, reason := ParseClosePayload(p)
	if code != CloseGoingAway || reason != "maintenance" {
		t.Fatalf("close = %d %q", code, reason)
	}
	if code, _ := ParseClosePayload(nil); code != CloseNormal {
		t.Fatalf("empty close payload code = %d", code)
	}
}

// pipePair builds a connected client/server conn pair over net.Pipe.
func pipePair() (*Conn, *Conn) {
	c1, c2 := net.Pipe()
	client := newConn(c1, true, 0)
	server := newConn(c2, false, 0)
	return client, server
}

func TestConnEcho(t *testing.T) {
	client, server := pipePair()
	defer client.Close(CloseNormal, "")
	go func() {
		op, payload, err := server.ReadMessage()
		if err != nil {
			return
		}
		_ = server.WriteMessage(op, payload)
	}()
	if err := client.WriteMessage(OpText, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	op, payload, err := client.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(payload) != "hello" {
		t.Fatalf("echo = %s %q", op, payload)
	}
}

func TestConnFragmentedMessage(t *testing.T) {
	client, server := pipePair()
	defer client.Close(CloseNormal, "")
	payload := bytes.Repeat([]byte("0123456789"), 100)
	go func() {
		_ = client.WriteFragmented(OpBinary, payload, 64)
	}()
	op, got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(got, payload) {
		t.Fatalf("fragmented reassembly failed: %d bytes", len(got))
	}
}

func TestConnPingTransparency(t *testing.T) {
	client, server := pipePair()
	defer client.Close(CloseNormal, "")
	go func() {
		// Server sends ping; client must answer it internally. The
		// server consumes the pong (net.Pipe writes are synchronous)
		// before sending the data message the client should deliver.
		_ = server.WriteMessage(OpPing, []byte("beat"))
		if f, err := server.fr.ReadFrame(); err != nil || f.Opcode != OpPong {
			return
		}
		_ = server.WriteMessage(OpText, []byte("data"))
	}()
	op, payload, err := client.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(payload) != "data" {
		t.Fatalf("got %s %q", op, payload)
	}
}

func TestServerRejectsUnmaskedClientFrames(t *testing.T) {
	c1, c2 := net.Pipe()
	server := newConn(c2, false, 0)
	go func() {
		// Raw unmasked text frame, as a non-compliant client would send.
		_, _ = c1.Write(EncodeFrame(true, OpText, []byte("x"), nil))
	}()
	if _, _, err := server.ReadMessage(); !errors.Is(err, ErrUnmaskedClient) {
		t.Fatalf("err = %v", err)
	}
	c1.Close()
}

func TestClientRejectsMaskedServerFrames(t *testing.T) {
	c1, c2 := net.Pipe()
	client := newConn(c1, true, 0)
	go func() {
		_, _ = c2.Write(EncodeFrame(true, OpText, []byte("x"), []byte{1, 2, 3, 4}))
	}()
	if _, _, err := client.ReadMessage(); !errors.Is(err, ErrMaskedServer) {
		t.Fatalf("err = %v", err)
	}
	c1.Close()
}

func TestCloseHandshake(t *testing.T) {
	client, server := pipePair()
	go func() {
		_ = server.Close(CloseGoingAway, "shutting down")
	}()
	_, _, err := client.ReadMessage()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if client.CloseCode != CloseGoingAway || client.CloseReason != "shutting down" {
		t.Fatalf("close = %d %q", client.CloseCode, client.CloseReason)
	}
}

func TestUnexpectedContinuation(t *testing.T) {
	c1, c2 := net.Pipe()
	client := newConn(c1, true, 0)
	go func() {
		_, _ = c2.Write(EncodeFrame(true, OpContinuation, []byte("x"), nil))
	}()
	if _, _, err := client.ReadMessage(); !errors.Is(err, ErrUnexpectedOpcode) {
		t.Fatalf("err = %v", err)
	}
	c1.Close()
}

// TestHTTPUpgradeEndToEnd exercises the real handshake path through
// net/http: Upgrade on the server, Dial on the client.
func TestHTTPUpgradeEndToEnd(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := Upgrade(w, r)
		if err != nil {
			return
		}
		defer conn.Close(CloseNormal, "")
		for {
			op, payload, err := conn.ReadMessage()
			if err != nil {
				return
			}
			if err := conn.WriteMessage(op, append([]byte("echo:"), payload...)); err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(raw, addr, "/ws", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close(CloseNormal, "")

	for i := 0; i < 3; i++ {
		msg := []byte(strings.Repeat("z", 100*(i+1)))
		if err := conn.WriteMessage(OpText, msg); err != nil {
			t.Fatal(err)
		}
		_, payload, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if string(payload) != "echo:"+string(msg) {
			t.Fatalf("round %d: %q", i, payload[:10])
		}
	}
}

func TestUpgradeRejectsPlainRequest(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/ws", nil)
	if _, err := Upgrade(rec, req); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v", err)
	}
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestDialRejectsNon101(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no ws here", http.StatusNotFound)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := Dial(raw, addr, "/ws", nil); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("err = %v", err)
	}
}

func TestIsUpgradeRequest(t *testing.T) {
	req := httptest.NewRequest("GET", "/x", nil)
	if IsUpgradeRequest(req) {
		t.Fatal("plain request detected as upgrade")
	}
	req.Header.Set("Upgrade", "websocket")
	req.Header.Set("Connection", "keep-alive, Upgrade")
	if !IsUpgradeRequest(req) {
		t.Fatal("upgrade request not detected")
	}
}

func TestFrameReaderEOF(t *testing.T) {
	fr := NewFrameReader(bytes.NewReader(nil), 0)
	if _, err := fr.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpText.String() != "text" || OpClose.String() != "close" {
		t.Fatal("opcode names wrong")
	}
	if !OpPing.Control() || OpBinary.Control() {
		t.Fatal("control classification wrong")
	}
}

func TestCloseCodeForError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{ErrMessageTooBig, CloseTooBig},
		{ErrUnmaskedClient, CloseProtocolError},
		{ErrMaskedServer, CloseProtocolError},
		{ErrReservedBits, CloseProtocolError},
		{ErrFragmentedCtl, CloseProtocolError},
		{ErrControlTooLong, CloseProtocolError},
		{ErrUnexpectedOpcode, CloseProtocolError},
		{io.ErrUnexpectedEOF, CloseInternalError},
	}
	for _, c := range cases {
		if got := CloseCodeForError(c.err); got != c.want {
			t.Errorf("CloseCodeForError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestUpgradeLimitBoundsMessages pins that the server-side limit from
// UpgradeLimit reaches the frame reader: a client message over the
// limit fails with ErrMessageTooBig (close code 1009 territory), and
// one under it passes.
func TestUpgradeLimitBoundsMessages(t *testing.T) {
	serverErr := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, err := UpgradeLimit(w, r, 1024)
		if err != nil {
			return
		}
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				serverErr <- err
				_ = conn.Close(CloseCodeForError(err), "")
				return
			}
		}
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(raw, addr, "/ingest/ws", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close(CloseNormal, "")
	if err := conn.WriteMessage(OpBinary, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteMessage(OpBinary, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := <-serverErr; !errors.Is(err, ErrMessageTooBig) {
		t.Fatalf("server err = %v, want ErrMessageTooBig", err)
	}
	if _, _, err := conn.ReadMessage(); !errors.Is(err, ErrClosed) {
		t.Fatalf("client err = %v, want ErrClosed", err)
	}
	if conn.CloseCode != CloseTooBig {
		t.Fatalf("close code = %d, want %d", conn.CloseCode, CloseTooBig)
	}
}

// maskedFrame hand-encodes one client-side frame so tests can place
// control frames *between* fragments of a data message — something the
// Conn API deliberately never does on its own.
func maskedFrame(fin bool, op Opcode, payload []byte) []byte {
	return EncodeFrame(fin, op, payload, []byte{5, 6, 7, 8})
}

// TestReadMessageFragmentedInterleavedConcurrent drives ReadMessage on
// 128 concurrent server conns, each fed a stream of fragmented data
// messages with ping frames interleaved between the fragments (legal
// per RFC 6455 §5.5: control frames may be injected mid-fragmentation
// and must not corrupt reassembly). Run under -race this also proves
// independent conns share no mutable state.
func TestReadMessageFragmentedInterleavedConcurrent(t *testing.T) {
	const conns = 128
	const msgsPerConn = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c1, c2 := net.Pipe()
			defer c1.Close()
			server := newConn(c2, false, 0)
			defer c2.Close()

			want := bytes.Repeat([]byte{byte('a' + id%26)}, 700)
			go func() {
				// Drain the pongs the server's ReadMessage answers;
				// net.Pipe writes block until read.
				fr := NewFrameReader(c1, 0)
				for {
					if _, err := fr.ReadFrame(); err != nil {
						return
					}
				}
			}()
			go func() {
				for m := 0; m < msgsPerConn; m++ {
					var stream []byte
					stream = append(stream, maskedFrame(false, OpText, want[:100])...)
					stream = append(stream, maskedFrame(true, OpPing, []byte("mid1"))...)
					stream = append(stream, maskedFrame(false, OpContinuation, want[100:400])...)
					stream = append(stream, maskedFrame(true, OpPing, []byte("mid2"))...)
					stream = append(stream, maskedFrame(true, OpContinuation, want[400:])...)
					if _, err := c1.Write(stream); err != nil {
						return
					}
				}
				_, _ = c1.Write(maskedFrame(true, OpClose, ClosePayload(CloseNormal, "done")))
			}()

			for m := 0; m < msgsPerConn; m++ {
				op, got, err := server.ReadMessage()
				if err != nil {
					errs <- fmt.Errorf("conn %d msg %d: %v", id, m, err)
					return
				}
				if op != OpText || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("conn %d msg %d: op=%v len=%d", id, m, op, len(got))
					return
				}
			}
			if _, _, err := server.ReadMessage(); !errors.Is(err, ErrClosed) {
				errs <- fmt.Errorf("conn %d: final err = %v, want ErrClosed", id, err)
				return
			}
			if server.CloseCode != CloseNormal {
				errs <- fmt.Errorf("conn %d: close code %d", id, server.CloseCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServerRejectsInterleavedDataMessage pins the fragment discipline
// on the server read path: a second data frame opened before the first
// message finishes is ErrUnexpectedOpcode (close 1002), not silent
// interleaving.
func TestServerRejectsInterleavedDataMessage(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	server := newConn(c2, false, 0)
	go func() {
		var stream []byte
		stream = append(stream, maskedFrame(false, OpText, []byte("first"))...)
		stream = append(stream, maskedFrame(true, OpText, []byte("second"))...)
		_, _ = c1.Write(stream)
	}()
	_, _, err := server.ReadMessage()
	if !errors.Is(err, ErrUnexpectedOpcode) {
		t.Fatalf("err = %v, want ErrUnexpectedOpcode", err)
	}
	if code := CloseCodeForError(err); code != CloseProtocolError {
		t.Fatalf("close code = %d, want %d", code, CloseProtocolError)
	}
}
