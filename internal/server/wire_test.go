package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"crafty/internal/wire"
)

// binClient is a raw binary-protocol test client — handshake done, frames in
// and out — for the cases that are about bytes: version negotiation,
// hand-assembled frames, framing violations. Behaviour above the codec is
// tested once for both codecs through the typed client (main_test.go).
type binClient struct {
	conn net.Conn
	enc  *wire.Encoder
	w    *bufio.Writer
	rd   *wire.Reader
	ver  byte
}

// dialBin connects and completes the handshake at clientVer.
func dialBin(t *testing.T, addr string, clientVer byte) *binClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := bufio.NewWriter(conn)
	enc := wire.NewEncoder(w)
	if err := enc.Handshake(clientVer); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var hs [wire.HandshakeLen]byte
	if _, err := io.ReadFull(br, hs[:]); err != nil {
		t.Fatalf("reading handshake ack: %v", err)
	}
	ver, err := wire.ParseHandshake(hs[:])
	if err != nil {
		t.Fatalf("handshake ack: %v", err)
	}
	return &binClient{conn: conn, enc: enc, w: w, rd: wire.NewReader(br, 0), ver: ver}
}

// next flushes pending frames and reads one response frame.
func (c *binClient) next(t *testing.T) (wire.Type, []byte) {
	t.Helper()
	if err := c.enc.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.rd.Next()
	if err != nil {
		t.Fatalf("reading response frame: %v", err)
	}
	return typ, payload
}

// expect flushes and asserts the next frame's type and payload.
func (c *binClient) expect(t *testing.T, wantType wire.Type, wantPayload string) {
	t.Helper()
	typ, payload := c.next(t)
	if typ != wantType || string(payload) != wantPayload {
		t.Fatalf("got (%v, %q), want (%v, %q)", typ, payload, wantType, wantPayload)
	}
}

// TestWireHandshake pins version negotiation: the server answers with
// min(its version, the client's).
func TestWireHandshake(t *testing.T) {
	addr := startServer(t)
	if c := dialBin(t, addr, wire.Version); c.ver != wire.Version {
		t.Fatalf("negotiated version %d, want %d", c.ver, wire.Version)
	}
	// A futuristic client is answered at the server's version, not its own.
	if c := dialBin(t, addr, 9); c.ver != wire.Version {
		t.Fatalf("negotiated version %d for a v9 client, want %d", c.ver, wire.Version)
	}
}

// TestWireBadHandshakeRejected: 0xCF without the full magic is refused with
// a text error (the one encoding a confused client definitely reads).
func TestWireBadHandshakeRejected(t *testing.T) {
	addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{wire.Magic0, 'X', 'X', 1, '\n'}); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ERR ") {
		t.Fatalf("got (%q, %v), want an ERR line", line, err)
	}
}

// TestWireTextInterop: both protocols read each other's writes on one
// server.
func TestWireTextInterop(t *testing.T) {
	addr := startServer(t)
	bc := dialBin(t, addr, wire.Version)
	tc := dial(t, addr)

	tc.expect(t, "PUT fromtext hello", "OK")
	bc.enc.Get([]byte("fromtext"))
	bc.expect(t, wire.TVal, "hello")

	bc.enc.Put([]byte("frombin"), []byte("world"))
	bc.expect(t, wire.TOK, "")
	tc.expect(t, "GET frombin", "VAL world")
}

// TestWireOversizedFrame: a frame over the limit draws the typed refusal and
// the connection survives — the binary twin of TestOverlongLineRejected.
func TestWireOversizedFrame(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)
	c.enc.Put([]byte("big"), bytes.Repeat([]byte("x"), maxFrame+512))
	c.expect(t, wire.TErr, "frame too large "+fmt.Sprint(maxFrame))
	// The reader discarded the frame whole; the stream is still framed.
	c.enc.Put([]byte("survivor"), []byte("v"))
	c.expect(t, wire.TOK, "")
	c.enc.Get([]byte("survivor"))
	c.expect(t, wire.TVal, "v")
}

// TestWireMalformedPayload: a bad payload inside a well-framed frame is
// answered and the connection stays alive; so is an unknown frame type.
func TestWireMalformedPayload(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)

	// TPut frame with an empty key: frame = size(4) type(TPut) 0x00 0x01 'v'.
	c.w.Write([]byte{4, byte(wire.TPut), 0, 1, 'v'})
	typ, payload := c.next(t)
	if typ != wire.TErr || !strings.Contains(string(payload), "empty key") {
		t.Fatalf("empty-key PUT: got (%v, %q)", typ, payload)
	}

	// Unknown frame type.
	c.w.Write([]byte{1, 0x7F})
	typ, payload = c.next(t)
	if typ != wire.TErr || !strings.Contains(string(payload), "unknown frame type") {
		t.Fatalf("unknown type: got (%v, %q)", typ, payload)
	}

	c.enc.Get([]byte("still")) // connection alive after both
	c.expect(t, wire.TNil, "")
}

// TestWireDesyncCloses: a framing-level violation (non-minimal size
// encoding) is fatal — the server answers once and closes.
func TestWireDesyncCloses(t *testing.T) {
	addr := startServer(t)
	c := dialBin(t, addr, wire.Version)
	c.w.Write([]byte{0xF8, 0x02, 0x00, byte(wire.TLen), 0}) // size 2 as 16-bit
	typ, payload := c.next(t)
	if typ != wire.TErr {
		t.Fatalf("got (%v, %q), want TErr", typ, payload)
	}
	if _, _, err := c.rd.Next(); err == nil {
		t.Fatal("connection still open after a framing violation")
	}
}

// codecConn is a raw connection speaking one codec through wire's own
// encoders and decoders. Unlike the typed client it can pipeline: many
// requests per write, replies read afterwards.
type codecConn struct {
	t    *testing.T
	conn net.Conn
	w    *bufio.Writer
	enc  interface{ Request(wire.Request) error }
	dec  interface {
		ReadReply(wire.Type) (wire.Reply, error)
	}
}

func dialCodec(t *testing.T, addr string, binary bool) *codecConn {
	t.Helper()
	if binary {
		b := dialBin(t, addr, wire.Version)
		return &codecConn{t: t, conn: b.conn, w: b.w, enc: b.enc, dec: b.rd}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	w := bufio.NewWriter(conn)
	return &codecConn{t: t, conn: conn, w: w, enc: wire.NewLineEncoder(w), dec: wire.NewLineReader(bufio.NewReader(conn))}
}

// send encodes reqs back to back and writes them at once.
func (c *codecConn) send(reqs ...wire.Request) {
	c.t.Helper()
	for _, req := range reqs {
		if err := c.enc.Request(req); err != nil {
			c.t.Fatalf("encoding %v: %v", req.Type, err)
		}
	}
	if err := c.w.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

// expect reads the replies to reqs, in order, and compares them to want.
func (c *codecConn) expect(reqs []wire.Request, want []wire.Reply) {
	c.t.Helper()
	for _, req := range reqs {
		cmd, _ := wire.Lookup(req.Type)
		for i := cmd.Replies(req); i > 0; i-- {
			got, err := c.dec.ReadReply(req.Type)
			if err != nil || len(want) == 0 || !sameReply(got, want[0]) {
				c.t.Fatalf("reply to %v: got %+v (%v), want the first of %+v", req.Type, got, err, want[:min(len(want), 1)])
			}
			want = want[1:]
		}
	}
	if len(want) != 0 {
		c.t.Fatalf("%d expected replies have no request: %+v", len(want), want)
	}
}

// TestTextValueWithNewlineIsOneReply: a value stored through the frame codec
// may hold a newline; served as "VAL <value>" to a text client it would read
// as two replies — "VAL a", then a forged "OK injected" — and shift every
// later reply of that connection by one. The text reply encoder answers with
// one typed ERR line instead, and the replies behind it stay aligned.
func TestTextValueWithNewlineIsOneReply(t *testing.T) {
	addr := startServer(t)
	bc := dialTyped(t, addr, true)
	for k, v := range map[string]string{"lf": "a\nOK injected", "cr": "a\rb", "fine": "a b"} {
		if err := bc.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	tc := dial(t, addr)
	if _, err := tc.conn.Write([]byte("GET lf\nLEN\nMGET cr fine lf\nGET fine\n")); err != nil {
		t.Fatal(err)
	}
	const refusal = "ERR value not representable in the text protocol"
	tc.expectLines(t, refusal, "LEN 3", refusal, "VAL a b", refusal, "VAL a b")
	// The frame codec still serves the bytes as stored.
	if v, ok, err := bc.Get("lf"); err != nil || !ok || v != "a\nOK injected" {
		t.Fatalf("binary Get(lf) = %q, %t, %v", v, ok, err)
	}
}
