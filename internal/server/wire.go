// The frame codec's side of a connection (internal/wire): the handshake and
// the read loop. Frames are decoded zero-copy — keys and values alias the
// wire reader's frame buffer until dispatch copies them into the pooled
// request, the same aliasing boundary the text loop uses — and replies ride
// the connection's one bufio.Writer, written by the connection's one
// goroutine.
//
// A connection picks its codec with its first byte: the handshake magic 0xCF
// can never begin a text command (server.go auto-detects with one Peek), so
// the line protocol survives untouched as the debug mode.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"crafty/internal/wire"
)

// maxFrame bounds one request in either codec: a text line (the reader
// buffer size) or a binary frame (the wire reader's limit).
const maxFrame = 1 << 20

// tooLarge is the typed refusal both codecs send for an oversized request;
// the connection stays alive (serveText drains the line, the wire reader
// discards the frame, so both streams stay framed).
var tooLarge = wire.Reply{Kind: wire.TErr, Msg: fmt.Sprintf("frame too large %d", maxFrame)}

// handshake consumes and validates the client's handshake and acks it with
// the negotiated version: min(ours, theirs).
func (s *Server) handshake(conn net.Conn, in *bufio.Reader, enc *wire.Encoder, stripe int) error {
	var hs [wire.HandshakeLen]byte
	if _, err := io.ReadFull(in, hs[:]); err != nil {
		return err
	}
	s.obs.bytesIn.Add(stripe, wire.HandshakeLen)
	s.obs.wireBytes.Add(stripe, wire.HandshakeLen)
	version, err := wire.ParseHandshake(hs[:])
	if err != nil {
		// No handshake, no framing: answer in text (the one protocol a
		// confused client definitely reads) and close.
		s.obs.wireErrs.Inc(stripe)
		fmt.Fprintf(conn, "ERR %v\n", err)
		return err
	}
	if version > wire.Version {
		version = wire.Version
	}
	enc.Handshake(version)
	// A stalled client must not pin the connection mid-flush.
	if d := s.cfg.ConnTimeout; d > 0 {
		conn.SetWriteDeadline(time.Now().Add(d))
	}
	return enc.Flush()
}

// serveBinary is the frame codec's read loop: one frame per request, decoded
// into a scratch op slice aliasing the frame buffer and dispatched exactly
// like its text twin.
func (c *conn) serveBinary(in *bufio.Reader) {
	s := c.srv
	r := wire.NewReader(in, maxFrame)
	scratch := c.one[:0]
	for c.mayRead(r.Buffered()) {
		if d := s.cfg.ConnTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		typ, payload, err := r.Next()
		if n := r.TakeBytes(); n > 0 {
			s.obs.bytesIn.Add(c.stripe, n)
			s.obs.wireBytes.Add(c.stripe, n)
		}
		if err != nil {
			var tooBig *wire.FrameTooLargeError
			if errors.As(err, &tooBig) {
				// The reader discarded the declared frame whole, so the
				// stream is still framed: refuse and keep serving — the
				// binary twin of serveText's oversized-line path.
				s.obs.wireErrs.Inc(c.stripe)
				c.reply(0, tooLarge)
				continue
			}
			var pe *wire.ProtocolError
			if errors.As(err, &pe) {
				// Framing lost: say why, then close.
				s.obs.wireErrs.Inc(c.stripe)
				c.reply(0, wire.Reply{Kind: wire.TErr, Msg: err.Error()})
			}
			return
		}
		s.obs.wireFrames.Inc(c.stripe)
		s.obs.cmds.Inc(c.stripe)
		ops, perr := wire.DecodeRequest(typ, payload, scratch[:0])
		scratch = ops[:0]
		if perr != nil {
			// A malformed payload or an unknown type inside a well-framed
			// frame: the stream is still framed, so dispatch answers it.
			s.obs.wireErrs.Inc(c.stripe)
		}
		if !c.dispatch(wire.Request{Type: typ, Ops: ops}, perr) {
			return
		}
	}
}
