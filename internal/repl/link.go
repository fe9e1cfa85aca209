package repl

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// connBuf sizes each direction's buffer of a replication connection, and so
// the frame a wire.Reader decodes in place; it is also about how many key
// and value bytes one snapshot chunk carries.
const connBuf = 64 << 10

// link is one end of a replication connection: internal/wire's frame codec
// over a net.Conn, and the operations decoded since the owner last reset them.
type link struct {
	conn net.Conn
	enc  *wire.Encoder
	br   *bufio.Reader
	r    *wire.Reader

	// A payload is valid only until the next read, so one that carries
	// operations is copied once into buf and decoded there, appending to ops —
	// the deep copy Log.Append makes on the primary, nothing allocated per op.
	buf []byte
	ops []kv.Op
}

// newLink wraps conn; an inbound frame over limit bytes ends the session.
func newLink(conn net.Conn, limit int) *link {
	br := bufio.NewReaderSize(conn, connBuf)
	return &link{conn: conn, enc: wire.NewEncoder(bufio.NewWriterSize(conn, connBuf)), br: br, r: wire.NewReader(br, limit)}
}

// readHandshake consumes the peer's handshake and returns its version.
func (l *link) readHandshake() (byte, error) {
	var hs [wire.HandshakeLen]byte
	if _, err := io.ReadFull(l.br, hs[:]); err != nil {
		return 0, err
	}
	return wire.ParseHandshake(hs[:])
}

// next reads one replication frame: its type and integers, its operations
// appended to l.ops. The peer's ERR frame is an error like any other.
func (l *link) next() (t wire.Type, a, b uint64, err error) {
	t, payload, err := l.r.Next()
	if err == nil && t == wire.TErr {
		err = fmt.Errorf("peer refused: %s", payload)
	}
	if err != nil {
		return t, 0, 0, err
	}
	if wire.ReplHasOps(t) {
		l.buf = append(l.buf, payload...)
		payload = l.buf[len(l.buf)-len(payload):]
	}
	a, b, l.ops, err = wire.DecodeRepl(t, payload, l.ops)
	return t, a, b, err
}

// send writes one frame and flushes it.
func (l *link) send(t wire.Type, a, b uint64) error {
	if err := l.enc.Repl(t, a, b, nil); err != nil {
		return err
	}
	return l.enc.Flush()
}
