// Frame decoding. The Reader owns one reusable frame buffer per connection;
// Next reads exactly one frame into it and returns the payload as an alias,
// so the steady state is allocation-free and a payload is valid only until
// the next Next call. DecodeRequest then parses a request payload into kv.Op
// slices whose keys and values alias the same buffer — zero copies between
// the socket and the scheduler's op structs; whoever needs the bytes past
// the next frame copies them (the craftykv scheduler copies into its pooled
// per-request buffers at submit time).
package wire

import (
	"bufio"
	"io"

	"crafty/internal/kv"
)

// Reader reads frames from r, bounding each to limit bytes.
type Reader struct {
	r     *bufio.Reader
	buf   []byte // fallback frame buffer for frames wider than the bufio window
	limit int

	// count accumulates wire bytes consumed (headers included) since the
	// last TakeBytes — the server folds it into its per-protocol counters.
	count uint64
}

// NewReader builds a Reader; limit <= 0 selects DefaultMaxFrame.
func NewReader(r *bufio.Reader, limit int) *Reader {
	if limit <= 0 {
		limit = DefaultMaxFrame
	}
	return &Reader{r: r, limit: limit}
}

// TakeBytes returns the wire bytes consumed since the last call and resets
// the count.
func (d *Reader) TakeBytes() uint64 {
	n := d.count
	d.count = 0
	return n
}

// sizeLen returns the byte length of a size field from its first byte.
func sizeLen(tag byte) int {
	switch tag {
	case tag16:
		return 3
	case tag32:
		return 5
	case tag64:
		return 9
	}
	return 1
}

// peekSize parses the frame's size field by peeking, without consuming it.
// Returns the size and the header's byte length.
func (d *Reader) peekSize() (uint64, int, error) {
	b, err := d.r.Peek(1)
	if err != nil {
		return 0, 0, err // io.EOF at a frame boundary stays io.EOF
	}
	n := sizeLen(b[0])
	if n > 1 {
		if b, err = d.r.Peek(n); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, err
		}
	}
	v, _, err := Uint(b[:n])
	return v, n, err
}

// Buffered reports whether Next can answer from the bytes already buffered,
// never touching the stream: the size field and the whole frame it declares
// sit in the bufio window (an empty or over-limit one included — Next refuses
// those in place), or the size field is one Next rejects outright. A torn
// frame is not buffered however much of it has arrived, so a caller that
// owes replies can send them before it blocks in Next for the rest.
func (d *Reader) Buffered() bool {
	b, _ := d.r.Peek(d.r.Buffered())
	if len(b) == 0 || len(b) < sizeLen(b[0]) {
		return false
	}
	size, n, err := Uint(b)
	return err != nil || uint64(len(b)-n) >= size
}

// Next reads one frame, returning its type and payload. The payload aliases
// the Reader's buffers and is valid only until the next call. An io.EOF at a
// frame boundary is returned as io.EOF (clean close); EOF inside a frame is
// io.ErrUnexpectedEOF. A frame over the limit is discarded whole and reported
// as *FrameTooLargeError — the stream stays framed and the caller may keep
// reading.
//
// The hot path never copies: when the whole frame sits inside the
// bufio.Reader's window (always, for a well-sized window — the server's is as
// large as its frame limit), the payload aliases bufio's own buffer, exactly
// like the text protocol's ReadSlice. Frames wider than the window fall back
// to the Reader's reusable frame buffer.
func (d *Reader) Next() (Type, []byte, error) {
	size64, hdrLen, err := d.peekSize()
	if err != nil {
		return 0, nil, err
	}
	if size64 == 0 {
		d.consume(hdrLen)
		return 0, nil, protoErrf("empty frame")
	}
	if size64 > uint64(d.limit) {
		// Discard the declared frame so the next one starts clean. A size
		// field this large may also be a desynchronized stream, but the
		// caller can only do better than closing when the framing holds, so
		// skip-and-report is strictly more useful than failing fatally.
		d.consume(hdrLen)
		if err := d.discard(size64); err != nil {
			return 0, nil, err
		}
		return 0, nil, &FrameTooLargeError{Size: int(size64), Limit: d.limit}
	}
	size := int(size64)
	total := hdrLen + size
	if frame, err := d.r.Peek(total); err == nil {
		d.consume(total)
		return Type(frame[hdrLen]), frame[hdrLen+1 : total : total], nil
	}
	// Slow path: the frame overruns the bufio window (or is torn at EOF).
	d.consume(hdrLen)
	if cap(d.buf) < size {
		d.buf = make([]byte, size)
	}
	d.buf = d.buf[:size]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	d.count += uint64(size)
	return Type(d.buf[0]), d.buf[1:], nil
}

// consume discards n already-peeked bytes and counts them.
func (d *Reader) consume(n int) {
	d.r.Discard(n)
	d.count += uint64(n)
}

// discard consumes n payload bytes without buffering them.
func (d *Reader) discard(n uint64) error {
	for n > 0 {
		chunk := n
		const maxChunk = 1 << 30
		if chunk > maxChunk {
			chunk = maxChunk
		}
		skipped, err := d.r.Discard(int(chunk))
		d.count += uint64(skipped)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		n -= chunk
	}
	return nil
}

// cursor walks one payload.
type cursor struct{ b []byte }

func (c *cursor) uint() (uint64, error) {
	v, n, err := Uint(c.b)
	if err != nil {
		return 0, err
	}
	c.b = c.b[n:]
	return v, nil
}

// str reads one length-prefixed string, aliasing the payload.
func (c *cursor) str() ([]byte, error) {
	n, err := c.uint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(c.b)) {
		return nil, protoErrf("string of %d bytes overruns its frame (%d left)", n, len(c.b))
	}
	s := c.b[:n:n]
	c.b = c.b[n:]
	return s, nil
}

// DecodeRequest parses a request frame's payload into ops, appending one
// kv.Op per wire operation — a multi-op frame decodes 1:1 into the op slice
// one Store.Apply group executes; Request{t, ops} is then the decoded command.
// Keys and values alias payload (zero-copy); they are valid only while the
// frame buffer is. Keys and put values must be non-empty (the text codec
// cannot express empty tokens and the store's semantics are defined over
// non-empty ones), counts must match the payload exactly, and trailing bytes
// are an error, so every frame has exactly one meaning.
func DecodeRequest(t Type, payload []byte, ops []kv.Op) ([]kv.Op, error) {
	cmd, ok := Lookup(t)
	if !ok {
		return ops, unknownType(t)
	}
	pairs := cmd.Args == ArgsKeyValue || cmd.Args == ArgsPairs
	switch cmd.Args {
	case ArgsNone:
		if len(payload) != 0 {
			return ops, protoErrf("%v: unexpected %d-byte payload", t, len(payload))
		}
		return ops, nil

	case ArgsKey:
		if len(payload) == 0 {
			return ops, protoErrf("%v: empty key", t)
		}
		return append(ops, kv.Op{Kind: cmd.Op, Key: payload}), nil
	}

	c := cursor{payload}
	n := uint64(1)
	if cmd.Args != ArgsKeyValue {
		var err error
		if n, err = c.uint(); err != nil {
			return ops, err
		}
		if n == 0 {
			return ops, protoErrf("%v: zero operations", t)
		}
		// Each key needs at least its length byte plus one byte, so a count
		// beyond the remaining payload cannot be satisfied — reject it before
		// looping rather than trusting an attacker-chosen count.
		if n > uint64(len(c.b)) {
			return ops, protoErrf("%v: count %d overruns the frame", t, n)
		}
	}
	for i := uint64(0); i < n; i++ {
		op := kv.Op{Kind: cmd.Op}
		var err error
		if op.Key, err = c.str(); err != nil {
			return ops, err
		}
		if pairs {
			if op.Value, err = c.str(); err != nil {
				return ops, err
			}
			if len(op.Key) == 0 || len(op.Value) == 0 {
				return ops, protoErrf("%v: empty key or value", t)
			}
		} else if len(op.Key) == 0 {
			return ops, protoErrf("%v: empty key", t)
		}
		ops = append(ops, op)
	}
	if len(c.b) != 0 {
		return ops, protoErrf("%v: %d trailing bytes", t, len(c.b))
	}
	return ops, nil
}

// DecodeReply parses a response frame into a Reply. Val aliases payload.
func DecodeReply(t Type, payload []byte) (Reply, error) {
	r := Reply{Kind: t}
	switch t {
	case TOK, TNil:
		if len(payload) != 0 {
			return r, protoErrf("%v: unexpected %d-byte payload", t, len(payload))
		}
	case TVal:
		r.Val = payload
	case TUint:
		var err error
		if r.N, err = DecodeUintPayload(payload); err != nil {
			return r, err
		}
	case TErr, TText:
		r.Msg = string(payload)
	default:
		return r, protoErrf("unexpected response frame %v", t)
	}
	return r, nil
}

// ReadReply reads one response frame as a Reply; frames describe themselves,
// so the command being answered is not consulted. Val aliases the Reader's
// buffers, valid until the next read.
func (d *Reader) ReadReply(Type) (Reply, error) {
	t, payload, err := d.Next()
	if err != nil {
		return Reply{}, err
	}
	return DecodeReply(t, payload)
}

// DecodeUintPayload decodes a TUint response payload: exactly one integer,
// nothing else.
func DecodeUintPayload(payload []byte) (uint64, error) {
	v, n, err := Uint(payload)
	if err != nil {
		return 0, err
	}
	if n != len(payload) {
		return 0, protoErrf("UINT: %d trailing bytes", len(payload)-n)
	}
	return v, nil
}
