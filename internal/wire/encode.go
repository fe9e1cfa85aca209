// Frame encoding. The encoder writes straight into a caller-owned
// bufio.Writer — the craftykv server reuses each connection's existing
// writer (one flush per pipelined burst, byte counting underneath), and the
// client reuses its per-connection writer — so steady-state encoding
// allocates nothing: frame sizes are computed arithmetically up front and
// every header rides a fixed scratch array.
package wire

import (
	"bufio"

	"crafty/internal/kv"
)

// Encoder writes frames to w. Not safe for concurrent use; errors are
// bufio-sticky and surface at the caller's Flush.
type Encoder struct {
	w       *bufio.Writer
	scratch []byte
}

// NewEncoder wraps w.
func NewEncoder(w *bufio.Writer) *Encoder {
	return &Encoder{w: w, scratch: make([]byte, 0, 16)}
}

// putUint writes one minimum-width integer.
func (e *Encoder) putUint(v uint64) {
	e.scratch = AppendUint(e.scratch[:0], v)
	e.w.Write(e.scratch)
}

// header writes the frame size (covering the type byte and payloadSize
// bytes of payload) and the type byte.
func (e *Encoder) header(t Type, payloadSize int) {
	e.putUint(uint64(1 + payloadSize))
	e.w.WriteByte(byte(t))
}

// sizeString is the encoded size of one length-prefixed string.
func sizeString(b []byte) int { return SizeUint(uint64(len(b))) + len(b) }

// putString writes one length-prefixed string.
func (e *Encoder) putString(b []byte) {
	e.putUint(uint64(len(b)))
	e.w.Write(b)
}

// Handshake writes the 5-byte handshake for version.
func (e *Encoder) Handshake(version byte) error {
	e.scratch = AppendHandshake(e.scratch[:0], version)
	_, err := e.w.Write(e.scratch)
	return err
}

// Flush flushes the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Get writes a TGet request; the key rides raw as the whole payload.
func (e *Encoder) Get(key []byte) error { return e.raw(TGet, key) }

// Del writes a TDel request.
func (e *Encoder) Del(key []byte) error { return e.raw(TDel, key) }

// Put writes a TPut request: key string, then value string.
func (e *Encoder) Put(key, value []byte) error {
	e.header(TPut, sizeString(key)+sizeString(value))
	e.putString(key)
	e.putString(value)
	return e.err()
}

// Ops writes the multi-op request frame matching t (TMGet, TMPut, or TMDel)
// from the scheduler's op shape — the encode mirror of DecodeRequest.
func (e *Encoder) Ops(t Type, ops []kv.Op) error {
	size := SizeUint(uint64(len(ops)))
	for i := range ops {
		size += sizeString(ops[i].Key)
		if t == TMPut {
			size += sizeString(ops[i].Value)
		}
	}
	e.header(t, size)
	e.putUint(uint64(len(ops)))
	for i := range ops {
		e.putString(ops[i].Key)
		if t == TMPut {
			e.putString(ops[i].Value)
		}
	}
	return e.err()
}

// Request0 writes one of the empty-payload requests (the ArgsNone commands).
func (e *Encoder) Request0(t Type) error {
	e.header(t, 0)
	return e.err()
}

// Request writes req as one frame, after holding its operand count to the
// command's layout. It returns only that validation error; I/O errors are
// bufio-sticky and surface at Flush.
func (e *Encoder) Request(req Request) error {
	cmd, ok := Lookup(req.Type)
	if !ok {
		return unknownType(req.Type)
	}
	if err := cmd.check(req.Ops); err != nil {
		return err
	}
	switch cmd.Args {
	case ArgsNone:
		e.Request0(req.Type)
	case ArgsKey:
		e.raw(req.Type, req.Ops[0].Key)
	case ArgsKeyValue:
		e.Put(req.Ops[0].Key, req.Ops[0].Value)
	default:
		e.Ops(req.Type, req.Ops)
	}
	return nil
}

// WriteReply writes r as one response frame; frames describe themselves, so
// the command being answered is not consulted.
func (e *Encoder) WriteReply(_ Type, r Reply) error {
	switch r.Kind {
	case TOK:
		return e.OK()
	case TNil:
		return e.Nil()
	case TVal:
		return e.Val(r.Val)
	case TUint:
		return e.Uint(r.N)
	case TErr:
		return e.Err(r.Msg)
	default:
		return e.Text(r.Msg)
	}
}

// OK writes a TOK response.
func (e *Encoder) OK() error {
	e.header(TOK, 0)
	return e.err()
}

// Nil writes a TNil response.
func (e *Encoder) Nil() error {
	e.header(TNil, 0)
	return e.err()
}

// Val writes a TVal response carrying v raw.
func (e *Encoder) Val(v []byte) error { return e.raw(TVal, v) }

// Uint writes a TUint response carrying one integer.
func (e *Encoder) Uint(v uint64) error {
	e.header(TUint, SizeUint(v))
	e.putUint(v)
	return e.err()
}

// Err writes a TErr response carrying msg (no "ERR " prefix on the wire).
func (e *Encoder) Err(msg string) error { return e.rawString(TErr, msg) }

// Text writes a TText response carrying s raw (it may span many lines).
func (e *Encoder) Text(s string) error { return e.rawString(TText, s) }

// raw writes a frame whose payload is b with no inner structure.
func (e *Encoder) raw(t Type, b []byte) error {
	e.header(t, len(b))
	e.w.Write(b)
	return e.err()
}

func (e *Encoder) rawString(t Type, s string) error {
	e.header(t, len(s))
	e.w.WriteString(s)
	return e.err()
}

// err surfaces the writer's sticky error so callers that care can stop
// early; most callers check once at Flush.
func (e *Encoder) err() error {
	_, err := e.w.Write(nil)
	return err
}
