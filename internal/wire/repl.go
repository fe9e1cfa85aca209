// The replication range: what a replica and its primary say on the
// -repl-listen port, in the client port's handshake, frames, integers and
// strings, over the same kv.Op. Its types sit apart from every request and
// response value, so a stream pointed at the wrong port is refused at its
// first frame. DESIGN.md §12 carries the table.
package wire

import "crafty/internal/kv"

const (
	TReplHello     Type = 0x40 + iota // replica: pos gen
	TReplStream                       // primary: gen from
	TReplSnapChunk                    // primary: n (key value)*
	TReplSnapEnd                      // primary: gen seq
	TReplGroup                        // primary: seq n (kind key [value])*
	TReplFence                        // primary: seq
	TReplAck                          // replica: seq durable
)

// ReplMaxFrame bounds a replication frame (type byte + payload): the encoder
// refuses to write a larger one and the replica's Reader to buffer one.
const ReplMaxFrame = 1 << 24

// replFrames is the range, indexed by Type - TReplHello: each frame's name
// and how many integers open its payload.
var replFrames = [...]struct {
	name  string
	uints int
}{{"HELLO", 2}, {"STREAM", 2}, {"SNAPCHUNK", 0}, {"SNAPEND", 2}, {"GROUP", 1}, {"FENCE", 1}, {"ACK", 2}}

// ReplHasOps reports whether t's payload ends in a counted list of operations
// (whose keys and values, decoded, alias the payload).
func ReplHasOps(t Type) bool { return t == TReplSnapChunk || t == TReplGroup }

// Repl writes one replication frame: the integers t carries, from a then b,
// and for a SNAPCHUNK or GROUP its operations, a GROUP's each behind its
// kind. A frame over ReplMaxFrame is a *FrameTooLargeError and nothing is
// written; I/O errors are bufio-sticky and surface at Flush.
func (e *Encoder) Repl(t Type, a, b uint64, ops []kv.Op) error {
	if t < TReplHello || t > TReplAck {
		return unknownType(t)
	}
	vs := [3]uint64{a, b}
	uints := vs[:replFrames[t-TReplHello].uints]
	if ReplHasOps(t) {
		uints = append(uints, uint64(len(ops)))
	}
	size := 0
	for _, v := range uints {
		size += SizeUint(v)
	}
	for i := range ops {
		size += sizeString(ops[i].Key)
		if t == TReplGroup {
			size++
		}
		if ops[i].Kind == kv.OpPut {
			size += sizeString(ops[i].Value)
		}
	}
	if 1+size > ReplMaxFrame {
		return &FrameTooLargeError{Size: 1 + size, Limit: ReplMaxFrame}
	}
	e.header(t, size)
	for _, v := range uints {
		e.putUint(v)
	}
	for i := range ops {
		if t == TReplGroup {
			e.putUint(uint64(ops[i].Kind))
		}
		e.putString(ops[i].Key)
		if ops[i].Kind == kv.OpPut {
			e.putString(ops[i].Value)
		}
	}
	return e.err()
}

// DecodeRepl parses a replication frame's payload: its integers into a then
// b, its operations appended to ops, keys and values aliasing payload. It
// holds the payload to DecodeRequest's rules — canonical integers, non-empty
// keys and put values, a count the remaining bytes can satisfy, nothing
// trailing — so every frame has exactly one meaning.
func DecodeRepl(t Type, payload []byte, ops []kv.Op) (a, b uint64, _ []kv.Op, err error) {
	if t < TReplHello || t > TReplAck {
		return 0, 0, ops, unknownType(t)
	}
	c := cursor{payload}
	var vs [2]uint64
	for i := 0; i < replFrames[t-TReplHello].uints; i++ {
		if vs[i], err = c.uint(); err != nil {
			return 0, 0, ops, err
		}
	}
	if t == TReplAck && vs[1] > 1 {
		return 0, 0, ops, protoErrf("%v: durable flag %d", t, vs[1])
	}
	if ReplHasOps(t) {
		n, err := c.uint()
		if err != nil {
			return 0, 0, ops, err
		}
		// Every operation needs more than one byte, so a count of zero or beyond
		// the remaining payload is refused before it drives the loop.
		if n == 0 || n > uint64(len(c.b)) {
			return 0, 0, ops, protoErrf("%v: %d operations in %d bytes", t, n, len(c.b))
		}
		for ; n > 0; n-- {
			op := kv.Op{Kind: kv.OpPut}
			if t == TReplGroup {
				kind, err := c.uint()
				if err != nil {
					return 0, 0, ops, err
				}
				if kind != uint64(kv.OpPut) && kind != uint64(kv.OpDelete) {
					return 0, 0, ops, protoErrf("%v: operation kind %d", t, kind)
				}
				op.Kind = kv.OpKind(kind)
			}
			if op.Key, err = c.str(); err == nil && op.Kind == kv.OpPut {
				op.Value, err = c.str()
			}
			if err != nil {
				return 0, 0, ops, err
			}
			if len(op.Key) == 0 || (op.Kind == kv.OpPut && len(op.Value) == 0) {
				return 0, 0, ops, protoErrf("%v: empty key or value", t)
			}
			ops = append(ops, op)
		}
	}
	if len(c.b) != 0 {
		return 0, 0, ops, protoErrf("%v: %d trailing bytes", t, len(c.b))
	}
	return vs[0], vs[1], ops, nil
}
