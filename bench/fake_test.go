package main

import (
	"bytes"
	"io"
	"strconv"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// fakeServer is an in-memory craftykv stand-in that answers synchronously:
// Write parses and executes the requests it is handed and queues the
// replies, Read drains them. It speaks both protocols (binary after a
// handshake, text otherwise), keeps values by key index in preallocated
// slots so that it allocates nothing in steady state, and can be told to
// misbehave in the three ways the checker must catch.
type fakeServer struct {
	text  bool
	in    []byte
	out   []byte
	rd    int
	store [][]byte // by key index; empty = absent
	ops   []kv.Op
	count []byte // scratch: an MPUT reply's payload
	hello bool

	corruptNext bool // flip a byte of the next value returned
	errNext     bool // answer the next request with an error
	// dropIdx, if >= 0, is a key whose newest write a crash forgets even
	// though it was acknowledged and synced; dropPrev is what it held before.
	dropIdx  int
	dropPrev []byte
}

func newFakeServer(keys int, text bool) *fakeServer {
	f := &fakeServer{text: text, store: make([][]byte, keys), dropIdx: -1, hello: text}
	for i := range f.store {
		f.store[i] = make([]byte, 0, maxVarLen)
	}
	return f
}

func (f *fakeServer) Close() error { return nil }

func (f *fakeServer) Read(p []byte) (int, error) {
	if f.rd == len(f.out) {
		return 0, io.EOF
	}
	n := copy(p, f.out[f.rd:])
	if f.rd += n; f.rd == len(f.out) {
		f.rd, f.out = 0, f.out[:0]
	}
	return n, nil
}

func (f *fakeServer) Write(p []byte) (int, error) {
	f.in = append(f.in, p...)
	for f.next() {
	}
	return len(p), nil
}

func keyIndex(key []byte) int {
	n, _ := strconv.Atoi(string(key[len("user"):]))
	return n
}

// crash forgets the newest write to dropIdx.
func (f *fakeServer) crash() {
	if f.dropIdx >= 0 {
		f.store[f.dropIdx] = append(f.store[f.dropIdx][:0], f.dropPrev...)
	}
}

// emit queues one reply in the connection's protocol, or an error in its
// place if one was ordered.
func (f *fakeServer) emit(t wire.Type, payload []byte) {
	if f.errNext {
		f.errNext = false
		t, payload = wire.TErr, []byte("injected")
	}
	if !f.text {
		f.out = wire.AppendUint(f.out, uint64(1+len(payload)))
		f.out = append(f.out, byte(t))
		f.out = append(f.out, payload...)
		return
	}
	switch t {
	case wire.TOK:
		f.out = append(f.out, "OK"...)
	case wire.TNil:
		f.out = append(f.out, "NIL"...)
	case wire.TVal:
		f.out = append(append(f.out, "VAL "...), payload...)
	case wire.TErr:
		f.out = append(append(f.out, "ERR "...), payload...)
	}
	f.out = append(f.out, '\n')
}

// apply executes one operation and, if reply is set, queues its reply (an
// MPUT frame's puts are answered once, by the caller).
func (f *fakeServer) apply(o *kv.Op, reply bool) {
	idx := keyIndex(o.Key)
	switch o.Kind {
	case kv.OpGet:
		v := f.store[idx]
		if len(v) == 0 {
			f.emit(wire.TNil, nil)
			return
		}
		at := len(f.out)
		f.emit(wire.TVal, v)
		if f.corruptNext {
			f.corruptNext = false
			f.out[at+len(f.out[at:])/2] ^= 0x01
		}
	case kv.OpPut:
		if idx == f.dropIdx {
			f.dropPrev = append(f.dropPrev[:0], f.store[idx]...)
		}
		f.store[idx] = append(f.store[idx][:0], o.Value...)
		if reply {
			f.emit(wire.TOK, nil)
		}
	case kv.OpDelete:
		found := len(f.store[idx]) > 0
		f.store[idx] = f.store[idx][:0]
		if found {
			f.emit(wire.TOK, nil)
		} else {
			f.emit(wire.TNil, nil)
		}
	}
}

// next executes one complete request from the input, reporting whether
// there was one.
func (f *fakeServer) next() bool {
	if !f.hello {
		if len(f.in) < wire.HandshakeLen {
			return false
		}
		f.out = wire.AppendHandshake(f.out, wire.Version)
		f.in = f.in[:copy(f.in, f.in[wire.HandshakeLen:])]
		f.hello = true
		return true
	}
	if f.text {
		end := bytes.IndexByte(f.in, '\n')
		if end < 0 {
			return false
		}
		f.textRequest(f.in[:end])
		f.in = f.in[:copy(f.in, f.in[end+1:])]
		return true
	}
	if len(f.in) == 0 {
		return false
	}
	size, hdr, err := wire.Uint(f.in)
	if err != nil || len(f.in) < hdr+int(size) {
		return false
	}
	t, payload := wire.Type(f.in[hdr]), f.in[hdr+1:hdr+int(size)]
	if t == wire.TSync {
		f.emit(wire.TOK, nil)
	} else {
		f.ops, _ = wire.DecodeRequest(t, payload, f.ops[:0])
		for i := range f.ops {
			f.apply(&f.ops[i], t != wire.TMPut)
		}
		if t == wire.TMPut {
			f.count = wire.AppendUint(f.count[:0], uint64(len(f.ops)))
			f.emit(wire.TUint, f.count)
		}
	}
	f.in = f.in[:copy(f.in, f.in[hdr+int(size):])]
	return true
}

func (f *fakeServer) textRequest(line []byte) {
	cmd, rest, _ := bytes.Cut(line, []byte(" "))
	o := kv.Op{Kind: kv.OpGet, Key: rest}
	switch string(cmd) {
	case "SYNC":
		f.emit(wire.TOK, nil)
		return
	case "PUT":
		o.Kind = kv.OpPut
		o.Key, o.Value, _ = bytes.Cut(rest, []byte(" "))
	case "DEL":
		o.Kind = kv.OpDelete
	}
	f.apply(&o, true)
}
