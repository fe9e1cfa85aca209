package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
	"unsafe"

	"crafty/internal/kv"
)

// FuzzReader feeds arbitrary bytes through the full decode path — framing,
// request parse, replication parse, uint parse — asserting it never panics,
// never over-reads past what the stream holds, and always lands on a typed
// error or a clean EOF. Recoverable FrameTooLargeError must leave the stream
// framed enough to keep reading. Whatever the replication decoder accepts
// must re-encode to the frame it came from: one meaning per frame.
func FuzzReader(f *testing.F) {
	// Seed with one valid instance of every frame shape plus torn variants.
	var seedBuf bytes.Buffer
	w := bufio.NewWriter(&seedBuf)
	e := NewEncoder(w)
	e.Get([]byte("key"))
	e.Put([]byte("key"), []byte("value"))
	e.Del([]byte("key"))
	e.Ops(TMGet, []kv.Op{{Key: []byte("a")}, {Key: []byte("b")}})
	e.Ops(TMPut, []kv.Op{{Key: []byte("k"), Value: []byte("v")}})
	e.Ops(TMDel, []kv.Op{{Key: []byte("a")}})
	for i := range Commands {
		if Commands[i].Args == ArgsNone {
			e.Request0(Commands[i].Type)
		}
	}
	e.OK()
	e.Nil()
	e.Val([]byte("v"))
	e.Uint(1 << 20)
	e.Err("nope")
	e.Text("INFO 1\nx 1")
	e.Repl(TReplHello, 17, 3, nil)
	e.Repl(TReplStream, 3, 18, nil)
	e.Repl(TReplSnapChunk, 0, 0, []kv.Op{{Kind: kv.OpPut, Key: []byte("a"), Value: []byte("1")}, {Kind: kv.OpPut, Key: []byte("b b"), Value: []byte("2\n2")}})
	e.Repl(TReplSnapEnd, 3, 1<<20, nil)
	e.Repl(TReplGroup, 300, 0, []kv.Op{{Kind: kv.OpPut, Key: []byte("k"), Value: []byte("v")}, {Kind: kv.OpDelete, Key: []byte("gone")}})
	e.Repl(TReplFence, 300, 0, nil)
	e.Repl(TReplAck, 300, 0, nil)
	e.Repl(TReplAck, 300, 1, nil)
	w.Flush()
	valid := seedBuf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, byte(TGet)})
	f.Add([]byte{tag64, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // huge declared size
	f.Add([]byte{tag16, 0x05, 0x00, 1, 2, 3, 4, 5})                      // non-minimal size
	f.Add(AppendHandshake(nil, 1))
	f.Add([]byte{6, byte(TReplGroup), 1, 1, 9, 1, 'k'})   // unknown op kind
	f.Add([]byte{5, byte(TReplSnapChunk), 2, 1, 'k', 1})  // count past the payload
	f.Add([]byte{3, byte(TReplAck), 1, 2})                // flag neither 0 nor 1
	f.Add([]byte{5, byte(TReplFence), tag16, 0x05, 0x00}) // non-minimal integer

	var reBuf bytes.Buffer
	reW := bufio.NewWriter(&reBuf)
	re := NewEncoder(reW)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		d := NewReader(bufio.NewReader(src), 1<<16)
		ops := make([]kv.Op, 0, 8)
		for frames := 0; frames < 1024; frames++ {
			typ, payload, err := d.Next()
			if err != nil {
				var tooBig *FrameTooLargeError
				if errors.As(err, &tooBig) {
					continue // stream stays framed; keep reading
				}
				var pe *ProtocolError
				if err == io.EOF || err == io.ErrUnexpectedEOF || errors.As(err, &pe) {
					return // typed outcomes only
				}
				t.Fatalf("untyped decoder error: %v (%T)", err, err)
			}
			if len(payload) > 1<<16 {
				t.Fatalf("payload of %d bytes escaped the 64KiB limit", len(payload))
			}
			typed := func(what string, err error) {
				var pe *ProtocolError
				var unknown *UnknownCommandError
				if !errors.As(err, &pe) && !errors.As(err, &unknown) {
					t.Fatalf("untyped %s error: %v (%T)", what, err, err)
				}
			}
			// Every decoded op must point inside the payload — no over-read.
			inside := func(ops []kv.Op) {
				for _, op := range ops {
					if !within(op.Key, payload) || !within(op.Value, payload) {
						t.Fatalf("decoded slice outside its frame payload")
					}
				}
			}
			if ops, err = DecodeRequest(typ, payload, ops[:0]); err != nil {
				typed("DecodeRequest", err)
			} else {
				inside(ops)
			}
			a, b, rops, err := DecodeRepl(typ, payload, ops[:0])
			if err != nil {
				typed("DecodeRepl", err)
				continue
			}
			inside(rops)
			reBuf.Reset()
			if err := re.Repl(typ, a, b, rops); err != nil {
				t.Fatalf("DecodeRepl accepted %v % x but the encoder says %v", typ, payload, err)
			}
			reW.Flush()
			if got := reBuf.Bytes(); !bytes.HasSuffix(got, payload) || len(got) != SizeUint(uint64(1+len(payload)))+1+len(payload) {
				t.Fatalf("%v % x re-encodes to % x", typ, payload, got)
			}
		}
	})
}

// within reports whether b lies inside outer's bytes (an empty b lies anywhere).
func within(b, outer []byte) bool {
	if len(b) == 0 {
		return true
	}
	if len(outer) == 0 {
		return false
	}
	lo, hi := uintptr(unsafe.Pointer(&outer[0])), uintptr(unsafe.Pointer(&outer[len(outer)-1]))
	first, last := uintptr(unsafe.Pointer(&b[0])), uintptr(unsafe.Pointer(&b[len(b)-1]))
	return first >= lo && last <= hi
}

// FuzzUint checks the integer codec's canonicality: whatever decodes must
// re-encode to the exact bytes it came from.
func FuzzUint(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xF7})
	f.Add(AppendUint(nil, 0xFFFF))
	f.Add(AppendUint(nil, 1<<32))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := Uint(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Uint consumed %d of %d bytes", n, len(data))
		}
		if re := AppendUint(nil, v); !bytes.Equal(re, data[:n]) {
			t.Fatalf("decode(% x) = %d but re-encodes to % x", data[:n], v, re)
		}
	})
}
