package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"

	"crafty/internal/kv"
)

// FuzzReader feeds arbitrary bytes through the full decode path — framing,
// request parse, uint parse — asserting it never panics, never over-reads
// past what the stream holds, and always lands on a typed error or a clean
// EOF. Recoverable FrameTooLargeError must leave the stream framed enough to
// keep reading.
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
			ops = ops[:0]
			ops, err = DecodeRequest(typ, payload, ops)
			if err != nil {
				var pe *ProtocolError
				var unknown *UnknownCommandError
				if !errors.As(err, &pe) && !errors.As(err, &unknown) {
					t.Fatalf("untyped DecodeRequest error: %v (%T)", err, err)
				}
				continue
			}
			// Every decoded op must point inside the payload — no over-read.
			for _, op := range ops {
				if len(op.Key) > len(payload) || len(op.Value) > len(payload) {
					t.Fatalf("decoded slice longer than its frame payload")
				}
			}
		}
	})
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
