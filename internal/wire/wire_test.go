package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"crafty/internal/kv"
)

// TestUintMinimumWidth pins the minimum-width integer encoding: every value
// encodes at exactly the smallest width that fits, and decodes back.
func TestUintMinimumWidth(t *testing.T) {
	cases := []struct {
		name string
		v    uint64
		size int
	}{
		{"zero", 0, 1},
		{"one", 1, 1},
		{"max_literal", 0xF7, 1},
		{"needs_16", 0xF8, 3},
		{"byte_max", 0xFF, 3},
		{"two_fifty_six", 256, 3},
		{"max_16", 0xFFFF, 3},
		{"needs_32", 0x10000, 5},
		{"mega", 1 << 20, 5},
		{"max_32", 0xFFFFFFFF, 5},
		{"needs_64", 0x100000000, 9},
		{"max_64", ^uint64(0), 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := AppendUint(nil, tc.v)
			if len(enc) != tc.size {
				t.Errorf("AppendUint(%d) is %d bytes (% x), want %d", tc.v, len(enc), enc, tc.size)
			}
			if got := SizeUint(tc.v); got != tc.size {
				t.Errorf("SizeUint(%d) = %d, want %d", tc.v, got, tc.size)
			}
			v, n, err := Uint(enc)
			if err != nil {
				t.Fatalf("Uint(% x): %v", enc, err)
			}
			if v != tc.v || n != tc.size {
				t.Errorf("Uint(% x) = (%d, %d), want (%d, %d)", enc, v, n, tc.v, tc.size)
			}
		})
	}
}

// TestUintRejectsNonMinimal: a wider-than-needed encoding has no meaning.
func TestUintRejectsNonMinimal(t *testing.T) {
	bad := [][]byte{
		{tag16, 0x05, 0x00},                                     // 5 as 16-bit
		{tag32, 0xFF, 0xFF, 0x00, 0x00},                         // 0xFFFF as 32-bit
		{tag64, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}, // 1 as 64-bit
		{0xFB},        // reserved tag
		{0xFF},        // reserved tag
		{tag16, 0x01}, // truncated
		{},            // empty
	}
	for _, b := range bad {
		if _, _, err := Uint(b); err == nil {
			t.Errorf("Uint(% x) accepted, want error", b)
		}
	}
}

// TestHandshakeRoundTrip: encode → parse equality, and rejection of torn or
// alien handshakes.
func TestHandshakeRoundTrip(t *testing.T) {
	for _, v := range []byte{1, 2, 255} {
		hs := AppendHandshake(nil, v)
		if len(hs) != HandshakeLen {
			t.Fatalf("handshake is %d bytes, want %d", len(hs), HandshakeLen)
		}
		got, err := ParseHandshake(hs)
		if err != nil {
			t.Fatalf("ParseHandshake(% x): %v", hs, err)
		}
		if got != v {
			t.Errorf("version %d round-tripped to %d", v, got)
		}
	}
	for _, bad := range [][]byte{
		nil,
		[]byte("GET x"),
		{Magic0, Magic1, Magic2, 1},       // short
		{Magic0, Magic1, 'X', 1, '\n'},    // wrong magic
		{Magic0, Magic1, Magic2, 0, '\n'}, // version 0
		{'P', 'U', 'T', 1, '\n'},          // text look-alike
	} {
		if _, err := ParseHandshake(bad); err == nil {
			t.Errorf("ParseHandshake(% x) accepted, want error", bad)
		}
	}
}

// encodeAll runs fn against an in-memory encoder and returns the bytes.
func encodeAll(t *testing.T, fn func(*Encoder) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(bufio.NewWriter(&buf))
	if err := fn(e); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

// decodeOne reads exactly one frame.
func decodeOne(t *testing.T, b []byte) (Type, []byte) {
	t.Helper()
	d := NewReader(bufio.NewReader(bytes.NewReader(b)), 0)
	typ, payload, err := d.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got := d.TakeBytes(); got != uint64(len(b)) {
		t.Errorf("TakeBytes = %d, want the whole %d-byte frame", got, len(b))
	}
	if _, _, err := d.Next(); err != io.EOF {
		t.Fatalf("trailing frame: got %v, want io.EOF", err)
	}
	return typ, payload
}

func opsEqual(a, b []kv.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestRequestRoundTrip: every request frame type encodes and decodes back to
// the same op slice, losslessly, across the width buckets of the integer
// encoding (sub-248, 16-bit, and 32-bit lengths).
func TestRequestRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte("v"), 300)    // 16-bit length
	huge := bytes.Repeat([]byte("w"), 1<<17) // 32-bit length
	long := bytes.Repeat([]byte("k"), 0xF8)  // exactly the first 16-bit length
	cases := []struct {
		name   string
		encode func(*Encoder) error
		want   []kv.Op
	}{
		{"get", func(e *Encoder) error { return e.Get([]byte("alpha")) },
			[]kv.Op{{Kind: kv.OpGet, Key: []byte("alpha")}}},
		{"get_long", func(e *Encoder) error { return e.Get(long) },
			[]kv.Op{{Kind: kv.OpGet, Key: long}}},
		{"del", func(e *Encoder) error { return e.Del([]byte("beta")) },
			[]kv.Op{{Kind: kv.OpDelete, Key: []byte("beta")}}},
		{"put", func(e *Encoder) error { return e.Put([]byte("k"), []byte("v")) },
			[]kv.Op{{Kind: kv.OpPut, Key: []byte("k"), Value: []byte("v")}}},
		{"put_big_value", func(e *Encoder) error { return e.Put([]byte("k"), big) },
			[]kv.Op{{Kind: kv.OpPut, Key: []byte("k"), Value: big}}},
		{"put_huge_value", func(e *Encoder) error { return e.Put([]byte("k"), huge) },
			[]kv.Op{{Kind: kv.OpPut, Key: []byte("k"), Value: huge}}},
	}
	multi := func(t Type, want []kv.Op) {
		cases = append(cases, struct {
			name   string
			encode func(*Encoder) error
			want   []kv.Op
		}{strings.ToLower(t.String()), func(e *Encoder) error { return e.Ops(t, want) }, want})
	}
	multi(TMGet, []kv.Op{{Kind: kv.OpGet, Key: []byte("a")}, {Kind: kv.OpGet, Key: []byte("b")}, {Kind: kv.OpGet, Key: []byte("c")}})
	multi(TMDel, []kv.Op{{Kind: kv.OpDelete, Key: []byte("x")}, {Kind: kv.OpDelete, Key: []byte("y")}})
	multi(TMPut, []kv.Op{{Kind: kv.OpPut, Key: []byte("k1"), Value: []byte("v1")}, {Kind: kv.OpPut, Key: []byte("k2"), Value: big}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw := encodeAll(t, tc.encode)
			typ, payload := decodeOne(t, raw)
			got, err := DecodeRequest(typ, payload, nil)
			if err != nil {
				t.Fatalf("DecodeRequest(%v): %v", typ, err)
			}
			if !opsEqual(got, tc.want) {
				t.Fatalf("ops mismatch\ngot  %v\nwant %v", got, tc.want)
			}
			// Zero-copy: keys and values must alias the frame payload. Prove it
			// by flipping every payload byte — a copied slice would be immune.
			for i := range payload {
				payload[i] ^= 0xFF
			}
			if opsEqual(got, tc.want) {
				t.Errorf("decoded ops survived payload mutation — copied, not aliased")
			}
			for i := range payload {
				payload[i] ^= 0xFF
			}
			// Encoder.Request must produce the identical wire bytes: the
			// per-command encoders and the table-driven one are one codec.
			raw2 := encodeAll(t, func(e *Encoder) error { return e.Request(Request{Type: typ, Ops: tc.want}) })
			if !bytes.Equal(raw, raw2) {
				t.Errorf("Encoder.Request bytes differ from the per-command encoder")
			}
		})
	}

	// Empty-payload requests round-trip too.
	for _, typ := range []Type{TLen, TSync, TInfo, TCheckpoint, TCrash, TPromote, TReplInfo, TQuit} {
		t.Run(typ.String(), func(t *testing.T) {
			raw := encodeAll(t, func(e *Encoder) error { return e.Request0(typ) })
			got, payload := decodeOne(t, raw)
			if got != typ {
				t.Fatalf("type %v, want %v", got, typ)
			}
			ops, err := DecodeRequest(got, payload, nil)
			if err != nil || len(ops) != 0 {
				t.Fatalf("DecodeRequest: ops=%v err=%v", ops, err)
			}
		})
	}
}

// TestResponseRoundTrip: every response frame type is lossless.
func TestResponseRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		encode  func(*Encoder) error
		typ     Type
		payload []byte
	}{
		{"ok", func(e *Encoder) error { return e.OK() }, TOK, []byte{}},
		{"nil", func(e *Encoder) error { return e.Nil() }, TNil, []byte{}},
		{"val", func(e *Encoder) error { return e.Val([]byte("hello")) }, TVal, []byte("hello")},
		{"val_empty", func(e *Encoder) error { return e.Val(nil) }, TVal, []byte{}},
		{"err", func(e *Encoder) error { return e.Err("boom") }, TErr, []byte("boom")},
		{"text", func(e *Encoder) error { return e.Text("INFO 2\na 1\nb 2") }, TText, []byte("INFO 2\na 1\nb 2")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			typ, payload := decodeOne(t, encodeAll(t, tc.encode))
			if typ != tc.typ || !bytes.Equal(payload, tc.payload) {
				t.Fatalf("got (%v, %q), want (%v, %q)", typ, payload, tc.typ, tc.payload)
			}
		})
	}
	for _, v := range []uint64{0, 7, 248, 1 << 20, 1 << 40} {
		typ, payload := decodeOne(t, encodeAll(t, func(e *Encoder) error { return e.Uint(v) }))
		if typ != TUint {
			t.Fatalf("type %v, want TUint", typ)
		}
		got, err := DecodeUintPayload(payload)
		if err != nil || got != v {
			t.Fatalf("DecodeUintPayload: got (%d, %v), want %d", got, err, v)
		}
	}
}

// TestDecodeRequestRejects: malformed request payloads fail typed, without
// panicking, and without yielding partial nonsense as success.
func TestDecodeRequestRejects(t *testing.T) {
	cases := []struct {
		name    string
		typ     Type
		payload []byte
	}{
		{"get_empty_key", TGet, []byte{}},
		{"del_empty_key", TDel, []byte{}},
		{"put_empty", TPut, []byte{0, 0}},
		{"put_truncated_value", TPut, []byte{1, 'k', 5, 'v'}},
		{"put_trailing", TPut, []byte{1, 'k', 1, 'v', 9}},
		{"put_len_overrun", TPut, []byte{200, 'k'}},
		{"mget_zero", TMGet, []byte{0}},
		{"mget_count_overrun", TMGet, []byte{5, 1, 'a'}},
		{"mget_trailing", TMGet, []byte{1, 1, 'a', 3}},
		{"mget_huge_count", TMGet, append(AppendUint(nil, 1<<40), 1, 'a')},
		{"mput_odd_shape", TMPut, []byte{1, 1, 'k'}},
		{"mput_empty_val", TMPut, []byte{1, 1, 'k', 0}},
		{"mdel_empty_key", TMDel, []byte{1, 0}},
		{"len_payload", TLen, []byte{1}},
		{"sync_payload", TSync, []byte("x")},
		{"unknown_type", Type(0x7F), []byte{}},
		{"response_type_as_request", TVal, []byte("v")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeRequest(tc.typ, tc.payload, nil); err == nil {
				t.Errorf("DecodeRequest(%v, % x) accepted, want error", tc.typ, tc.payload)
			}
		})
	}
}

// TestFrameTooLarge: an over-limit frame is skipped whole and reported as
// the recoverable typed error; the frame behind it still decodes.
func TestFrameTooLargeRecoverable(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	e := NewEncoder(w)
	if err := e.Put([]byte("big"), bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	if err := e.Get([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	d := NewReader(bufio.NewReader(bytes.NewReader(buf.Bytes())), 64)
	_, _, err := d.Next()
	var tooBig *FrameTooLargeError
	if !errors.As(err, &tooBig) {
		t.Fatalf("got %v, want FrameTooLargeError", err)
	}
	if tooBig.Limit != 64 || tooBig.Size <= 64 {
		t.Errorf("FrameTooLargeError = %+v", tooBig)
	}
	if !strings.Contains(tooBig.Error(), "frame too large") {
		t.Errorf("error text: %q", tooBig.Error())
	}
	typ, payload, err := d.Next()
	if err != nil {
		t.Fatalf("frame after the oversized one: %v", err)
	}
	if typ != TGet || string(payload) != "after" {
		t.Errorf("got (%v, %q) after skip, want (TGet, after)", typ, payload)
	}
}

// countingReader hands out its chunks one Read at a time and counts the calls.
type countingReader struct {
	chunks [][]byte
	reads  int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

// TestReaderBuffered: Buffered is true exactly while Next can answer without
// reading the stream. For every split of a stream — whole frames, one with a
// three-byte size field, an empty one and an over-limit one — into "arrived"
// and "still to come", Next is served from the arrived part as long as
// Buffered says so, never reads meanwhile, and gets through precisely the
// frames that arrived whole.
func TestReaderBuffered(t *testing.T) {
	frames := [][]byte{
		encodeAll(t, func(e *Encoder) error { return e.Get([]byte("k")) }),
		encodeAll(t, func(e *Encoder) error { return e.Put([]byte("wide"), bytes.Repeat([]byte("v"), 300)) }),
		{0}, // empty frame: refused in place
		encodeAll(t, func(e *Encoder) error { return e.Put([]byte("big"), bytes.Repeat([]byte("x"), 2000)) }),
		encodeAll(t, func(e *Encoder) error { return e.Get([]byte("after")) }),
	}
	var raw []byte
	var ends []int
	for _, f := range frames {
		raw = append(raw, f...)
		ends = append(ends, len(raw))
	}
	for cut := 1; cut <= len(raw); cut++ {
		src := &countingReader{chunks: [][]byte{raw[:cut], raw[cut:]}}
		br := bufio.NewReaderSize(src, 2*len(raw))
		br.Peek(1) // one Read: the arrived part is now buffered
		d := NewReader(br, 1024)
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		got := 0
		for d.Buffered() {
			before := src.reads
			d.Next() // errors are the empty and the over-limit frame's refusals
			if src.reads != before {
				t.Fatalf("cut %d: frame %d reported buffered, yet Next read the stream", cut, got)
			}
			got++
		}
		if got != whole {
			t.Fatalf("cut %d: %d frames served from the buffer, %d had arrived whole", cut, got, whole)
		}
	}

	// A size field Next rejects outright needs no further byte either.
	src := &countingReader{chunks: [][]byte{{0xFF}}}
	br := bufio.NewReader(src)
	br.Peek(1)
	d := NewReader(br, 0)
	if !d.Buffered() {
		t.Fatal("reserved size tag: not reported buffered")
	}
	var pe *ProtocolError
	if _, _, err := d.Next(); !errors.As(err, &pe) || src.reads != 1 {
		t.Fatalf("reserved size tag: err %v after %d reads, want a protocol error and no further read", err, src.reads)
	}
}

// TestReaderTruncation: EOF at a frame boundary is clean; EOF inside a frame
// is io.ErrUnexpectedEOF.
func TestReaderTruncation(t *testing.T) {
	raw := encodeAll(t, func(e *Encoder) error { return e.Put([]byte("key"), []byte("value")) })
	for cut := 1; cut < len(raw); cut++ {
		d := NewReader(bufio.NewReader(bytes.NewReader(raw[:cut])), 0)
		if _, _, err := d.Next(); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
	}
	d := NewReader(bufio.NewReader(bytes.NewReader(nil)), 0)
	if _, _, err := d.Next(); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

// TestDecodeAllocationFree pins the steady-state allocation count of the
// whole request decode path — frame read plus op parse, single-op and
// multi-op — at zero, the acceptance bar for the binary hot path.
func TestDecodeAllocationFree(t *testing.T) {
	single := encodeAll(t, func(e *Encoder) error { return e.Put([]byte("key-000"), []byte("value-000")) })
	multi := encodeAll(t, func(e *Encoder) error {
		return e.Ops(TMPut, []kv.Op{
			{Kind: kv.OpPut, Key: []byte("k1"), Value: []byte("v1")}, {Kind: kv.OpPut, Key: []byte("k2"), Value: []byte("v2")},
			{Kind: kv.OpPut, Key: []byte("k3"), Value: []byte("v3")}, {Kind: kv.OpPut, Key: []byte("k4"), Value: []byte("v4")},
		})
	})
	for _, tc := range []struct {
		name string
		raw  []byte
	}{{"single_op", single}, {"multi_op", multi}} {
		t.Run(tc.name, func(t *testing.T) {
			src := bytes.NewReader(tc.raw)
			br := bufio.NewReader(src)
			d := NewReader(br, 0)
			ops := make([]kv.Op, 0, 8)
			// Warm the frame buffer once so the measurement sees steady state.
			run := func() {
				src.Reset(tc.raw)
				br.Reset(src)
				typ, payload, err := d.Next()
				if err != nil {
					t.Fatal(err)
				}
				ops = ops[:0]
				ops, err = DecodeRequest(typ, payload, ops)
				if err != nil || len(ops) == 0 {
					t.Fatalf("decode: ops=%d err=%v", len(ops), err)
				}
				d.TakeBytes()
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
				t.Errorf("decode path allocates %v per frame, want 0", allocs)
			}
		})
	}
}

// TestEncodeAllocationFree pins the response encode path at zero allocations
// steady state (the request path shares the same helpers).
func TestEncodeAllocationFree(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	e := NewEncoder(w)
	val := []byte("some-value-bytes")
	run := func() {
		e.OK()
		e.Nil()
		e.Val(val)
		e.Uint(123456)
		w.Flush()
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("encode path allocates %v per round, want 0", allocs)
	}
}
