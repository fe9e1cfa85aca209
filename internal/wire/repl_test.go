package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"crafty/internal/kv"
)

// replDoc is the replication range as DESIGN.md prints it. The decoder's own
// table (replFrames) says only what it needs — names and integer counts —
// and TestReplFrameTable holds the two to each other.
var replDoc = []struct {
	name    string
	typ     Type
	from    string
	uints   []string
	payload string // what follows the integers
}{
	{"HELLO", TReplHello, "replica", []string{"pos", "gen"}, ""},
	{"STREAM", TReplStream, "primary", []string{"gen", "from"}, ""},
	{"SNAPCHUNK", TReplSnapChunk, "primary", nil, "`n`, then n × (`key` `value`)"},
	{"SNAPEND", TReplSnapEnd, "primary", []string{"gen", "seq"}, ""},
	{"GROUP", TReplGroup, "primary", []string{"seq"}, "`n`, then n × (`kind` `key` [`value`]): kind 1 = put, 2 = delete; only a put has a value"},
	{"FENCE", TReplFence, "primary", []string{"seq"}, ""},
	{"ACK", TReplAck, "replica", []string{"seq", "durable (0 or 1)"}, ""},
}

// TestReplFrameTable holds the replication range to its indexing rule, to
// the documented rows, and apart from every request and response value.
func TestReplFrameTable(t *testing.T) {
	if len(replDoc) != len(replFrames) || TReplAck != TReplHello+Type(len(replFrames)-1) {
		t.Fatalf("%d documented rows, %d frames, last type %v", len(replDoc), len(replFrames), TReplAck)
	}
	for i, f := range replDoc {
		if f.typ != TReplHello+Type(i) || replFrames[i].name != f.name || replFrames[i].uints != len(f.uints) || ReplHasOps(f.typ) != (f.payload != "") {
			t.Errorf("row %d (%s, 0x%02x) disagrees with replFrames[%d] = %+v", i, f.name, uint8(f.typ), i, replFrames[i])
		}
		if _, ok := Lookup(f.typ); ok {
			t.Errorf("%v is also a command", f.typ)
		}
		if f.typ.String() != "REPL "+f.name {
			t.Errorf("Type(0x%02x).String() = %q", uint8(f.typ), f.typ.String())
		}
		// A replication frame on a client connection is an unknown command.
		var unknown *UnknownCommandError
		if _, err := DecodeRequest(f.typ, []byte{1, 1}, nil); !errors.As(err, &unknown) {
			t.Errorf("DecodeRequest(%v) = %v, want an UnknownCommandError", f.typ, err)
		}
	}
	for _, typ := range []Type{0, TGet, TQuit, TOK, TErr, TText, TReplHello - 1, TReplAck + 1, 0xFF} {
		var unknown *UnknownCommandError
		if _, _, _, err := DecodeRepl(typ, nil, nil); !errors.As(err, &unknown) {
			t.Errorf("DecodeRepl(0x%02x) = %v, want an UnknownCommandError", uint8(typ), err)
		}
		if err := NewEncoder(bufio.NewWriter(&bytes.Buffer{})).Repl(typ, 0, 0, nil); !errors.As(err, &unknown) {
			t.Errorf("Encoder.Repl(0x%02x) = %v, want an UnknownCommandError", uint8(typ), err)
		}
	}
}

func put(k, v string) kv.Op { return kv.Op{Kind: kv.OpPut, Key: []byte(k), Value: []byte(v)} }
func del(k string) kv.Op    { return kv.Op{Kind: kv.OpDelete, Key: []byte(k)} }

// TestReplRoundTrip: every replication frame survives encode → Reader →
// decode with its integers (across the width buckets), its operations in
// order and their bytes intact, aliasing the payload.
func TestReplRoundTrip(t *testing.T) {
	big := string(bytes.Repeat([]byte("v"), 300))
	huge := string(bytes.Repeat([]byte("w"), 1<<17))
	for _, tc := range []struct {
		name string
		typ  Type
		a, b uint64
		ops  []kv.Op
	}{
		{"hello", TReplHello, 17, 3, nil},
		{"hello_fresh", TReplHello, 0, 0, nil},
		{"hello_wide", TReplHello, 1 << 40, 0xF8, nil},
		{"stream", TReplStream, 2, 11, nil},
		{"snapchunk", TReplSnapChunk, 0, 0, []kv.Op{put("a", "1"), put("b b", "2\n2")}},
		{"snapchunk_wide", TReplSnapChunk, 0, 0, []kv.Op{put("k", big), put(big, huge)}},
		{"snapend", TReplSnapEnd, 7, 99, nil},
		{"snapend_empty_store", TReplSnapEnd, 1, 0, nil},
		{"group_mixed", TReplGroup, 42, 0, []kv.Op{
			put("plain", "value"), put("has space", "v has\nnewline"), put("\x00\xff\n", "\x00"), del("gone key\n"), put("plain", big)}},
		{"group_one_delete", TReplGroup, 1, 0, []kv.Op{del("k")}},
		{"group_wide", TReplGroup, 1 << 33, 0, []kv.Op{put("k", huge), del(big)}},
		{"fence", TReplFence, 8, 0, nil},
		{"ack", TReplAck, 12, 0, nil},
		{"ack_durable", TReplAck, 12, 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := encodeAll(t, func(e *Encoder) error { return e.Repl(tc.typ, tc.a, tc.b, tc.ops) })
			typ, payload := decodeOne(t, raw)
			a, b, ops, err := DecodeRepl(typ, payload, nil)
			if err != nil {
				t.Fatalf("DecodeRepl(%v): %v", typ, err)
			}
			if typ != tc.typ || a != tc.a || b != tc.b || !opsEqual(ops, tc.ops) {
				t.Fatalf("got %v %d %d %v\nwant %v %d %d %v", typ, a, b, ops, tc.typ, tc.a, tc.b, tc.ops)
			}
			if len(ops) == 0 {
				return
			}
			for i := range payload {
				payload[i] ^= 0xFF
			}
			if opsEqual(ops, tc.ops) {
				t.Errorf("decoded ops survived payload mutation — copied, not aliased")
			}
		})
	}
}

// TestReplEncoderHoldsTheBound: the sending side refuses a frame over
// ReplMaxFrame, typed, with nothing written, and the largest frame that fits
// is read back under the same bound.
func TestReplEncoderHoldsTheBound(t *testing.T) {
	half := string(bytes.Repeat([]byte("x"), ReplMaxFrame/2))
	for _, typ := range []Type{TReplGroup, TReplSnapChunk} {
		var buf bytes.Buffer
		e := NewEncoder(bufio.NewWriter(&buf))
		err := e.Repl(typ, 1, 0, []kv.Op{put("a", half), put("b", half)})
		e.Flush()
		var big *FrameTooLargeError
		if !errors.As(err, &big) || big.Limit != ReplMaxFrame || big.Size <= ReplMaxFrame || buf.Len() != 0 {
			t.Fatalf("Repl(%v) over the bound = %v with %d bytes written, want a FrameTooLargeError and none", typ, err, buf.Len())
		}
	}
	fits := []kv.Op{put("k", string(bytes.Repeat([]byte("x"), ReplMaxFrame-16)))}
	raw := encodeAll(t, func(e *Encoder) error { return e.Repl(TReplSnapChunk, 0, 0, fits) })
	d := NewReader(bufio.NewReader(bytes.NewReader(raw)), ReplMaxFrame)
	typ, payload, err := d.Next()
	if err != nil {
		t.Fatalf("a frame of %d bytes under the %d bound: %v", len(raw), ReplMaxFrame, err)
	}
	if _, _, ops, err := DecodeRepl(typ, payload, nil); err != nil || !opsEqual(ops, fits) {
		t.Fatalf("the largest frame did not round-trip: %v", err)
	}
}

// TestDecodeReplRejects: corrupt replication payloads fail typed, without
// panicking and without passing for a shorter frame.
func TestDecodeReplRejects(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	p, d := byte(kv.OpPut), byte(kv.OpDelete)
	for _, tc := range []struct {
		name    string
		typ     Type
		payload []byte
	}{
		{"group_truncated_payload", TReplGroup, []byte{1, 2, p, 5, 'a', 'b'}},
		{"group_key_length_overrun", TReplGroup, cat([]byte{1, 1, p}, AppendUint(nil, 99999999), []byte{'k'})},
		{"group_value_length_overrun", TReplGroup, cat([]byte{1, 1, p, 3, 'a', 'b', 'c'}, AppendUint(nil, 99999999))},
		{"group_unknown_kind", TReplGroup, []byte{1, 1, 9, 1, 'a', 1, 'a'}},
		{"group_kind_get", TReplGroup, []byte{1, 1, byte(kv.OpGet), 1, 'a'}},
		{"group_count_mismatch_short", TReplGroup, []byte{1, 2, d, 1, 'a'}},
		{"group_count_mismatch_long", TReplGroup, []byte{1, 1, d, 1, 'a', d, 1, 'b'}},
		{"group_huge_count", TReplGroup, cat([]byte{1}, AppendUint(nil, 1<<40), []byte{d, 1, 'a'})},
		{"group_zero_ops", TReplGroup, []byte{1, 0}},
		{"group_empty_key", TReplGroup, []byte{1, 1, d, 0}},
		{"group_empty_value", TReplGroup, []byte{1, 1, p, 1, 'k', 0}},
		{"group_delete_with_value", TReplGroup, []byte{1, 1, d, 1, 'k', 1, 'v'}},
		{"group_no_seq", TReplGroup, []byte{}},
		{"group_non_minimal_seq", TReplGroup, []byte{tag16, 5, 0, 1, d, 1, 'a'}},
		{"group_non_minimal_length", TReplGroup, []byte{1, 1, d, tag16, 1, 0, 'a'}},
		{"snapchunk_count_mismatch", TReplSnapChunk, []byte{2, 1, 'a', 1, '1'}},
		{"snapchunk_zero_entries", TReplSnapChunk, []byte{0}},
		{"snapchunk_empty_value", TReplSnapChunk, []byte{1, 1, 'a', 0}},
		{"snapchunk_trailing", TReplSnapChunk, []byte{1, 1, 'a', 1, '1', 7}},
		{"snapend_one_integer", TReplSnapEnd, []byte{7}},
		{"snapend_trailing", TReplSnapEnd, []byte{7, 99, 0}},
		{"hello_empty", TReplHello, []byte{}},
		{"hello_non_minimal", TReplHello, []byte{tag32, 0xFF, 0xFF, 0, 0, 1}},
		{"hello_reserved_tag", TReplHello, []byte{0xFB, 1}},
		{"stream_trailing", TReplStream, []byte{2, 11, 'x'}},
		{"fence_empty", TReplFence, []byte{}},
		{"fence_trailing", TReplFence, []byte{8, 8}},
		{"ack_flag_two", TReplAck, []byte{12, 2}},
		{"ack_no_flag", TReplAck, []byte{12}},
		{"unknown_type", TReplAck + 1, []byte{1}},
		{"request_type", TMPut, []byte{1, 1, 'k', 1, 'v'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pe *ProtocolError
			var unknown *UnknownCommandError
			if _, _, _, err := DecodeRepl(tc.typ, tc.payload, nil); !errors.As(err, &pe) && !errors.As(err, &unknown) {
				t.Errorf("DecodeRepl(%v, % x) = %v, want a typed refusal", tc.typ, tc.payload, err)
			}
		})
	}
	// A frame cut anywhere, header or payload, is an error of the Reader's.
	raw := encodeAll(t, func(e *Encoder) error {
		return e.Repl(TReplGroup, 7, 0, []kv.Op{put("key", "value"), del("other")})
	})
	for cut := 1; cut < len(raw); cut++ {
		if _, _, err := NewReader(bufio.NewReader(bytes.NewReader(raw[:cut])), ReplMaxFrame).Next(); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(raw))
		}
	}
}

// TestReplDecodeAllocationFree: a group decodes into a reused op slice with
// no allocation, whatever its op count — what the per-op Sscanf, ReadString
// and blob allocations of the old text framing cost is gone.
func TestReplDecodeAllocationFree(t *testing.T) {
	group := make([]kv.Op, 64)
	for i := range group {
		group[i] = put(fmt.Sprintf("key-%03d", i), "value-value-value")
		if i%8 == 7 {
			group[i] = del(fmt.Sprintf("key-%03d", i))
		}
	}
	raw := encodeAll(t, func(e *Encoder) error { return e.Repl(TReplGroup, 1000, 0, group) })
	src := bytes.NewReader(raw)
	br := bufio.NewReader(src)
	d := NewReader(br, ReplMaxFrame)
	ops := make([]kv.Op, 0, len(group))
	run := func() {
		src.Reset(raw)
		br.Reset(src)
		typ, payload, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ops, err = DecodeRepl(typ, payload, ops[:0]); err != nil || len(ops) != len(group) {
			t.Fatalf("decode: ops=%d err=%v", len(ops), err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("group decode allocates %v per frame, want 0", allocs)
	}
}

// replTable renders the replication range as the markdown block DESIGN.md
// carries.
func replTable() string {
	var b strings.Builder
	b.WriteString("| Frame | Type | Sent by | Payload |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, f := range replDoc {
		var fields []string
		for _, u := range f.uints {
			name, note, _ := strings.Cut(u, " ")
			fields = append(fields, strings.TrimSpace("`"+name+"` "+note))
		}
		if f.payload != "" {
			fields = append(fields, f.payload)
		}
		fmt.Fprintf(&b, "| `%s` | `0x%02x` | %s | %s |\n", f.name, uint8(f.typ), f.from, strings.Join(fields, " "))
	}
	return b.String()
}

// TestDocsCarryTheReplTable keeps DESIGN.md's replication frame grammar
// generated from the table, and the op kinds it prints equal to kv's.
func TestDocsCarryTheReplTable(t *testing.T) {
	if kv.OpPut != 1 || kv.OpDelete != 2 {
		t.Fatalf("the docs print put = 1, delete = 2; kv says %d, %d", kv.OpPut, kv.OpDelete)
	}
	want := replTable()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), want) {
		t.Errorf("DESIGN.md does not carry the current replication frame table; paste this block:\n%s", want)
	}
}
