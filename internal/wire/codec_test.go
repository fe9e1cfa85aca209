package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"crafty/internal/kv"
)

// TestCommandTable holds the table to its own indexing rule and to the Type
// constants: no holes, no duplicates, every request type has a row.
func TestCommandTable(t *testing.T) {
	seen := map[string]bool{}
	for i := range Commands {
		c := &Commands[i]
		if c.Type != TGet+Type(i) {
			t.Errorf("Commands[%d] (%s) has type 0x%02x, want 0x%02x", i, c.Name, uint8(c.Type), uint8(TGet)+uint8(i))
		}
		if got, ok := Lookup(c.Type); !ok || got != c {
			t.Errorf("Lookup(%v) does not return its row", c.Type)
		}
		if c.Name != strings.ToUpper(c.Name) || seen[c.Name] {
			t.Errorf("command name %q is not a unique upper-case word", c.Name)
		}
		seen[c.Name] = true
		if c.Type.String() != c.Name {
			t.Errorf("Type(%d).String() = %q, want %q", c.Type, c.Type.String(), c.Name)
		}
		if perOp := c.Reply == ReplyVals || c.Reply == ReplyFound || c.Reply == ReplyCount; perOp && c.Args == ArgsNone {
			t.Errorf("%s answers per operand but takes none", c.Name)
		}
	}
	if Commands[len(Commands)-1].Type != TQuit {
		t.Errorf("the table ends at %v, not at the last request type", Commands[len(Commands)-1].Type)
	}
	for _, typ := range []Type{0, TQuit + 1, TOK, TNil, TVal, TUint, TErr, TText, 0xFF} {
		if _, ok := Lookup(typ); ok {
			t.Errorf("Lookup(0x%02x) found a command", uint8(typ))
		}
	}
}

func requestsEqual(a, b Request) bool { return a.Type == b.Type && opsEqual(a.Ops, b.Ops) }

// viaFrames sends req through the frame codec.
func viaFrames(t *testing.T, req Request) (Request, error) {
	t.Helper()
	raw := encodeAll(t, func(e *Encoder) error { return e.Request(req) })
	typ, payload := decodeOne(t, raw)
	ops, err := DecodeRequest(typ, payload, nil)
	return Request{Type: typ, Ops: ops}, err
}

// lineOf encodes req with the text codec.
func lineOf(req Request) ([]byte, error) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	err := NewLineEncoder(w).Request(req)
	w.Flush()
	return buf.Bytes(), err
}

// viaLines sends req through the text codec.
func viaLines(t *testing.T, req Request) (Request, error) {
	t.Helper()
	raw, err := lineOf(req)
	if err != nil {
		if len(raw) != 0 {
			t.Fatalf("refused request %v still wrote %q", req.Type, raw)
		}
		return Request{}, err
	}
	if n := bytes.Count(raw, []byte("\n")); n != 1 || raw[len(raw)-1] != '\n' {
		t.Fatalf("request %v encodes to %d lines: %q", req.Type, n, raw)
	}
	return ParseLine(raw[:len(raw)-1], nil)
}

// token draws a key or value both codecs can carry: any bytes but blanks and
// newlines, never empty.
func token(rng *rand.Rand, max int) []byte {
	b := make([]byte, 1+rng.Intn(max))
	for i := range b {
		for {
			b[i] = byte(rng.Intn(256))
			if !isSpaceByte(b[i]) && b[i] != '\n' {
				break
			}
		}
	}
	return b
}

// randomRequest draws a request of command c with operands both codecs can
// carry.
func randomRequest(rng *rand.Rand, c *Command) Request {
	n := 0
	switch c.Args {
	case ArgsKey, ArgsKeyValue:
		n = 1
	case ArgsKeys, ArgsPairs:
		n = []int{1, 2, 16, 17, 1 + rng.Intn(300)}[rng.Intn(5)]
	}
	req := Request{Type: c.Type}
	for i := 0; i < n; i++ {
		op := kv.Op{Kind: c.Op, Key: token(rng, 40)}
		if c.Args == ArgsKeyValue || c.Args == ArgsPairs {
			op.Value = token(rng, 400)
		}
		req.Ops = append(req.Ops, op)
	}
	return req
}

// TestCodecEquivalence is the one-command-model property: for every row of
// the table and a seeded spread of operand counts and bytes, frame-encode →
// decode and line-encode → ParseLine yield the same Request, the one that
// went in. What the text codec cannot carry it must refuse, typed, while the
// frame codec still carries it.
func TestCodecEquivalence(t *testing.T) {
	for i := range Commands {
		c := &Commands[i]
		t.Run(c.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.Type)))
			for round := 0; round < 200; round++ {
				req := randomRequest(rng, c)
				f, err := viaFrames(t, req)
				if err != nil {
					t.Fatalf("frame codec rejected %v: %v", req, err)
				}
				l, err := viaLines(t, req)
				if err != nil {
					t.Fatalf("text codec rejected %v: %v", req, err)
				}
				if !requestsEqual(f, req) || !requestsEqual(l, req) {
					t.Fatalf("codecs disagree on %v\nframe: %v\n text: %v", req, f, l)
				}
				if c.Args == ArgsNone {
					break // one request is the whole space
				}
				// Spoil one token: the text codec must refuse, the frame one carry on.
				spoil := []string{" ", "\n", "\t", "\r", "a b", "line\nOK injected", "\v", "\f"}[rng.Intn(8)]
				op := &req.Ops[rng.Intn(len(req.Ops))]
				if op.Value != nil && rng.Intn(2) == 0 {
					op.Value = []byte(spoil)
				} else {
					op.Key = []byte(spoil)
				}
				var notText *NotTextError
				if _, err := viaLines(t, req); !errors.As(err, &notText) {
					t.Fatalf("text codec: spoiled %v gave %v, want a NotTextError", req, err)
				}
				if f, err := viaFrames(t, req); err != nil || !requestsEqual(f, req) {
					t.Fatalf("frame codec lost spoiled %v: %v, %v", req, f, err)
				}
			}
		})
	}
	// Wrong operand counts and unknown types are refused by both encoders.
	for _, req := range []Request{
		{Type: TGet},
		{Type: TPut, Ops: make([]kv.Op, 2)},
		{Type: TMGet},
		{Type: TLen, Ops: make([]kv.Op, 1)},
		{Type: TVal},
		{Type: 0x7F},
	} {
		var usage *UsageError
		var unknown *UnknownCommandError
		if raw, err := lineOf(req); !(errors.As(err, &usage) || errors.As(err, &unknown)) || len(raw) != 0 {
			t.Errorf("LineEncoder.Request(%v) = %q, %v; want a typed refusal and no bytes", req, raw, err)
		}
		var buf bytes.Buffer
		if err := NewEncoder(bufio.NewWriter(&buf)).Request(req); !(errors.As(err, &usage) || errors.As(err, &unknown)) {
			t.Errorf("Encoder.Request(%v) = %v; want a typed refusal", req, err)
		}
	}
}

// repliesFor lists replies command c can legitimately draw.
func repliesFor(rng *rand.Rand, c *Command) []Reply {
	msg := func() string { return string(token(rng, 60)) + " detail" }
	out := []Reply{{Kind: TErr, Msg: msg()}, {Kind: TErr}}
	switch c.Reply {
	case ReplyOK:
		out = append(out, Reply{Kind: TOK})
	case ReplyVals:
		out = append(out, Reply{Kind: TNil}, Reply{Kind: TVal, Val: token(rng, 400)},
			Reply{Kind: TVal, Val: []byte("a value with blanks\tand OK NIL ERR words")}, Reply{Kind: TVal, Val: []byte{}})
	case ReplyFound:
		out = append(out, Reply{Kind: TOK}, Reply{Kind: TNil})
	case ReplyCount, ReplyUint:
		out = append(out, Reply{Kind: TUint}, Reply{Kind: TUint, N: rng.Uint64()})
	case ReplyText:
		out = append(out, Reply{Kind: TText, Msg: "OK seq=1 epoch=2"}, Reply{Kind: TText, Msg: "BYE"}, Reply{Kind: TText, Msg: msg()})
	case ReplyLines:
		out = append(out, Reply{Kind: TText, Msg: c.Name + " 0"}, Reply{Kind: TText, Msg: c.Name + " 2\na.b 1\nc -7"})
	}
	return out
}

func repliesEqual(a, b Reply) bool {
	return a.Kind == b.Kind && bytes.Equal(a.Val, b.Val) && a.N == b.N && a.Msg == b.Msg
}

// TestReplyCodecs: every Reply survives both reply codecs, for every command
// that can draw it; a value the text codec cannot carry comes back as a
// typed ERR — one line, so the replies behind it stay aligned.
func TestReplyCodecs(t *testing.T) {
	type codec struct {
		name  string
		write func(w *bufio.Writer) interface{ WriteReply(Type, Reply) error }
		read  func(r *bufio.Reader) interface{ ReadReply(Type) (Reply, error) }
	}
	codecs := []codec{
		{"frame",
			func(w *bufio.Writer) interface{ WriteReply(Type, Reply) error } { return NewEncoder(w) },
			func(r *bufio.Reader) interface{ ReadReply(Type) (Reply, error) } { return NewReader(r, 0) }},
		{"text",
			func(w *bufio.Writer) interface{ WriteReply(Type, Reply) error } { return NewLineEncoder(w) },
			func(r *bufio.Reader) interface{ ReadReply(Type) (Reply, error) } { return NewLineReader(r) }},
	}
	notText := Reply{Kind: TErr, Msg: (&NotTextError{"value"}).Error()}
	for _, cd := range codecs {
		for i := range Commands {
			c := &Commands[i]
			t.Run(cd.name+"/"+c.Name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(c.Type)))
				var sent, want []Reply
				for round := 0; round < 20; round++ {
					sent = append(sent, repliesFor(rng, c)...)
				}
				want = append(want, sent...)
				if c.Reply == ReplyVals {
					for _, v := range []string{"a\nOK injected", "cr\rlf", "\n"} {
						sent = append(sent, Reply{Kind: TVal, Val: []byte(v)}, Reply{Kind: TNil})
						if cd.name == "text" {
							want = append(want, notText, Reply{Kind: TNil})
						} else {
							want = append(want, Reply{Kind: TVal, Val: []byte(v)}, Reply{Kind: TNil})
						}
					}
				}
				var buf bytes.Buffer
				w := bufio.NewWriter(&buf)
				enc := cd.write(w)
				for _, r := range sent {
					if err := enc.WriteReply(c.Type, r); err != nil {
						t.Fatal(err)
					}
				}
				w.Flush()
				dec := cd.read(bufio.NewReaderSize(&buf, 16)) // a tiny window: long lines must still assemble
				for j, r := range want {
					got, err := dec.ReadReply(c.Type)
					if err != nil || !repliesEqual(got, r) {
						t.Fatalf("reply %d: got %+v (%v), want %+v", j, got, err, r)
					}
				}
				if _, err := dec.ReadReply(c.Type); err != io.EOF {
					t.Fatalf("after the last reply: %v, want io.EOF", err)
				}
			})
		}
	}
}

// TestParseLineRefusals pins the typed errors and their texts: the server
// sends err.Error() behind "ERR ".
func TestParseLineRefusals(t *testing.T) {
	for _, tc := range []struct {
		line, want string
		typ        Type
	}{
		{"PUT", "usage: PUT <key> <value>", TPut},
		{"PUT justakey", "usage: PUT <key> <value>", TPut},
		{"GET", "usage: GET <key>", TGet},
		{"GET a b", "usage: GET <key>", TGet},
		{"del", "usage: DEL <key>", TDel},
		{"MGET", "usage: MGET <key> [<key> ...]", TMGet},
		{"MGET \t ", "usage: MGET <key> [<key> ...]", TMGet},
		{"MDEL", "usage: MDEL <key> [<key> ...]", TMDel},
		{"MPUT a 1 b", "usage: MPUT <key> <value> [<key> <value> ...]", TMPut},
		{"BOGUS x", `unknown command "BOGUS"`, 0},
		{"", `unknown command ""`, 0},
		{"GET\tk", `unknown command "GET\tk"`, 0},
		{"STATS", `unknown command "STATS"`, 0},
	} {
		req, err := ParseLine([]byte(tc.line), nil)
		if err == nil || err.Error() != tc.want || req.Type != tc.typ || len(req.Ops) != 0 {
			t.Errorf("ParseLine(%q) = %v, %v; want type %v and %q", tc.line, req, err, tc.typ, tc.want)
		}
	}
}

// TestTextCodecAllocationFree pins the text codec's steady state at zero
// allocations: tokenizing a request line into a reused op slice (the
// successor of the server's TestDispatchTokenizerAllocs), and writing every
// reply kind.
func TestTextCodecAllocationFree(t *testing.T) {
	ops := make([]kv.Op, 0, 8)
	for _, l := range []string{
		"MPUT key1 value1 key2 value2 key3 value3 key4 value4",
		"mget key1 key2 key3 key4",
		"PUT key value with blanks",
		"GET key",
		"INFO",
	} {
		line := []byte(l)
		parse := func() {
			req, err := ParseLine(line, ops[:0])
			if err != nil || len(req.Ops) > 4 {
				t.Fatalf("ParseLine(%q) = %v, %v", line, req, err)
			}
		}
		parse()
		if allocs := testing.AllocsPerRun(200, parse); allocs != 0 {
			t.Errorf("ParseLine(%q) allocates %v per line, want 0", line, allocs)
		}
	}

	w := bufio.NewWriter(io.Discard)
	e := NewLineEncoder(w)
	val := []byte("some-value-bytes")
	run := func() {
		e.WriteReply(TPut, Reply{Kind: TOK})
		e.WriteReply(TGet, Reply{Kind: TNil})
		e.WriteReply(TGet, Reply{Kind: TVal, Val: val})
		e.WriteReply(TMPut, Reply{Kind: TUint, N: 123456})
		e.WriteReply(TLen, Reply{Kind: TUint, N: 123456})
		w.Flush()
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("text reply path allocates %v per round, want 0", allocs)
	}
}

// FuzzParseLine feeds arbitrary lines to the text tokenizer: it never
// panics; whatever it accepts aliases the line and costs no allocation; and
// the accepted Request re-encodes to a line that parses to the same Request
// — unless it holds a token no text line can carry unambiguously (the
// tokenizer is laxer than the encoder: a PUT value may hold blanks), which
// the encoder must refuse, typed.
func FuzzParseLine(f *testing.F) {
	for _, s := range []string{
		"GET k", "PUT k v", "PUT k v w x", "DEL k", "MGET a b c", "MPUT a 1 b 2", "MDEL a", "mput a 1\tb\v2",
		"LEN", "SYNC", "INFO", "CHECKPOINT", "CRASH", "PROMOTE", "REPLINFO", "QUIT", "LEN junk",
		"", " ", "GET", "GET ", "GET  k", "PUT k ", "MPUT a", "BOGUS", "\xcfKV\x01", "GET \x00",
	} {
		f.Add([]byte(s))
	}
	ops := make([]kv.Op, 0, 256)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The server hands ParseLine one line, its ending trimmed.
		line, _, _ := bytes.Cut(data, []byte("\n"))
		line = bytes.TrimRight(line, "\r")
		req, err := ParseLine(line, ops[:0])
		if err != nil {
			var usage *UsageError
			var unknown *UnknownCommandError
			if !errors.As(err, &usage) && !errors.As(err, &unknown) {
				t.Fatalf("ParseLine(%q): untyped error %v (%T)", line, err, err)
			}
			return
		}
		c, ok := Lookup(req.Type)
		if !ok || c.check(req.Ops) != nil {
			t.Fatalf("ParseLine(%q) accepted %v, which breaks its own table row", line, req)
		}
		for _, op := range req.Ops {
			if !within(op.Key, line) || !within(op.Value, line) || op.Kind != c.Op {
				t.Fatalf("ParseLine(%q): op %v does not alias its line", line, op)
			}
		}
		if len(req.Ops) <= cap(ops) {
			if allocs := testing.AllocsPerRun(3, func() { ParseLine(line, ops[:0]) }); allocs != 0 {
				t.Fatalf("ParseLine(%q) allocates %v", line, allocs)
			}
		}
		raw, err := lineOf(req)
		if err != nil {
			var notText *NotTextError
			spoiled := false
			for _, op := range req.Ops {
				spoiled = spoiled || !textToken(op.Key) || (op.Kind == kv.OpPut && !textToken(op.Value))
			}
			if !errors.As(err, &notText) || !spoiled {
				t.Fatalf("ParseLine(%q) accepted %v but the encoder says %v", line, req, err)
			}
			return
		}
		again, err := ParseLine(bytes.TrimSuffix(raw, []byte("\n")), nil)
		if err != nil || !requestsEqual(again, req) {
			t.Fatalf("ParseLine(%q) = %v, re-encoded %q parses to %v, %v", line, req, raw, again, err)
		}
	})
}

// protocolTable renders the command table as the markdown block README.md
// and DESIGN.md carry.
func protocolTable() string {
	var b strings.Builder
	b.WriteString("| Command | Text request | Frame type | Mutates | Replies (any may instead be `ERR <message>`) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for i := range Commands {
		c := &Commands[i]
		request := c.Name
		if c.Args != ArgsNone {
			request += " " + c.Args.Operands()
		}
		mutates := "no"
		if c.Mutates {
			mutates = "yes"
		}
		var replies string
		switch c.Reply {
		case ReplyOK:
			replies = "`OK`"
		case ReplyVals:
			replies = "`VAL <value>` or `NIL`, one per key in order"
		case ReplyFound:
			replies = "`OK` or `NIL`, one per key in order"
		case ReplyCount:
			replies = "`OK <n>` (a `UINT` frame): all n pairs written"
		case ReplyUint:
			replies = "`" + c.Name + " <n>` (a `UINT` frame)"
		case ReplyText:
			replies = "one line of text (a `TEXT` frame)"
		case ReplyLines:
			replies = "`" + c.Name + " <n>`, then n `name value` lines (one `TEXT` frame)"
		}
		fmt.Fprintf(&b, "| `%s` | `%s` | `0x%02x` | %s | %s |\n", c.Name, request, uint8(c.Type), mutates, replies)
	}
	return b.String()
}

// TestDocsCarryTheTable keeps the protocol documentation generated from the
// command table: README.md and DESIGN.md must contain exactly the block
// protocolTable renders.
func TestDocsCarryTheTable(t *testing.T) {
	want := protocolTable()
	for _, path := range []string{"../../README.md", "../../DESIGN.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(doc), want) {
			t.Errorf("%s does not carry the current command table; paste this block:\n%s", path, want)
		}
	}
}
