// Golden transcripts: one scripted session per codec (and per role) against a
// live server, every reply compared byte for byte with a committed file under
// testdata/. The scripts cover every command — happy path and usage error —
// plus unknown commands and frame types, oversized lines and frames,
// malformed payloads, replica write refusal, and a pipelined burst, so a
// change to the dispatch or render path that alters one reply byte fails
// here. Only digits that depend on timing are masked (INFO values, recovery
// and checkpoint counts, reconnect counters). Regenerate with
//
//	go test -run TestGolden -update
package server

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden transcripts under testdata/")

// step is one scripted exchange: bytes out, then a fixed number of replies in
// (lines for the text codec, frames for the binary one).
type step struct {
	label string // shown in the transcript instead of send, for bulky requests
	send  []byte
	reads int  // replies to read; -1 reads to EOF (the server must close)
	mask  bool // the reply's digits depend on timing
	info  bool // the reply is an INFO snapshot (counted, validated, collapsed)
}

func line(s string) step              { return step{send: []byte(s + "\n"), reads: 1} }
func lines(s string, n int) step      { return step{send: []byte(s + "\n"), reads: n} }
func masked(st step) step             { st.mask = true; return st }
func labelled(l string, st step) step { st.label = l; return st }

var digits = regexp.MustCompile(`[0-9]+`)

func maskDigits(s string) string { return digits.ReplaceAllString(s, "#") }

var metricLine = regexp.MustCompile(`^\S+ -?[0-9]+$`)

// collapseInfo validates an INFO snapshot ("INFO <n>" then n "name value"
// lines) and returns its masked one-line rendering plus the key names.
func collapseInfo(t *testing.T, text string) (string, []string) {
	t.Helper()
	ls := strings.Split(text, "\n")
	n, err := strconv.Atoi(strings.TrimPrefix(ls[0], "INFO "))
	if err != nil || n != len(ls)-1 || n == 0 {
		t.Fatalf("INFO header %q over %d lines", ls[0], len(ls)-1)
	}
	keys := make([]string, 0, n)
	for _, l := range ls[1:] {
		if !metricLine.MatchString(l) {
			t.Fatalf("INFO line %q is not \"name value\"", l)
		}
		keys = append(keys, l[:strings.IndexByte(l, ' ')])
	}
	return "INFO # (+ # well-formed \"name value\" lines)", keys
}

// session drives one scripted connection and accumulates the transcript.
type session struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	out  bytes.Buffer
	keys []string // INFO key names seen
}

func openSession(t *testing.T, addr string) *session {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &session{t: t, conn: conn, br: bufio.NewReaderSize(conn, 1<<16)}
}

func (s *session) sent(st step, binary bool) {
	switch {
	case st.label != "":
		fmt.Fprintf(&s.out, "> %s\n", st.label)
	case binary:
		fmt.Fprintf(&s.out, "> % x\n", st.send)
	default:
		fmt.Fprintf(&s.out, "> %q\n", st.send)
	}
	s.conn.SetDeadline(time.Now().Add(60 * time.Second))
	if _, err := s.conn.Write(st.send); err != nil {
		s.t.Fatalf("%s: write: %v", s.out.String(), err)
	}
}

// runText plays script over the line protocol.
func (s *session) runText(script []step) {
	readLine := func() (string, bool) {
		l, err := s.br.ReadString('\n')
		if err == io.EOF && l == "" {
			return "", false
		}
		if err != nil {
			s.t.Fatalf("transcript so far:\n%s\nreading reply: %v", s.out.String(), err)
		}
		return l, true
	}
	for _, st := range script {
		s.sent(st, false)
		for i := 0; st.reads < 0 || i < st.reads; i++ {
			l, ok := readLine()
			if !ok {
				if st.reads >= 0 {
					s.t.Fatalf("transcript so far:\n%s\nconnection closed mid-step", s.out.String())
				}
				s.out.WriteString("< EOF\n")
				break
			}
			if st.info {
				n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(l, "INFO ")))
				if err != nil {
					s.t.Fatalf("INFO header %q", l)
				}
				text := strings.TrimRight(l, "\n")
				for j := 0; j < n; j++ {
					m, _ := readLine()
					text += "\n" + strings.TrimRight(m, "\n")
				}
				var keys []string
				l, keys = collapseInfo(s.t, text)
				s.keys = append(s.keys, keys...)
				l += "\n"
			}
			if st.mask {
				l = maskDigits(l)
			}
			fmt.Fprintf(&s.out, "< %q\n", l)
		}
	}
}

// handshake opens the binary protocol on the session's connection.
func (s *session) handshake() {
	hs := wire.AppendHandshake(nil, wire.Version)
	s.sent(step{send: hs}, true)
	var ack [wire.HandshakeLen]byte
	if _, err := io.ReadFull(s.br, ack[:]); err != nil {
		s.t.Fatalf("handshake ack: %v", err)
	}
	fmt.Fprintf(&s.out, "< % x\n", ack[:])
}

// runBinary plays script over the frame protocol. Each reply is rendered as
// its raw header bytes (size, type) in hex and its payload quoted.
func (s *session) runBinary(script []step) {
	rd := wire.NewReader(s.br, 0)
	for _, st := range script {
		s.sent(st, true)
		for i := 0; st.reads < 0 || i < st.reads; i++ {
			typ, payload, err := rd.Next()
			if err == io.EOF && st.reads < 0 {
				s.out.WriteString("< EOF\n")
				break
			}
			if err != nil {
				s.t.Fatalf("transcript so far:\n%s\nreading reply frame: %v", s.out.String(), err)
			}
			header := fmt.Sprintf("% x", append(wire.AppendUint(nil, uint64(1+len(payload))), byte(typ)))
			body := string(payload)
			if st.info {
				var keys []string
				body, keys = collapseInfo(s.t, body)
				s.keys = append(s.keys, keys...)
				header = fmt.Sprintf("## %02x", byte(typ))
			} else if st.mask {
				body = maskDigits(body)
				header = fmt.Sprintf("## %02x", byte(typ))
			}
			fmt.Fprintf(&s.out, "< %s | %q\n", header, body)
		}
	}
}

// compare checks (or, under -update, rewrites) one golden file.
func compare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: transcript has %d lines, golden has %d", path, len(gl), len(wl))
}

// frames encodes a request sequence with the wire encoder.
func frames(build func(e *wire.Encoder)) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	build(wire.NewEncoder(w))
	w.Flush()
	return b.Bytes()
}

func keyOps(kind kv.OpKind, keys ...string) []kv.Op {
	ops := make([]kv.Op, len(keys))
	for i, k := range keys {
		ops[i] = kv.Op{Kind: kind, Key: []byte(k)}
	}
	return ops
}

func putOps(pairs ...string) []kv.Op {
	ops := make([]kv.Op, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		ops = append(ops, kv.Op{Kind: kv.OpPut, Key: []byte(pairs[i]), Value: []byte(pairs[i+1])})
	}
	return ops
}

// frame is one request frame expecting n reply frames.
func frame(n int, build func(e *wire.Encoder)) step {
	return step{send: frames(build), reads: n}
}

// rawFrame is a hand-assembled frame: size, type, payload.
func rawFrame(n int, typ byte, payload ...byte) step {
	b := wire.AppendUint(nil, uint64(1+len(payload)))
	return step{send: append(append(b, typ), payload...), reads: n}
}

// checkInfoKeys holds the INFO key set to the golden one: every key the
// golden snapshot lists must still be served (new keys may join).
func checkInfoKeys(t *testing.T, name string, keys []string) {
	t.Helper()
	sort.Strings(keys)
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(keys, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, k := range keys {
		have[k] = true
	}
	for _, k := range strings.Fields(string(want)) {
		if !have[k] {
			t.Errorf("INFO no longer serves %q", k)
		}
	}
}

func TestGoldenText(t *testing.T) {
	s := openSession(t, startServer(t))
	s.runText([]step{
		line("GET nothing"),
		line("PUT greeting hello"),
		line("GET greeting"),
		line("get greeting"),      // command names are case-insensitive
		line("PUT spaced a b  c"), // a single PUT's value is the rest of the line
		line("GET spaced"),
		line("PUT"),
		line("PUT justakey"),
		line("GET"),
		line("GET a b"),
		line("DEL"),
		line("DEL a b"),
		line("DEL greeting"),
		line("DEL greeting"),
		line("MPUT"),
		line("MPUT lonelykey"),
		line("MPUT a 1 b 2 c 3"),
		line("MPUT a 10 a 11"), // later pairs win
		line("MGET"),
		line("MGET "),
		lines("MGET a nope b\tc", 4), // any blank separates multi-op tokens
		line("MDEL"),
		lines("MDEL a nope", 2),
		line("LEN"),
		line("LEN ignored operands"),
		line("BOGUS"),
		line("BOGUS with operands"),
		line("GET\tb"), // only a space ends the command name
		step{send: []byte("\n\r\nGET b\r\n"), reads: 1}, // blank lines are skipped, CRLF accepted
		line("SYNC"),
		masked(line("CHECKPOINT")),
		{send: []byte("INFO\n"), reads: 1, info: true},
		line("REPLINFO"),
		line("PROMOTE"),
		// One write, eight replies, in order.
		lines("PUT k1 v1\nPUT k2 v2\nGET k1\nMGET k1 k2 nope\nLEN\nGET nope", 8),
		labelled("1 MiB + 512 B of 'a', newline", line(strings.Repeat("a", 1<<20+512))),
		line("PUT survivor v"),
		line("SYNC"),
		masked(line("CRASH")),
		lines("MGET greeting spaced b c k1 k2 survivor", 7),
		line("LEN"),
		{send: []byte("QUIT\n"), reads: -1},
	})
	compare(t, "text.golden", s.out.Bytes())
	checkInfoKeys(t, "info_keys.golden", s.keys)
}

func TestGoldenBinary(t *testing.T) {
	s := openSession(t, startServer(t))
	s.handshake()
	s.runBinary([]step{
		frame(1, func(e *wire.Encoder) { e.Get([]byte("nothing")) }),
		frame(1, func(e *wire.Encoder) { e.Put([]byte("greeting"), []byte("hello")) }),
		frame(1, func(e *wire.Encoder) { e.Get([]byte("greeting")) }),
		frame(1, func(e *wire.Encoder) { e.Put([]byte("binary"), []byte("a b\nc\x00")) }),
		frame(1, func(e *wire.Encoder) { e.Get([]byte("binary")) }),
		frame(1, func(e *wire.Encoder) { e.Del([]byte("greeting")) }),
		frame(1, func(e *wire.Encoder) { e.Del([]byte("greeting")) }),
		frame(1, func(e *wire.Encoder) { e.Ops(wire.TMPut, putOps("a", "1", "b", "2", "c", "3")) }),
		frame(1, func(e *wire.Encoder) { e.Ops(wire.TMPut, putOps("a", "10", "a", "11")) }),
		frame(3, func(e *wire.Encoder) { e.Ops(wire.TMGet, keyOps(kv.OpGet, "a", "nope", "b")) }),
		frame(2, func(e *wire.Encoder) { e.Ops(wire.TMDel, keyOps(kv.OpDelete, "a", "nope")) }),
		frame(1, func(e *wire.Encoder) { e.Request0(wire.TLen) }),
		// Malformed payloads inside well-framed frames: answered, connection kept.
		rawFrame(1, byte(wire.TGet)),                    // empty key
		rawFrame(1, byte(wire.TPut), 0, 1, 'v'),         // empty key string
		rawFrame(1, byte(wire.TPut), 1, 'k', 1, 'v', 9), // trailing byte
		rawFrame(1, byte(wire.TPut), 1, 'k', 5, 'v'),    // string overruns the frame
		rawFrame(1, byte(wire.TMGet), 0),                // zero operations
		rawFrame(1, byte(wire.TMGet), 9, 1, 'k'),        // count overruns the frame
		rawFrame(1, byte(wire.TMPut), 1, 1, 'k'),        // pair without its value
		rawFrame(1, byte(wire.TMDel), 1, 0),             // empty key
		rawFrame(1, 0x7F),                               // unknown frame type
		rawFrame(1, byte(wire.TOK)),                     // a response type is not a request
		rawFrame(1, 0x00),                               // type zero
		frame(1, func(e *wire.Encoder) { e.Request0(wire.TSync) }),
		masked(frame(1, func(e *wire.Encoder) { e.Request0(wire.TCheckpoint) })),
		{send: frames(func(e *wire.Encoder) { e.Request0(wire.TInfo) }), reads: 1, info: true},
		// One write, eight replies, in order.
		frame(8, func(e *wire.Encoder) {
			e.Put([]byte("k1"), []byte("v1"))
			e.Put([]byte("k2"), []byte("v2"))
			e.Get([]byte("k1"))
			e.Ops(wire.TMGet, keyOps(kv.OpGet, "k1", "k2", "nope"))
			e.Request0(wire.TLen)
			e.Get([]byte("nope"))
		}),
		labelled("PUT big <1 MiB + 512 B of 'x'>", frame(1, func(e *wire.Encoder) {
			e.Put([]byte("big"), bytes.Repeat([]byte("x"), 1<<20+512))
		})),
		frame(1, func(e *wire.Encoder) { e.Put([]byte("survivor"), []byte("v")) }),
		frame(1, func(e *wire.Encoder) { e.Request0(wire.TSync) }),
		masked(frame(1, func(e *wire.Encoder) { e.Request0(wire.TCrash) })),
		frame(6, func(e *wire.Encoder) {
			e.Ops(wire.TMGet, keyOps(kv.OpGet, "binary", "b", "c", "k1", "k2", "survivor"))
		}),
		frame(1, func(e *wire.Encoder) { e.Request0(wire.TLen) }),
		// A framing violation (size 2 in a 16-bit encoding) is answered once,
		// then the server closes.
		{send: []byte{0xF8, 0x02, 0x00, byte(wire.TLen), 0}, reads: -1},
	})
	compare(t, "binary.golden", s.out.Bytes())
}

// goldenReplica starts a replica whose primary never answers: it serves
// reads, refuses writes, and can be promoted.
func goldenReplica(t *testing.T) string {
	t.Helper()
	cfg := replCfg()
	cfg.ReplicaOf = "127.0.0.1:1"
	return startReplNode(t, cfg).addr
}

func TestGoldenTextReplica(t *testing.T) {
	s := openSession(t, goldenReplica(t))
	s.runText([]step{
		line("PUT k v"),
		line("PUT justakey"), // the refusal outranks the usage error
		line("DEL k"),
		line("MPUT a 1 b 2"),
		line("MDEL a b"),
		line("GET k"),
		lines("MGET a b", 2),
		line("LEN"),
		line("SYNC"),
		masked(line("REPLINFO")),
		line("PROMOTE"),
		line("PUT k v"),
		line("GET k"),
		line("REPLINFO"),
		line("PROMOTE"),
	})
	compare(t, "text_replica.golden", s.out.Bytes())
}

func TestGoldenBinaryReplica(t *testing.T) {
	s := openSession(t, goldenReplica(t))
	s.handshake()
	s.runBinary([]step{
		frame(1, func(e *wire.Encoder) { e.Put([]byte("k"), []byte("v")) }),
		rawFrame(1, byte(wire.TPut), 0, 1, 'v'), // the refusal outranks the malformed payload
		frame(1, func(e *wire.Encoder) { e.Del([]byte("k")) }),
		frame(1, func(e *wire.Encoder) { e.Ops(wire.TMPut, putOps("a", "1", "b", "2")) }),
		frame(1, func(e *wire.Encoder) { e.Ops(wire.TMDel, keyOps(kv.OpDelete, "a", "b")) }),
		frame(1, func(e *wire.Encoder) { e.Get([]byte("k")) }),
		frame(2, func(e *wire.Encoder) { e.Ops(wire.TMGet, keyOps(kv.OpGet, "a", "b")) }),
		frame(1, func(e *wire.Encoder) { e.Request0(wire.TLen) }),
		frame(1, func(e *wire.Encoder) { e.Request0(wire.TSync) }),
	})
	compare(t, "binary_replica.golden", s.out.Bytes())
}
