package kvclient

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// fakeBinServer answers the binary protocol from an in-memory map,
// optionally refusing its first n connections with the text recovering line
// (sent before reading any byte, exactly like the real server's accept-loop
// refusal).
type fakeBinServer struct {
	l      net.Listener
	refuse atomic.Int32
}

func startFakeBin(t *testing.T) *fakeBinServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := &fakeBinServer{l: l}
	data := map[string]string{}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if s.refuse.Load() > 0 {
				s.refuse.Add(-1)
				fmt.Fprintf(conn, "ERR recovering, retry shortly\n")
				conn.Close()
				continue
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				var hs [wire.HandshakeLen]byte
				if _, err := io.ReadFull(br, hs[:]); err != nil {
					return
				}
				if _, err := wire.ParseHandshake(hs[:]); err != nil {
					fmt.Fprintf(conn, "ERR bad handshake\n")
					return
				}
				w := bufio.NewWriter(conn)
				enc := wire.NewEncoder(w)
				enc.Handshake(wire.Version)
				rd := wire.NewReader(br, 0)
				var ops []kv.Op
				for {
					if err := w.Flush(); err != nil {
						return
					}
					typ, payload, err := rd.Next()
					if err != nil {
						return
					}
					ops, err = wire.DecodeRequest(typ, payload, ops[:0])
					if err != nil {
						enc.Err(err.Error())
						continue
					}
					switch typ {
					case wire.TPut:
						data[string(ops[0].Key)] = string(ops[0].Value)
						enc.OK()
					case wire.TGet:
						if v, ok := data[string(ops[0].Key)]; ok {
							enc.Val([]byte(v))
						} else {
							enc.Nil()
						}
					case wire.TDel:
						if _, ok := data[string(ops[0].Key)]; ok {
							delete(data, string(ops[0].Key))
							enc.OK()
						} else {
							enc.Nil()
						}
					case wire.TMGet:
						for i := range ops {
							if v, ok := data[string(ops[i].Key)]; ok {
								enc.Val([]byte(v))
							} else {
								enc.Nil()
							}
						}
					case wire.TLen:
						enc.Uint(uint64(len(data)))
					case wire.TSync:
						enc.OK()
					default:
						enc.Err(fmt.Sprintf("unsupported frame %v", typ))
					}
				}
			}(conn)
		}
	}()
	return s
}

func binCfg() Config {
	cfg := testCfg()
	cfg.Binary = true
	return cfg
}

// TestBinaryMode: a binary-capable server negotiates the handshake and the
// protocol-blind helpers behave exactly as in text mode.
func TestBinaryMode(t *testing.T) {
	s := startFakeBin(t)
	c, err := Dial(s.l.Addr().String(), binCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Binary() {
		t.Fatal("client did not negotiate the binary protocol")
	}
	if err := c.Put("alpha", "one"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("alpha"); err != nil || !ok || v != "one" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Fatalf("Get missing = %v %v", ok, err)
	}
	if n, err := c.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d %v", n, err)
	}
	replies, err := c.Apply([]kv.Op{{Kind: kv.OpGet, Key: []byte("alpha")}, {Kind: kv.OpGet, Key: []byte("missing")}})
	if err != nil || len(replies) != 2 || replies[0].Kind != wire.TVal || string(replies[0].Val) != "one" || replies[1].Kind != wire.TNil {
		t.Fatalf("Apply(gets) = %+v %v", replies, err)
	}
	// The debug shim renders the same replies as the text protocol would.
	if text, err := c.Do("mget alpha missing"); err != nil || text != "VAL one\nNIL" {
		t.Fatalf("Do(MGET) = %q %v", text, err)
	}
	if text, err := c.Do("LEN"); err != nil || text != "LEN 1" {
		t.Fatalf("Do(LEN) = %q %v", text, err)
	}
	// Keys and values are bytes here: blanks and newlines travel intact.
	if err := c.Put("a key", "line one\nline two"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("a key"); err != nil || !ok || v != "line one\nline two" {
		t.Fatalf("Get(a key) = %q %v %v", v, ok, err)
	}
	if ok, err := c.Del("a key"); err != nil || !ok {
		t.Fatalf("Del(a key) = %v %v", ok, err)
	}
	if ok, err := c.Del("alpha"); err != nil || !ok {
		t.Fatalf("Del = %v %v", ok, err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	var unknown *wire.UnknownCommandError
	if _, err := c.Do("STATS"); !errors.As(err, &unknown) {
		t.Fatalf("Do(STATS) = %v, want an unknown-command error", err)
	}
	if c.Retries() != 0 {
		t.Fatalf("clean run performed %d retries", c.Retries())
	}
}

// TestBinaryHandshakeRefused: a peer that answers the handshake with a text
// line that is not a transient refusal does not speak the frame codec; Dial
// fails with the typed error at once instead of retrying or downgrading.
func TestBinaryHandshakeRefused(t *testing.T) {
	s := startFake(t)
	c, err := Dial(s.l.Addr().String(), binCfg())
	var refused *HandshakeRefusedError
	if !errors.As(err, &refused) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Dial against a text-only peer = %v, want *HandshakeRefusedError", err)
	}
	if !strings.HasPrefix(refused.Line, "ERR ") {
		t.Fatalf("refusal carries %q, want the peer's ERR line", refused.Line)
	}
}

// TestBinaryRetriesRecovering: the recovering refusal arrives as a text line
// even on a binary-capable server (it is sent before the handshake is read);
// it must be retried, not taken for a peer without the frame codec.
func TestBinaryRetriesRecovering(t *testing.T) {
	s := startFakeBin(t)
	s.refuse.Store(3)
	c, err := Dial(s.l.Addr().String(), binCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Binary() {
		t.Fatal("connection after the recovering refusals is not binary")
	}
	if err := c.Put("alpha", "one"); err != nil {
		t.Fatal(err)
	}
	if c.Retries() == 0 {
		t.Fatal("no retries recorded despite refused connections")
	}
}
