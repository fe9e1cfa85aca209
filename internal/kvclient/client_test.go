package kvclient

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// fakeServer answers the text protocol from an in-memory map, optionally
// refusing its first n connections with the recovering error — the shape the
// real server presents while a CRASH recovery runs.
type fakeServer struct {
	l          net.Listener
	refuse     atomic.Int32
	dropEvery  int32 // sever the connection before the Nth request (0 = never)
	reqCounter atomic.Int32
}

func startFake(t *testing.T) *fakeServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	s := &fakeServer{l: l}
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
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if n := s.dropEvery; s.reqCounter.Add(1)%max(n, 1) == 0 && n > 0 {
						return // sever mid-conversation: reply lost
					}
					parts := strings.Fields(strings.TrimSpace(line))
					if len(parts) == 0 {
						continue
					}
					switch parts[0] {
					case "PUT":
						data[parts[1]] = parts[2]
						fmt.Fprintf(conn, "OK\n")
					case "GET":
						if v, ok := data[parts[1]]; ok {
							fmt.Fprintf(conn, "VAL %s\n", v)
						} else {
							fmt.Fprintf(conn, "NIL\n")
						}
					case "DEL":
						if _, ok := data[parts[1]]; ok {
							delete(data, parts[1])
							fmt.Fprintf(conn, "OK\n")
						} else {
							fmt.Fprintf(conn, "NIL\n")
						}
					case "SYNC":
						fmt.Fprintf(conn, "OK\n")
					case "LEN":
						fmt.Fprintf(conn, "LEN %d\n", len(data))
					default:
						fmt.Fprintf(conn, "ERR unknown command %q\n", parts[0])
					}
				}
			}(conn)
		}
	}()
	return s
}

func testCfg() Config {
	return Config{
		Timeout:     2 * time.Second,
		RetryBudget: 10 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		Seed:        1,
	}
}

func TestBasicCommands(t *testing.T) {
	s := startFake(t)
	c, err := Dial(s.l.Addr().String(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	if ok, err := c.Del("alpha"); err != nil || !ok {
		t.Fatalf("Del = %v %v", ok, err)
	}
	if ok, err := c.Del("alpha"); err != nil || ok {
		t.Fatalf("second Del = %v %v", ok, err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	if c.Retries() != 0 {
		t.Fatalf("clean run performed %d retries", c.Retries())
	}
}

// TestTextRefusesUnframeableTokens: a key or value the text codec cannot
// carry — empty, or holding a blank or a newline — is refused with a typed
// error before anything is sent; it used to be written as is, so
// Put("a b", "v") stored key "a", and a newline in a value shifted every
// later reply by one.
func TestTextRefusesUnframeableTokens(t *testing.T) {
	s := startFake(t)
	c, err := Dial(s.l.Addr().String(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var notText *wire.NotTextError
	for _, pair := range [][2]string{{"a b", "v"}, {"", "v"}, {"k", ""}, {"k", "a b"}, {"k", "line\nOK injected"}, {"tab\tkey", "v"}, {"cr\r", "v"}} {
		if err := c.Put(pair[0], pair[1]); !errors.As(err, &notText) {
			t.Errorf("Put(%q, %q) = %v, want a NotTextError", pair[0], pair[1], err)
		}
	}
	if _, _, err := c.Get("a b"); !errors.As(err, &notText) {
		t.Errorf("Get(\"a b\") = %v, want a NotTextError", err)
	}
	if _, err := c.Del("a\nLEN"); !errors.As(err, &notText) {
		t.Errorf("Del with a newline = %v, want a NotTextError", err)
	}
	if _, err := c.Apply([]kv.Op{{Kind: kv.OpGet, Key: []byte("ok")}, {Kind: kv.OpGet, Key: []byte("not ok")}}); !errors.As(err, &notText) {
		t.Errorf("Apply with a blank in a key = %v, want a NotTextError", err)
	}
	// Nothing reached the server, nothing was retried, and the connection is
	// still in step.
	if n := s.reqCounter.Load(); n != 0 {
		t.Errorf("%d requests reached the server", n)
	}
	if n, err := c.Len(); err != nil || n != 0 || c.Retries() != 0 {
		t.Fatalf("Len = %d %v after the refusals (%d retries)", n, err, c.Retries())
	}
}

// TestRetriesRecovering: the server's explicit mid-recovery refusal is
// retried transparently (new connection after backoff), not surfaced.
func TestRetriesRecovering(t *testing.T) {
	s := startFake(t)
	s.refuse.Store(3)
	c, err := Dial(s.l.Addr().String(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "v" {
		t.Fatalf("Get after recovering retries = %q %v %v", v, ok, err)
	}
	if c.Retries() == 0 {
		t.Fatal("expected transparent retries through the recovering refusals")
	}
}

// TestRetriesDialFailure: a client created before the server listens keeps
// retrying the dial within its budget and succeeds once the server is up.
func TestRetriesDialFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here, for now

	done := make(chan *Client, 1)
	errCh := make(chan error, 1)
	go func() {
		c, err := Dial(addr, testCfg())
		if err != nil {
			errCh <- err
			return
		}
		done <- c
	}()
	// Let a few dial attempts fail, then bring a real server up on the same
	// address.
	time.Sleep(20 * time.Millisecond)
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer l2.Close()
	go func() {
		for {
			conn, err := l2.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	select {
	case c := <-done:
		c.Close()
	case err := <-errCh:
		t.Fatalf("dial retry failed: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dial retry did not complete")
	}
}

// TestRetriesSeveredConnection: a reply lost to a dropped connection is
// retried on a fresh connection; PUT/DEL idempotency makes that safe.
func TestRetriesSeveredConnection(t *testing.T) {
	s := startFake(t)
	s.dropEvery = 3
	c, err := Dial(s.l.Addr().String(), testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if v, ok, err := c.Get(fmt.Sprintf("k%d", i)); err != nil || !ok || v != "v" {
			t.Fatalf("get %d = %q %v %v", i, v, ok, err)
		}
	}
	if c.Retries() == 0 {
		t.Fatal("expected retries through severed connections")
	}
}

// TestBudgetExhausted: with nothing listening, the retry budget bounds the
// failure and the error names the attempts.
func TestBudgetExhausted(t *testing.T) {
	cfg := testCfg()
	cfg.RetryBudget = 50 * time.Millisecond
	_, err := Dial("127.0.0.1:1", cfg) // port 1: nothing listens
	if err == nil {
		t.Fatal("Dial succeeded against a dead port")
	}
	if !strings.Contains(err.Error(), "giving up after") {
		t.Fatalf("unhelpful budget error: %v", err)
	}
}

// TestBackoffDeterministicAndCapped: same seed, same progression; sleeps
// stay within [base, max*1.5].
func TestBackoffDeterministicAndCapped(t *testing.T) {
	a := NewBackoff(time.Millisecond, 16*time.Millisecond, 7)
	b := NewBackoff(time.Millisecond, 16*time.Millisecond, 7)
	for i := 0; i < 20; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("step %d: %v != %v with equal seeds", i, da, db)
		}
		if da < time.Millisecond || da > 24*time.Millisecond {
			t.Fatalf("step %d: %v outside [base, 1.5*max]", i, da)
		}
	}
	a.Reset()
	if d := a.Next(); d > 2*time.Millisecond {
		t.Fatalf("after Reset, first step %v did not restart from base", d)
	}
}
