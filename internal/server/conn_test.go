package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"crafty/internal/wire"
)

// Tests of the connection loop (server.go, conn): one goroutine per
// connection that submits while whole requests are buffered, answers what it
// owes, and only then blocks on the socket.

// connGoroutines counts the goroutines that are running a client connection
// or were started by one, from their stacks — the server's long-lived workers
// and whatever other tests left running do not count.
func connGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("server.(*Server).handle")) || bytes.Contains(g, []byte("server.(*conn).")) {
			count++
		}
	}
	return count
}

// waitConnGoroutines waits for the count to reach want: connection goroutines
// start and exit asynchronously to the client's dial and close.
func waitConnGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		got := connGoroutines()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connection goroutines, want %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConnectionIsOneGoroutine: N idle connections, of either codec, cost N
// server goroutines — no writer, no helper — and closing them returns all N.
func TestConnectionIsOneGoroutine(t *testing.T) {
	addr := startServer(t)
	waitConnGoroutines(t, 0) // earlier tests' connections have wound down
	const n = 12
	var conns []net.Conn
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			c := dial(t, addr)
			c.expect(t, "GET nope", "NIL") // the loop is up and back on the socket
			conns = append(conns, c.conn)
		} else {
			b := dialBin(t, addr, wire.Version)
			b.enc.Get([]byte("nope"))
			b.expect(t, wire.TNil, "")
			conns = append(conns, b.conn)
		}
	}
	waitConnGoroutines(t, n)
	for _, c := range conns {
		c.Close()
	}
	waitConnGoroutines(t, 0)
}

// TestPipelinedAcrossOwedBound: 300 one-op requests written at once — more
// than twice what a connection submits before it answers (maxOwed) — come back
// complete and in order; each GET follows the PUT of its key, so a reply out
// of place would carry the wrong value.
func TestPipelinedAcrossOwedBound(t *testing.T) {
	eachCodec(t, func(t *testing.T, binary bool) {
		c := dialCodec(t, startServer(t), binary)
		var burst []wire.Request
		var want []wire.Reply
		for i := 0; len(burst) < 300; i++ {
			k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)
			burst = append(burst,
				wire.Request{Type: wire.TPut, Ops: puts(k, v)},
				wire.Request{Type: wire.TGet, Ops: gets(k)})
			want = append(want, replyOK, replyVal(v))
		}
		if len(burst) <= 2*maxOwed {
			t.Fatalf("burst of %d does not cross the owed bound %d twice", len(burst), maxOwed)
		}
		c.send(burst...)
		c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		c.expect(burst, want)
	})
}

// TestTornRequestDoesNotHoldReplies: a client that has sent one request and
// part of the next gets the first reply before it sends the rest — "another
// request is buffered" means a complete one. Every split point of the second
// request is tried, in both codecs.
func TestTornRequestDoesNotHoldReplies(t *testing.T) {
	eachCodec(t, func(t *testing.T, binary bool) {
		c := dialCodec(t, startServer(t), binary)
		first := wire.Request{Type: wire.TPut, Ops: puts("torn", "value")}
		second := wire.Request{Type: wire.TGet, Ops: gets("torn")}
		// Encode both once to learn the second request's bytes.
		var raw bytes.Buffer
		c.w.Reset(&raw)
		c.send(first)
		firstLen := raw.Len()
		c.send(second)
		c.w.Reset(c.conn)
		whole := raw.Bytes()
		for cut := firstLen + 1; cut < len(whole); cut++ {
			if _, err := c.conn.Write(whole[:cut]); err != nil {
				t.Fatal(err)
			}
			// A stall shows as this deadline expiring, not as a hung test.
			c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			c.expect([]wire.Request{first}, []wire.Reply{replyOK})
			if _, err := c.conn.Write(whole[cut:]); err != nil {
				t.Fatal(err)
			}
			c.expect([]wire.Request{second}, []wire.Reply{replyVal("value")})
		}
	})
}

// TestClientGoneMidBurst: clients that write a burst of multi-op requests and
// close without reading a reply leave no goroutine behind, and their requests
// go back to the pool only after every worker is done with them — a request
// recycled early would be rewritten under a worker (the race detector's to
// catch) and would corrupt the replies of the connection that drew it next,
// which a bystander checks throughout.
func TestClientGoneMidBurst(t *testing.T) {
	addr := startServer(t)
	waitConnGoroutines(t, 0)

	stop := make(chan struct{})
	var bystander sync.WaitGroup
	bystander.Add(1)
	by := dialTyped(t, addr, true)
	go func() {
		defer bystander.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k, v := fmt.Sprintf("by%d", i%64), fmt.Sprintf("val%d", i)
			if err := by.Put(k, v); err != nil {
				t.Errorf("bystander Put: %v", err)
				return
			}
			if got, ok, err := by.Get(k); err != nil || !ok || got != v {
				t.Errorf("bystander Get(%s) = %q, %t, %v; want %q", k, got, ok, err, v)
				return
			}
		}
	}()

	var burst []wire.Request
	for i := 0; i < 96; i++ {
		var kv []string
		for j := 0; j < 8; j++ {
			kv = append(kv, fmt.Sprintf("gone%d.%d", i, j), "some-value-bytes")
		}
		burst = append(burst, wire.Request{Type: wire.TMPut, Ops: puts(kv...)})
	}
	for round := 0; round < 20; round++ {
		c := dialCodec(t, addr, round%2 == 0)
		c.send(burst...)
		c.conn.Close()
	}
	close(stop)
	bystander.Wait()
	by.Close()
	waitConnGoroutines(t, 0)
}
