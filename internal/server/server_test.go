package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"crafty"
	"crafty/internal/kvclient"
	"crafty/internal/wire"
)

// startServer brings a small server up on an ephemeral port.
func startServer(t *testing.T) string {
	return startServerPersist(t, 0.5)
}

// startServerPersist is startServer with an explicit probability that an
// unfenced word survives an injected crash (0 = worst case: everything not
// properly fenced dies).
func startServerPersist(t *testing.T, persistProb float64) string {
	t.Helper()
	return startServerCfg(t, Config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 22,
		ArenaWords:  1 << 20,
		Pool:        4,
		PersistProb: persistProb,
	})
}

func startServerCfg(t *testing.T, cfg Config) string {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go srv.Serve(l)
	return l.Addr().String()
}

// TestPoolValidatedAtStartup checks a pool larger than the engine's thread
// capacity (Config.MaxThreads, default 64) fails at New with a clean
// error instead of panicking at the first over-limit thread registration.
func TestPoolValidatedAtStartup(t *testing.T) {
	_, err := New(Config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 23,
		ArenaWords:  1 << 20,
		Pool:        65,
		PersistProb: 0.5,
	})
	if err == nil {
		t.Fatal("New accepted -pool 65 over a 64-thread engine")
	}
	if !strings.Contains(err.Error(), "-pool 65") || !strings.Contains(err.Error(), "64") {
		t.Fatalf("unhelpful validation error: %v", err)
	}
}

// client is a line-oriented test client.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) roundTrip(t *testing.T, req string) string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", req); err != nil {
		t.Fatalf("%s: %v", req, err)
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("%s: reading reply: %v", req, err)
	}
	return strings.TrimRight(line, "\r\n")
}

func (c *client) expect(t *testing.T, req, want string) {
	t.Helper()
	if got := c.roundTrip(t, req); got != want {
		t.Fatalf("%s: got %q, want %q", req, got, want)
	}
}

// eachCodec runs fn once per codec: the server's behaviour above the codecs
// is one behaviour, asserted once.
func eachCodec(t *testing.T, fn func(t *testing.T, binary bool)) {
	for _, binary := range []bool{false, true} {
		name := "text"
		if binary {
			name = "binary"
		}
		t.Run(name, func(t *testing.T) { fn(t, binary) })
	}
}

// dialTyped connects the typed client in one codec. The timeout leaves room
// for a CRASH recovery under the race detector.
func dialTyped(t *testing.T, addr string, binary bool) *kvclient.Client {
	t.Helper()
	cl, err := kvclient.Dial(addr, kvclient.Config{Binary: binary, Seed: 5, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if cl.Binary() != binary {
		t.Fatalf("client negotiated binary=%t, want %t", cl.Binary(), binary)
	}
	return cl
}

func gets(keys ...string) []crafty.KVOp {
	ops := make([]crafty.KVOp, len(keys))
	for i, k := range keys {
		ops[i] = crafty.KVOp{Kind: crafty.KVGet, Key: []byte(k)}
	}
	return ops
}

func dels(keys ...string) []crafty.KVOp {
	ops := gets(keys...)
	for i := range ops {
		ops[i].Kind = crafty.KVDelete
	}
	return ops
}

func puts(pairs ...string) []crafty.KVOp {
	ops := make([]crafty.KVOp, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		ops = append(ops, crafty.KVOp{Kind: crafty.KVPut, Key: []byte(pairs[i]), Value: []byte(pairs[i+1])})
	}
	return ops
}

var (
	replyOK  = wire.Reply{Kind: wire.TOK}
	replyNil = wire.Reply{Kind: wire.TNil}
)

func replyVal(v string) wire.Reply  { return wire.Reply{Kind: wire.TVal, Val: []byte(v)} }
func replyUint(n uint64) wire.Reply { return wire.Reply{Kind: wire.TUint, N: n} }

func sameReply(a, b wire.Reply) bool {
	return a.Kind == b.Kind && bytes.Equal(a.Val, b.Val) && a.N == b.N && a.Msg == b.Msg
}

// apply runs one multi-op request and asserts its replies.
func apply(t *testing.T, cl *kvclient.Client, ops []crafty.KVOp, want ...wire.Reply) {
	t.Helper()
	got, err := cl.Apply(ops)
	if err != nil || len(got) != len(want) {
		t.Fatalf("Apply(%v) = %+v, %v; want %d replies", ops, got, err, len(want))
	}
	for i := range want {
		if !sameReply(got[i], want[i]) {
			t.Fatalf("Apply(%v) reply %d = %+v, want %+v", ops, i, got[i], want[i])
		}
	}
}

// TestCommands drives every command against a live server, once per codec,
// through the typed client. (What only raw bytes can ask — usage errors,
// unknown commands and frame types — is pinned byte for byte by the golden
// transcripts.)
func TestCommands(t *testing.T) {
	eachCodec(t, func(t *testing.T, binary bool) {
		cl := dialTyped(t, startServer(t), binary)
		get := func(key, want string, present bool) {
			t.Helper()
			if v, ok, err := cl.Get(key); err != nil || ok != present || v != want {
				t.Fatalf("Get(%s) = %q, %t, %v; want %q, %t", key, v, ok, err, want, present)
			}
		}
		wantLen := func(want uint64) {
			t.Helper()
			if n, err := cl.Len(); err != nil || n != want {
				t.Fatalf("Len = %d, %v; want %d", n, err, want)
			}
		}
		del := func(key string, present bool) {
			t.Helper()
			if ok, err := cl.Del(key); err != nil || ok != present {
				t.Fatalf("Del(%s) = %t, %v; want %t", key, ok, err, present)
			}
		}
		put := func(key, val string) {
			t.Helper()
			if err := cl.Put(key, val); err != nil {
				t.Fatal(err)
			}
		}
		get("nothing", "", false)
		put("greeting", "hello")
		get("greeting", "hello", true)
		put("greeting", "goodbye")
		get("greeting", "goodbye", true)
		wantLen(1)

		apply(t, cl, puts("a", "1", "b", "2"), replyUint(2))
		apply(t, cl, gets("a", "b", "nope"), replyVal("1"), replyVal("2"), replyNil)
		wantLen(3)
		apply(t, cl, dels("a", "nope"), replyOK, replyNil)
		del("b", true)
		del("b", false)
		del("greeting", true)
		del("greeting", false)
		get("greeting", "", false)

		if err := cl.Sync(); err != nil {
			t.Fatal(err)
		}
		if text, err := cl.Checkpoint(); err != nil || !strings.HasPrefix(text, "OK seq=") {
			t.Fatalf("Checkpoint = %q, %v", text, err)
		}
		info, err := cl.Info()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"wire.frames", "conn.commands", "arena.leaked_words"} {
			if _, ok := info[name]; !ok {
				t.Errorf("INFO lacks the %s counter: %v", name, info)
			}
		}
		if binary && info["wire.frames"] <= 0 {
			t.Errorf("wire.frames = %d after binary traffic", info["wire.frames"])
		}
		// The commands that had no frame before the one command table: both
		// codecs carry them now.
		if text, err := cl.ReplInfo(); err != nil || text != "REPLINFO role=primary repl=off" {
			t.Fatalf("ReplInfo = %q, %v", text, err)
		}
		if _, err := cl.Promote(); err == nil || !strings.Contains(err.Error(), "ERR replication not configured") {
			t.Fatalf("Promote on a standalone server: %v", err)
		}
		if text, err := cl.Do("QUIT"); err != nil || text != "BYE" {
			t.Fatalf("QUIT = %q, %v", text, err)
		}
	})
}

// readLine reads one reply line without sending anything.
func (c *client) readLine(t *testing.T) string {
	t.Helper()
	line, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading reply: %v", err)
	}
	return strings.TrimRight(line, "\r\n")
}

// expectLines asserts the next replies, in order.
func (c *client) expectLines(t *testing.T, want ...string) {
	t.Helper()
	for _, w := range want {
		if got := c.readLine(t); got != w {
			t.Fatalf("got %q, want %q", got, w)
		}
	}
}

func TestMGET(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.expect(t, "PUT alpha one", "OK")
	c.expect(t, "PUT beta two", "OK")
	c.expect(t, "MGET", "ERR usage: MGET <key> [<key> ...]")
	c.expect(t, "MGET ", "ERR usage: MGET <key> [<key> ...]")
	if _, err := fmt.Fprintf(c.conn, "MGET alpha missing beta alpha\n"); err != nil {
		t.Fatal(err)
	}
	c.expectLines(t, "VAL one", "NIL", "VAL two", "VAL one")
	// The connection stays usable for ordinary commands afterwards.
	c.expect(t, "GET beta", "VAL two")
}

func TestMPutMDel(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	c.expect(t, "MPUT", "ERR usage: MPUT <key> <value> [<key> <value> ...]")
	c.expect(t, "MPUT lonelykey", "ERR usage: MPUT <key> <value> [<key> <value> ...]")
	c.expect(t, "MPUT a 1 b 2 c 3", "OK 3")
	if _, err := fmt.Fprintf(c.conn, "MGET a b c nope\n"); err != nil {
		t.Fatal(err)
	}
	c.expectLines(t, "VAL 1", "VAL 2", "VAL 3", "NIL")
	// MPUT updates in place; later pairs win over earlier ones in the batch.
	c.expect(t, "MPUT a 10 a 11", "OK 2")
	c.expect(t, "GET a", "VAL 11")
	c.expect(t, "MDEL", "ERR usage: MDEL <key> [<key> ...]")
	if _, err := fmt.Fprintf(c.conn, "MDEL a nope b\n"); err != nil {
		t.Fatal(err)
	}
	c.expectLines(t, "OK", "NIL", "OK")
	c.expect(t, "GET a", "NIL")
	c.expect(t, "GET c", "VAL 3")
	c.expect(t, "LEN", "LEN 1")
}

// TestManyConnectionsCoalesce drives concurrent writers through the
// scheduler (many connections' mutations coalescing into group commits) and
// checks nothing is lost or misrouted.
func TestManyConnectionsCoalesce(t *testing.T) {
	addr := startServer(t)
	const clients = 8
	const keys = 50
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			// Pipeline every PUT in one burst, then read all responses.
			var burst strings.Builder
			for i := 0; i < keys; i++ {
				fmt.Fprintf(&burst, "PUT c%d-k%d v%d-%d\n", g, i, g, i)
			}
			if _, err := conn.Write([]byte(burst.String())); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < keys; i++ {
				line, err := r.ReadString('\n')
				if err != nil || strings.TrimSpace(line) != "OK" {
					errCh <- fmt.Errorf("client %d put %d: %q %v", g, i, line, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	c := dial(t, addr)
	c.expect(t, "LEN", fmt.Sprintf("LEN %d", clients*keys))
	for g := 0; g < clients; g++ {
		for i := 0; i < keys; i += 7 {
			c.expect(t, fmt.Sprintf("GET c%d-k%d", g, i), fmt.Sprintf("VAL v%d-%d", g, i))
		}
	}
}

// TestSyncCompletesDuringSlowBatch is the scheduler-barrier regression test:
// while one connection streams a long pipelined write burst (kept in flight
// by not reading its responses), SYNC on another connection must complete —
// the barrier rides the worker queues behind whatever is already enqueued
// instead of draining a thread pool.
func TestSyncCompletesDuringSlowBatch(t *testing.T) {
	addr := startServer(t)

	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	const slowOps = 3000
	go func() {
		var burst strings.Builder
		for i := 0; i < slowOps; i++ {
			fmt.Fprintf(&burst, "PUT slow-%d v%d\n", i, i)
		}
		slow.Write([]byte(burst.String()))
	}()

	c := dial(t, addr)
	c.expect(t, "PUT mine v", "OK")
	done := make(chan string, 1)
	go func() { done <- c.roundTrip(t, "SYNC") }()
	select {
	case got := <-done:
		if got != "OK" {
			t.Fatalf("SYNC: %q", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SYNC did not complete while another connection's batch was in flight")
	}

	// Drain the slow connection: every write must have been acknowledged.
	r := bufio.NewReader(slow)
	for i := 0; i < slowOps; i++ {
		line, err := r.ReadString('\n')
		if err != nil || strings.TrimSpace(line) != "OK" {
			t.Fatalf("slow put %d: %q %v", i, line, err)
		}
	}
}

// TestPipelinedBurst sends many requests in a single write and checks every
// reply arrives, in order, in both codecs — the server flushes its
// per-connection buffered writer only once the request burst is drained —
// and that a multi-op request is answered once per key.
func TestPipelinedBurst(t *testing.T) {
	eachCodec(t, func(t *testing.T, binary bool) {
		c := dialCodec(t, startServer(t), binary)
		one := func(typ wire.Type, ops ...crafty.KVOp) wire.Request { return wire.Request{Type: typ, Ops: ops} }
		burst := []wire.Request{
			one(wire.TPut, puts("k1", "v1")...), one(wire.TPut, puts("k2", "v2")...),
			one(wire.TGet, gets("k1")...),
			one(wire.TMGet, gets("k1", "k2", "nope")...),
			one(wire.TLen),
			one(wire.TGet, gets("nope")...),
		}
		c.send(burst...)
		c.expect(burst, []wire.Reply{replyOK, replyOK, replyVal("v1"), replyVal("v1"), replyVal("v2"), replyNil, replyUint(2), replyNil})

		const n = 64
		var keys []string
		var want []wire.Reply
		burst = burst[:0]
		for i := 0; i < n; i++ {
			keys = append(keys, fmt.Sprintf("k%03d", i))
			burst = append(burst, one(wire.TPut, puts(keys[i], fmt.Sprintf("v%03d", i))...))
			want = append(want, replyOK)
		}
		burst = append(burst, one(wire.TMGet, gets(keys...)...))
		for i := 0; i < n; i++ {
			want = append(want, replyVal(fmt.Sprintf("v%03d", i)))
		}
		c.send(burst...)
		c.expect(burst, want)
	})
}

// TestOverlongLineRejected proves a newline-free stream cannot grow one
// request line without bound: the server answers with the typed frame-size
// refusal, drains the oversized line, and keeps serving the connection.
func TestOverlongLineRejected(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	if _, err := c.conn.Write([]byte(strings.Repeat("a", 1<<20+512) + "\n")); err != nil {
		t.Fatal(err)
	}
	if got := c.readLine(t); got != "ERR frame too large 1048576" {
		t.Fatalf("got %q, want the frame-too-large error", got)
	}
	// The connection survives the mistake: the next request works.
	c.expect(t, "PUT survivor v", "OK")
	c.expect(t, "GET survivor", "VAL v")
}

// TestConcurrentClients exercises several connections writing and reading
// disjoint key ranges at once.
func TestConcurrentClients(t *testing.T) {
	addr := startServer(t)
	const clients = 6
	const keys = 40
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			ask := func(req string) (string, error) {
				if _, err := fmt.Fprintf(conn, "%s\n", req); err != nil {
					return "", err
				}
				line, err := r.ReadString('\n')
				return strings.TrimRight(line, "\r\n"), err
			}
			for i := 0; i < keys; i++ {
				if got, err := ask(fmt.Sprintf("PUT c%d-k%d v%d-%d", g, i, g, i)); err != nil || got != "OK" {
					errCh <- fmt.Errorf("client %d put %d: %q %v", g, i, got, err)
					return
				}
			}
			for i := 0; i < keys; i++ {
				want := fmt.Sprintf("VAL v%d-%d", g, i)
				if got, err := ask(fmt.Sprintf("GET c%d-k%d", g, i)); err != nil || got != want {
					errCh <- fmt.Errorf("client %d get %d: %q %v", g, i, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	c := dial(t, addr)
	c.expect(t, "LEN", fmt.Sprintf("LEN %d", clients*keys))
}

// TestSurvivesRestart is the server's acceptance check, in both codecs: data
// written and synced before an injected power failure is served intact
// afterwards — at any survival probability for unfenced words, the worst
// case (0) included — and the restarted server keeps accepting writes. SYNC
// models the group fsync a durable store performs before acknowledging a
// barrier; without it, recently committed transactions may legitimately roll
// back whole (the engine's buffered-durability contract), which
// TestCrashRollsBackWhole checks separately.
func TestSurvivesRestart(t *testing.T) {
	eachCodec(t, func(t *testing.T, binary bool) {
		for _, persistProb := range []float64{0.5, 0} {
			t.Run(fmt.Sprint("persist=", persistProb), func(t *testing.T) {
				cl := dialTyped(t, startServerPersist(t, persistProb), binary)
				const keys = 80
				round := func(prefix string) {
					t.Helper()
					for i := 0; i < keys; i++ {
						if err := cl.Put(fmt.Sprintf("%s-%d", prefix, i), fmt.Sprintf("%s-value-%d", prefix, i)); err != nil {
							t.Fatal(err)
						}
					}
					if err := cl.Sync(); err != nil {
						t.Fatal(err)
					}
					reply, err := cl.Crash()
					if err != nil || !strings.HasPrefix(reply, "OK rolled_back=") {
						t.Fatalf("CRASH: %q, %v", reply, err)
					}
					t.Logf("crash after %s: %s", prefix, reply)
				}
				intact := func(prefix string) {
					t.Helper()
					for i := 0; i < keys; i++ {
						want := fmt.Sprintf("%s-value-%d", prefix, i)
						if v, ok, err := cl.Get(fmt.Sprintf("%s-%d", prefix, i)); err != nil || !ok || v != want {
							t.Fatalf("Get(%s-%d) = %q, %t, %v after the crash; want %q", prefix, i, v, ok, err, want)
						}
					}
				}
				// Same connection, new engine incarnation behind it: all synced
				// data must be intact.
				round("stable")
				intact("stable")
				if n, err := cl.Len(); err != nil || n != keys {
					t.Fatalf("Len = %d, %v; want %d", n, err, keys)
				}
				// The restarted server must keep serving writes, and survive a
				// second crash the same way.
				round("round2")
				intact("stable")
				intact("round2")
				if cl.Retries() != 0 {
					t.Errorf("the client retried %d times; the connection should survive a CRASH", cl.Retries())
				}
			})
		}
	})
}

// TestBatchAckWaitsForAllOps: a batched request must not complete until
// every operation's result slot is written. With a single-slot worker queue,
// submit blocks routing operation k+1 while a worker drains and completes
// operation k — the interleaving that exposed submit's original incremental
// remaining count, which let the request's done channel close (and the
// writer render result slots still being filled) after only a prefix of the
// batch had run.
func TestBatchAckWaitsForAllOps(t *testing.T) {
	addr := startServerCfg(t, Config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 22,
		ArenaWords:  1 << 20,
		Pool:        2,
		Queue:       1,
		PersistProb: 0.5,
	})
	c := dial(t, addr)
	const keys = 48
	for i := 0; i < keys; i++ {
		c.expect(t, fmt.Sprintf("PUT ack-%d val-%d", i, i), "OK")
	}
	for iter := 0; iter < 20; iter++ {
		var req strings.Builder
		req.WriteString("MGET")
		for i := 0; i < keys; i++ {
			fmt.Fprintf(&req, " ack-%d", i)
		}
		req.WriteByte('\n')
		if _, err := c.conn.Write([]byte(req.String())); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			line, err := c.r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if got, want := strings.TrimRight(line, "\r\n"), fmt.Sprintf("VAL val-%d", i); got != want {
				t.Fatalf("iter %d key %d: got %q, want %q (batch acknowledged before all ops ran?)", iter, i, got, want)
			}
		}
	}
}

// TestSyncBarrierWorstCaseCrash: SYNC must be a deterministic barrier, not a
// probabilistic one. With persist-prob 0 every word the barrier left
// unfenced dies in the crash, so any gap in the quiesce is exposed. The
// whole round is pipelined in one write — the shape that caught two real
// bugs here: (1) submit counted remaining incrementally, so a fast worker
// could acknowledge a batch with operations still being routed; (2) the
// barrier had no rendezvous, so one worker's quiesce timestamp could
// predate another worker's still-in-flight covered group, dragging the
// recovery rollback window (R = min over threads of the newest persisted
// sequence) below an acknowledged, synced write — the crash then undid it.
func TestSyncBarrierWorstCaseCrash(t *testing.T) {
	addr := startServerPersist(t, 0)
	c := dial(t, addr)
	for round := 0; round < 3; round++ {
		// Pipeline per-op puts, a batched MPUT, an MDEL, SYNC, and CRASH in
		// one burst so the barrier races the scheduler's group commits.
		var burst strings.Builder
		for i := 0; i < 8; i++ {
			fmt.Fprintf(&burst, "PUT solo-%d-%d r%d-%d\n", round, i, round, i)
		}
		burst.WriteString("MPUT")
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&burst, " batch-%d-%d b%d-%d", round, i, round, i)
		}
		burst.WriteByte('\n')
		fmt.Fprintf(&burst, "MDEL batch-%d-0 batch-%d-1\n", round, round)
		burst.WriteString("SYNC\nCRASH\n")
		if _, err := c.conn.Write([]byte(burst.String())); err != nil {
			t.Fatal(err)
		}
		want := make([]string, 0, 12)
		for i := 0; i < 8; i++ {
			want = append(want, "OK")
		}
		want = append(want, "OK 16", "OK", "OK", "OK")
		c.expectLines(t, want...)
		crash, err := c.r.ReadString('\n')
		if err != nil {
			t.Fatalf("round %d CRASH reply: %v", round, err)
		}
		if !strings.HasPrefix(crash, "OK ") {
			t.Fatalf("round %d CRASH: %q", round, crash)
		}
		for i := 0; i < 8; i++ {
			c.expect(t, fmt.Sprintf("GET solo-%d-%d", round, i), fmt.Sprintf("VAL r%d-%d", round, i))
		}
		for i := 0; i < 16; i++ {
			want := fmt.Sprintf("VAL b%d-%d", round, i)
			if i < 2 {
				want = "NIL"
			}
			c.expect(t, fmt.Sprintf("GET batch-%d-%d", round, i), want)
		}
	}
}

// TestSyncConcurrentWithCrash stresses the barrier's lock discipline: while
// writers flood the workers, one connection SYNCs in a loop and another
// CRASHes. A worker that parked at the rendezvous while holding the server's
// read lock would deadlock here — CRASH's pending write lock blocks the
// other workers' batch read locks, so they never arrive and the release
// never comes. The test is a canary: a regression hangs it (go test's
// timeout fails the run) rather than failing an assertion.
func TestSyncConcurrentWithCrash(t *testing.T) {
	addr := startServerCfg(t, Config{
		Shards:      8,
		Slots:       64,
		HeapWords:   1 << 22,
		ArenaWords:  1 << 20,
		Pool:        4,
		Queue:       4,
		PersistProb: 0.5,
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer pressure keeping every worker queue busy
		defer wg.Done()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := fmt.Fprintf(conn, "MPUT w%d a w%d b w%d c w%d d\n", i, i+1, i+2, i+3); err != nil {
				return
			}
			if _, err := r.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	syncer := dial(t, addr)
	crasher := dial(t, addr)
	for i := 0; i < 15; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if got := syncer.roundTrip(t, "SYNC"); got != "OK" {
				t.Errorf("SYNC: %q", got)
			}
		}()
		if reply := crasher.roundTrip(t, "CRASH"); !strings.HasPrefix(reply, "OK ") {
			t.Fatalf("CRASH: %q", reply)
		}
		<-done
	}
	close(stop)
	wg.Wait()
}

// TestCrashRollsBackWhole drives unsynced writes into a crash and checks the
// weaker—but still atomic—guarantee: every key is either at a committed
// value or absent, never torn, and the index still verifies (the CRASH reply
// carries the verified entry count).
func TestCrashRollsBackWhole(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	const keys = 60
	for i := 0; i < keys; i++ {
		c.expect(t, fmt.Sprintf("PUT k%d first-%d", i, i), "OK")
	}
	for i := 0; i < keys; i++ {
		c.expect(t, fmt.Sprintf("PUT k%d second-%d", i, i), "OK")
	}
	reply := c.roundTrip(t, "CRASH")
	if !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("CRASH: %q", reply)
	}
	for i := 0; i < keys; i++ {
		got := c.roundTrip(t, fmt.Sprintf("GET k%d", i))
		first := fmt.Sprintf("VAL first-%d", i)
		second := fmt.Sprintf("VAL second-%d", i)
		if got != first && got != second && got != "NIL" {
			t.Fatalf("key k%d torn after crash: %q", i, got)
		}
	}
}

// TestStatsLeakFreeAcrossCrash drives churn with deletes, crashes, and
// checks the arena occupancy the server reports through INFO: live + free
// must always account for every used word (arena.leaked_words = 0), and the
// high-water mark must not grow across the crash/recovery cycle — the store
// reclaims blocks that were free at the power failure.
func TestStatsLeakFreeAcrossCrash(t *testing.T) {
	addr := startServer(t)
	c := dial(t, addr)
	for i := 0; i < 60; i++ {
		c.expect(t, fmt.Sprintf("PUT key%02d value-%02d-abcdefghijklmnop", i, i), "OK")
	}
	for i := 0; i < 60; i += 2 {
		c.expect(t, fmt.Sprintf("DEL key%02d", i), "OK")
	}
	// Make the churn rollback-proof so the post-crash state is exactly this
	// one (a rolled-back delete would turn a later re-insert into an update,
	// whose transient double block would muddy the strict no-growth check).
	c.expect(t, "SYNC", "OK")
	before := c.info(t)
	if leaked := before["arena.leaked_words"]; leaked != 0 {
		t.Fatalf("leaked %d words before crash: %v", leaked, before)
	}
	usedBefore := before["arena.used_words"]
	if free := before["arena.free_words"]; free == 0 {
		t.Fatalf("expected free words after deletes: %v", before)
	}

	if reply := c.roundTrip(t, "CRASH"); !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("CRASH: %q", reply)
	}
	after := c.info(t)
	if leaked := after["arena.leaked_words"]; leaked != 0 {
		t.Fatalf("leaked %d words across recovery: %v", leaked, after)
	}
	if usedAfter := after["arena.used_words"]; usedAfter > usedBefore {
		t.Fatalf("arena grew across crash: used %d -> %d", usedBefore, usedAfter)
	}
	// Re-inserting the deleted keys is served from reclaimed space without
	// growing the arena. (Updates of live keys would transiently hold two
	// blocks — the new one is allocated before the commit-deferred free — so
	// the strict no-growth check uses pure inserts.)
	for i := 0; i < 60; i += 2 {
		c.expect(t, fmt.Sprintf("PUT key%02d value-%02d-abcdefghijklmnop", i, i), "OK")
	}
	final := c.info(t)
	if leaked := final["arena.leaked_words"]; leaked != 0 {
		t.Fatalf("leaked %d words after rewrite: %v", leaked, final)
	}
	if usedFinal := final["arena.used_words"]; usedFinal > usedBefore {
		t.Fatalf("arena grew refilling reclaimed space: used %d -> %d", usedBefore, usedFinal)
	}
}
