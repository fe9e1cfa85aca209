// Package kvclient is a minimal client for craftykv. It speaks both codecs of
// internal/wire — text lines, and with Config.Binary the length-prefixed
// frames, negotiated per connection — through one round trip over
// wire.Request and wire.Reply values: the typed methods build Requests and
// read Replies and never format or parse a line (only the debug shim Do does,
// via wire). It carries the retry discipline a server that injects crashes
// demands: dial failures, dropped connections, and the server's explicit
// "ERR recovering" reply (a connection arriving while a CRASH recovery holds
// the store) are retried on a capped exponential backoff with jitter, up to a
// budget. Mutating commands are idempotent at the store (PUT and DEL re-apply
// to the same state), so retrying a round trip whose reply was lost is safe;
// the client documents at-least-once semantics rather than pretending
// otherwise.
//
// The craftykv tests (and the replication failover drills) use it in place
// of hand-rolled net.Dial loops, which hung or flaked whenever a request
// raced a recovery.
package kvclient

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"crafty/internal/kv"
	"crafty/internal/wire"
)

// Config tunes a client. The zero value gets sensible test-scale defaults.
type Config struct {
	// Timeout bounds one round trip (dial, write, or reply read). Default
	// 2s.
	Timeout time.Duration
	// RetryBudget bounds the total time spent retrying one request,
	// including backoff sleeps. Default 15s.
	RetryBudget time.Duration
	// BaseBackoff is the first retry's sleep; each subsequent retry doubles
	// it up to MaxBackoff, and a uniform jitter of up to half the step is
	// added so synchronized clients do not reconnect in lockstep. Defaults
	// 10ms / 500ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed makes the jitter deterministic in tests; 0 seeds from the
	// address so distinct clients still diverge.
	Seed int64
	// Binary opts into the frame codec (internal/wire): each new connection
	// opens with the versioned handshake and requests and replies travel as
	// frames; every method behaves identically either way. The "ERR
	// recovering" and connection-limit refusals, which the server sends in
	// text before it reads the handshake, are retried; any other text answer
	// to the handshake fails the request with a *HandshakeRefusedError.
	Binary bool
}

func (c Config) withDefaults(addr string) Config {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 15 * time.Second
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 10 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		for _, b := range addr {
			c.Seed = c.Seed*31 + int64(b)
		}
		c.Seed++
	}
	return c
}

// Backoff is a capped exponential backoff with jitter — the retry cadence
// shared by the client and the replication layer's reconnect loop. Not safe
// for concurrent use.
type Backoff struct {
	Base, Max time.Duration
	rng       *rand.Rand
	next      time.Duration
}

// NewBackoff builds a backoff; seed fixes the jitter for deterministic
// tests.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	return &Backoff{Base: base, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the sleep before the next attempt: the doubled step, capped,
// plus up to half a step of jitter.
func (b *Backoff) Next() time.Duration {
	if b.next == 0 {
		b.next = b.Base
	} else {
		b.next *= 2
		if b.next > b.Max {
			b.next = b.Max
		}
	}
	return b.next + time.Duration(b.rng.Int63n(int64(b.next)/2+1))
}

// Reset restarts the progression after a success.
func (b *Backoff) Reset() { b.next = 0 }

// Client is a connection to one craftykv server. Not safe for concurrent
// use; open one client per goroutine (the server multiplexes connections).
type Client struct {
	addr string
	cfg  Config
	bo   *Backoff

	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// The current connection's codec: wire.Encoder and wire.Reader, or their
	// line twins.
	enc interface {
		Request(wire.Request) error
	}
	dec interface {
		ReadReply(cmd wire.Type) (wire.Reply, error)
	}

	// Reused request and reply storage: one op and its key/value bytes for
	// the single-key methods, and the replies of the last round trip with
	// the values they alias.
	op      [1]kv.Op
	kbuf    []byte
	replies []wire.Reply
	vals    []byte

	// retries counts transparently retried round trips, for tests asserting
	// the retry path actually ran.
	retries int
}

// Binary reports whether the current connection speaks the binary protocol.
func (c *Client) Binary() bool { return c.conn != nil && c.cfg.Binary }

// Dial creates a client and establishes its first connection, retrying dial
// failures within the budget.
func Dial(addr string, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults(addr)
	c := &Client{addr: addr, cfg: cfg, bo: NewBackoff(cfg.BaseBackoff, cfg.MaxBackoff, cfg.Seed)}
	if err := c.withRetry(func() error { return c.ensureConn() }); err != nil {
		return nil, err
	}
	return c, nil
}

// Retries reports how many transparent retries the client has performed.
func (c *Client) Retries() int { return c.retries }

// Close drops the connection.
func (c *Client) Close() error {
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

// SetAddr repoints the client (failover to a promoted replica); the current
// connection is dropped and the next request dials the new address.
func (c *Client) SetAddr(addr string) {
	c.Close()
	c.addr = addr
}

// errRecovering matches the message of the server's explicit recovery
// refusal.
func errRecovering(msg string) bool { return strings.HasPrefix(msg, "recovering") }

// retryable classifies failures worth another attempt: connection-level
// errors (the crash handler or a conn limit dropped us; redial) and the
// recovering refusal. Protocol-level ERR replies are answers, not failures.
type retryableError struct{ err error }

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

func (c *Client) ensureConn() error {
	if c.conn != nil {
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.Timeout)
	if err != nil {
		return retryableError{err}
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	if c.cfg.Binary {
		return c.handshake()
	}
	c.enc, c.dec = wire.NewLineEncoder(c.w), wire.NewLineReader(c.r)
	return nil
}

// HandshakeRefusedError reports a peer that answered the binary handshake
// with a text line other than a transient refusal: it does not speak the
// frame codec, so retrying cannot help. Line is its answer.
type HandshakeRefusedError struct{ Line string }

func (e *HandshakeRefusedError) Error() string {
	return fmt.Sprintf("kvclient: peer refused the binary handshake: %q", e.Line)
}

// handshake negotiates the binary protocol on a fresh connection. The server
// answers the 5-byte handshake in kind; a text ERR line instead is either a
// transient refusal (recovering, connection limit — sent before the server
// reads the first byte; retry) or a peer that is not a craftykv binary
// endpoint, which fails typed and is not retried.
func (c *Client) handshake() error {
	c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	hs := wire.AppendHandshake(nil, wire.Version)
	if _, err := c.conn.Write(hs); err != nil {
		return c.lost(err)
	}
	first, err := c.r.Peek(1)
	if err != nil {
		return c.lost(err)
	}
	if first[0] == wire.Magic0 {
		var ack [wire.HandshakeLen]byte
		if _, err := io.ReadFull(c.r, ack[:]); err != nil {
			return c.lost(err)
		}
		if _, err := wire.ParseHandshake(ack[:]); err != nil {
			return c.lost(err)
		}
		c.enc, c.dec = wire.NewEncoder(c.w), wire.NewReader(c.r, 0)
		return nil
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return c.lost(err)
	}
	line = strings.TrimRight(line, "\r\n")
	if errRecovering(strings.TrimPrefix(line, "ERR ")) || strings.HasPrefix(line, "ERR too many connections") {
		return c.lost(fmt.Errorf("server refused connection: %s", line))
	}
	c.Close()
	return &HandshakeRefusedError{Line: line}
}

// lost drops the connection a failure happened on mid-round-trip; the failure
// is worth a retry on a fresh one.
func (c *Client) lost(err error) error {
	c.Close()
	return retryableError{err}
}

// withRetry runs op until success, a non-retryable failure, or the budget
// expires (the last error is returned, wrapped with the attempt count).
func (c *Client) withRetry(op func() error) error {
	deadline := time.Now().Add(c.cfg.RetryBudget)
	c.bo.Reset()
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if _, ok := err.(retryableError); !ok {
			return err
		}
		sleep := c.bo.Next()
		if time.Now().Add(sleep).After(deadline) {
			return fmt.Errorf("kvclient: %s: giving up after %d attempts: %w", c.addr, attempt+1, err)
		}
		c.retries++
		time.Sleep(sleep)
	}
}

// roundTrip performs one request on the current connection and reads its
// replies; any transport failure or recovering refusal is retryable, a
// request the codec refuses to encode is not. The replies (and the values
// they alias) are valid until the next round trip.
func (c *Client) roundTrip(req wire.Request) ([]wire.Reply, error) {
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	cmd, ok := wire.Lookup(req.Type)
	if !ok {
		return nil, fmt.Errorf("kvclient: request type %v is not a command", req.Type)
	}
	c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
	if err := c.enc.Request(req); err != nil {
		return nil, fmt.Errorf("kvclient: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.lost(err)
	}
	c.replies, c.vals = c.replies[:0], c.vals[:0]
	for n := cmd.Replies(req); n > 0; n-- {
		r, err := c.dec.ReadReply(req.Type)
		if err != nil {
			return nil, c.lost(err)
		}
		if r.Kind == wire.TErr && errRecovering(r.Msg) {
			// The server refuses connections mid-recovery and closes them;
			// drop ours and redial after backoff.
			return nil, c.lost(fmt.Errorf("server recovering: ERR %s", r.Msg))
		}
		// The decoder's value aliases its read buffer; keep a copy (earlier
		// copies survive growth: they keep the old backing array alive).
		off := len(c.vals)
		c.vals = append(c.vals, r.Val...)
		r.Val = c.vals[off:len(c.vals):len(c.vals)]
		c.replies = append(c.replies, r)
	}
	return c.replies, nil
}

// do is roundTrip under the retry discipline.
func (c *Client) do(req wire.Request) (replies []wire.Reply, err error) {
	err = c.withRetry(func() error {
		replies, err = c.roundTrip(req)
		return err
	})
	return replies, err
}

// one runs a single-reply request of key (and value) and holds the reply to
// the kinds the command's table row allows; an ERR reply becomes an error.
func (c *Client) one(t wire.Type, key, val string, kinds ...wire.Type) (wire.Reply, error) {
	req := wire.Request{Type: t}
	if cmd, ok := wire.Lookup(t); ok && cmd.Args != wire.ArgsNone {
		c.kbuf = append(append(c.kbuf[:0], key...), val...)
		c.op[0] = kv.Op{Kind: cmd.Op, Key: c.kbuf[:len(key):len(key)]}
		if cmd.Args == wire.ArgsKeyValue {
			c.op[0].Value = c.kbuf[len(key):]
		}
		req.Ops = c.op[:]
	}
	replies, err := c.do(req)
	if err != nil {
		return wire.Reply{}, err
	}
	r := replies[0]
	for _, k := range kinds {
		if r.Kind == k {
			return r, nil
		}
	}
	what := t.String()
	if len(req.Ops) > 0 {
		what += " " + key
	}
	if r.Kind == wire.TErr {
		return r, fmt.Errorf("kvclient: %s: ERR %s", what, r.Msg)
	}
	return r, fmt.Errorf("kvclient: %s: unexpected %v reply %q", what, r.Kind, r.Msg)
}

// Get fetches one key; ok reports presence.
func (c *Client) Get(key string) (val string, ok bool, err error) {
	r, err := c.one(wire.TGet, key, "", wire.TVal, wire.TNil)
	return string(r.Val), r.Kind == wire.TVal, err
}

// Put writes one key.
func (c *Client) Put(key, val string) error {
	_, err := c.one(wire.TPut, key, val, wire.TOK)
	return err
}

// Del removes one key; ok reports whether it existed (false covers both NIL
// and an earlier attempt of a retried delete having already removed it).
func (c *Client) Del(key string) (bool, error) {
	r, err := c.one(wire.TDel, key, "", wire.TOK, wire.TNil)
	return r.Kind == wire.TOK, err
}

// Apply runs ops — all gets, all puts, or all deletes, the batches the
// protocol has a command for — as one multi-operation request: one frame (or
// line), one scheduler request, at most one group commit per shard. Gets and
// deletes draw one reply per op, in order (VAL or NIL; OK or NIL); puts draw
// a single count. A per-op failure is an ERR reply, not an error. The replies
// are valid until the client's next request.
func (c *Client) Apply(ops []kv.Op) ([]wire.Reply, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	req := wire.Request{Ops: ops}
	switch ops[0].Kind {
	case kv.OpGet:
		req.Type = wire.TMGet
	case kv.OpPut:
		req.Type = wire.TMPut
	case kv.OpDelete:
		req.Type = wire.TMDel
	}
	for i := range ops {
		if ops[i].Kind != ops[0].Kind {
			return nil, fmt.Errorf("kvclient: Apply: no command runs a mixed batch (%v, then %v)", ops[0].Kind, ops[i].Kind)
		}
	}
	return c.do(req)
}

// Sync runs the server's durability barrier. A successful reply is the
// acknowledgement the replication drills build on: everything this client
// wrote before the Sync is rollback-proof (and, in -repl-sync mode, durable
// on the replica).
func (c *Client) Sync() error {
	_, err := c.one(wire.TSync, "", "", wire.TOK)
	return err
}

// Len returns the live entry count.
func (c *Client) Len() (uint64, error) {
	r, err := c.one(wire.TLen, "", "", wire.TUint)
	return r.N, err
}

// Info fetches the server's metrics snapshot.
func (c *Client) Info() (map[string]int64, error) {
	r, err := c.one(wire.TInfo, "", "", wire.TText)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(r.Msg, "\n")
	m := make(map[string]int64, len(lines)-1)
	for _, l := range lines[1:] {
		name, val, _ := strings.Cut(l, " ")
		if m[name], err = strconv.ParseInt(val, 10, 64); err != nil {
			return nil, fmt.Errorf("kvclient: INFO line %q: %w", l, err)
		}
	}
	return m, nil
}

// summary runs a control command answered by one line of text.
func (c *Client) summary(t wire.Type) (string, error) {
	r, err := c.one(t, "", "", wire.TText)
	return r.Msg, err
}

// Checkpoint runs an incremental checkpoint and returns its summary line.
func (c *Client) Checkpoint() (string, error) { return c.summary(wire.TCheckpoint) }

// Crash injects a power failure, waits out the recovery, and returns its
// summary line. Recovery can outlast Config.Timeout under the race detector;
// size the timeout accordingly, or the retry re-crashes the server.
func (c *Client) Crash() (string, error) { return c.summary(wire.TCrash) }

// Promote turns a replica into a primary and returns the announced position.
func (c *Client) Promote() (string, error) { return c.summary(wire.TPromote) }

// ReplInfo returns the one-line replication summary.
func (c *Client) ReplInfo() (string, error) { return c.summary(wire.TReplInfo) }

// Do is the debug shim: it parses one request line as the server would, runs
// it through the same round trip as the typed methods, and renders the
// replies as the text protocol would — lines joined by newlines, an ERR reply
// as its "ERR ..." line.
func (c *Client) Do(line string) (string, error) {
	req, err := wire.ParseLine([]byte(line), nil)
	if err != nil {
		return "", fmt.Errorf("kvclient: %w", err)
	}
	replies, err := c.do(req)
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	enc := wire.NewLineEncoder(w)
	for _, r := range replies {
		enc.WriteReply(req.Type, r)
	}
	w.Flush()
	return strings.TrimSuffix(b.String(), "\n"), nil
}
