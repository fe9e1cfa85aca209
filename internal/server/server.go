// Package server is the craftykv server: the crash-consistent kv subsystem on
// a Crafty engine with persistence tracking enabled, served over TCP to
// concurrent client connections, and surviving a power failure. cmd/craftykv
// is its flag parsing; tests and in-process drivers build one with New and
// start whichever of Serve, StartPrimary, StartReplica, StartCheckpointer,
// ServeMetrics and StartMetricsLogger they need.
//
// One command model, two codecs (internal/wire): a connection's first byte
// picks the text codec or the frame codec, its read loop decodes each request
// into a wire.Request, and from there on nothing depends on the codec —
// dispatch (below) runs the request, the sharded scheduler (scheduler.go)
// executes its operations, and render writes wire.Reply values through the
// connection's reply encoder. The command table in internal/wire — which
// commands exist, how each is spelled, whether it mutates, what its replies
// look like — is documented in DESIGN.md §14.
//
// Requests flow through the scheduler: each connection — one goroutine —
// routes a request's operations onto per-worker queues by key shard; each
// worker drains its queue and commits the drained mutations — from however
// many connections — in one kv group commit (Store.Apply), so concurrent write
// traffic pays the engine's per-transaction costs once per shard group
// instead of once per operation. Once no further whole request is buffered
// the connection waits for the operations it submitted, renders the replies
// strictly in request order and flushes once per pipelined burst (conn).
//
// Because the NVM is emulated in process memory, a "restart" is modelled the
// way the crash-consistency tests model it: the CRASH command injects a power
// failure (an adversarial persistence policy decides which unflushed words
// survive), runs the full recovery flow — crafty.Recover, crafty.Reopen,
// AdvanceClock, ReopenKV with index verification — and resumes serving the
// recovered store on the same listener. Clients observe exactly what they
// would observe across a real restart: every committed-and-persisted write
// survives; recently committed transactions may roll back whole.
//
// With a replication listener the server additionally streams its group
// commits to replicas (repl.go); as a replica it follows a primary and
// refuses client mutations until PROMOTE. Under ReplSync, a SYNC reply
// further means the replica has durably acknowledged everything the barrier
// covers.
package server

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"crafty"
	"crafty/internal/wire"
)

// Config sizes a server.
type Config struct {
	Shards      int
	Slots       int
	HeapWords   int
	ArenaWords  int
	Pool        int
	Drain       int
	Queue       int
	PersistProb float64
	// Paranoid forces every CRASH recovery onto the full verify + reconcile
	// path even when a checkpoint watermark would bound it.
	Paranoid bool

	// ConnTimeout bounds how long one connection read or flush may sit; 0
	// disables. MaxConns bounds accepted client connections; 0 disables.
	ConnTimeout time.Duration
	MaxConns    int

	// Replication (repl.go): a repl-listen address and/or a primary to
	// replicate from; either one enables the replState. ReplDial is the
	// drills' netfault injection point (nil = plain TCP).
	ReplListen      string
	ReplicaOf       string
	ReplSync        bool
	ReplSyncTimeout time.Duration
	ReplLogCap      int
	ReplDial        func(addr string) (net.Conn, error)
}

// replicated reports whether this config enables replication.
func (c Config) replicated() bool { return c.ReplListen != "" || c.ReplicaOf != "" }

// Server owns the heap, the engine, the store, and the scheduler: one worker
// goroutine per pool slot, each bound to its own engine thread. CRASH takes
// the write lock (waiting out every worker's in-flight batch, as a power
// failure freezes the machine between transactions), rebuilds the engine
// over the surviving heap, and re-registers the worker threads; queued
// operations then drain against the recovered store.
type Server struct {
	cfg    Config
	heap   *crafty.Heap
	layout crafty.Layout
	root   crafty.Addr

	// router maps keys to shards; the mapping depends only on the immutable
	// shard count, so it is safe to use without the lock across crashes.
	router *crafty.KV

	workers []*worker

	mu        sync.RWMutex
	eng       *crafty.Engine
	store     *crafty.KV
	threads   []crafty.Thread
	crashSeed int64

	// syncMu serializes SYNC barriers; see Server.sync.
	syncMu sync.Mutex

	// recovering gates new connections while a CRASH holds the write lock:
	// they get an immediate, explicit error instead of hanging behind the
	// recovery.
	recovering atomic.Bool

	// obs is the server's metrics block (metrics.go); never nil once
	// New returns. connSeq hands each connection a counter stripe.
	obs     *serverMetrics
	connSeq atomic.Uint64

	// repl is the replication state (repl.go); nil unless the config names
	// a repl listener or a primary to follow. crashEpoch counts completed
	// CRASH recoveries so the replica applier can detect one splitting an
	// apply window; conns counts accepted client connections for -max-conns.
	repl       *replState
	crashEpoch atomic.Uint64
	conns      atomic.Int64
}

// New builds a server: heap, engine, store, one scheduler worker per pool
// slot, and (if the config names a replication role) the replication state.
// Nothing listens until Serve.
func New(cfg Config) (*Server, error) {
	if cfg.Pool <= 0 {
		cfg.Pool = 8
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 64
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 1024
	}
	heap := crafty.NewHeap(crafty.HeapConfig{
		Words:            cfg.HeapWords,
		PersistLatency:   crafty.NoLatency,
		TrackPersistence: true,
	})
	eng, err := crafty.New(heap, crafty.Config{ArenaWords: cfg.ArenaWords})
	if err != nil {
		return nil, err
	}
	// Validate the pool against the engine's thread capacity up front: the
	// log directory is sized at engine creation, so a pool that exceeds it
	// would otherwise only fail at the first over-limit registration.
	if cfg.Pool > eng.MaxThreads() {
		return nil, fmt.Errorf("craftykv: -pool %d exceeds the engine's thread capacity %d (Config.MaxThreads)",
			cfg.Pool, eng.MaxThreads())
	}
	s := &Server{cfg: cfg, heap: heap, layout: eng.Layout(), eng: eng, crashSeed: 1}
	s.registerThreads()
	store, err := crafty.NewKV(eng, s.threads[0], crafty.KVConfig{
		Shards:               cfg.Shards,
		InitialSlotsPerShard: cfg.Slots,
	})
	if err != nil {
		return nil, err
	}
	s.store = store
	s.router = store
	s.root = store.Root()
	// Make the store's creation durable before serving: recovery always
	// rolls back the newest sequence of the least-advanced thread (its
	// write-backs may not have completed), so without this quiesce a crash
	// arriving before any synced traffic could undo the store header
	// transaction itself and recovery would find no store at the root.
	if err := syncThread(s.threads[0], s.root); err != nil {
		return nil, err
	}
	// Create every worker before building the metrics block (their
	// queue-depth gauges close over the queues), and build it before any
	// worker goroutine starts (workers record drained batch sizes).
	for i := 0; i < cfg.Pool; i++ {
		s.workers = append(s.workers, &worker{srv: s, id: i, queue: make(chan task, cfg.Queue)})
	}
	// The replication state must exist before the metrics block (which
	// registers its instruments) and before the workers start (which tap
	// batches into its log).
	if cfg.replicated() {
		s.repl = newReplState(s, cfg)
	}
	s.obs = newServerMetrics(s)
	for _, w := range s.workers {
		go w.run()
	}
	return s, nil
}

// registerThreads (re)registers one engine thread per worker on the current
// engine. Register reuses the persistent log directory slots across engine
// incarnations, so repeated crashes do not leak heap space.
func (s *Server) registerThreads() {
	s.threads = make([]crafty.Thread, s.cfg.Pool)
	for i := range s.threads {
		s.threads[i] = s.eng.Register()
	}
}

// syncThread quiesces one engine thread's log, making every transaction it
// has committed rollback-proof (core.Thread.SyncDurable: a drained empty log
// sequence — the direct fsync primitive, no transaction and no conflicts
// with concurrently syncing workers). The marker-transaction fallback covers
// hypothetical engines without SyncDurable; craftykv always runs the Crafty
// engine, which has it.
func syncThread(th crafty.Thread, root crafty.Addr) error {
	if q, ok := th.(interface{ SyncDurable() error }); ok {
		return q.SyncDurable()
	}
	return th.Atomic(func(tx crafty.Tx) error {
		tx.Store(root, tx.Load(root))
		return nil
	})
}

// sync is the scheduler barrier: it hands every worker a barrier task, waits
// for all of them to finish the operations queued ahead of it (the
// rendezvous), releases them to quiesce their own threads' logs
// (syncThread), and waits for the quiesces. The two phases matter: recovery
// rolls back every sequence with ts >= R, where R is the minimum over
// threads of the newest persisted sequence, so every quiesce timestamp must
// postdate every covered commit on every worker — otherwise one worker's
// early marker drags R below another worker's acknowledged write and the
// next crash undoes it. Operations that arrive behind the barrier just
// queue as usual and the barrier never waits on them; syncMu keeps two
// connections' barriers from interleaving their rendezvous (task order can
// differ per queue, which would deadlock the arrival phase).
func (s *Server) sync() error {
	return s.syncWith(nil)
}

// syncWith is the barrier with an optional hook run at the fully quiesced
// point: every worker has synced its log and none has resumed, so no
// transaction is in flight and nothing committed can roll back — the
// precondition KV.Checkpoint documents. The hook is skipped (and its error
// slot left nil) if any quiesce failed, since a watermark over an unsynced
// state would be unsound.
func (s *Server) syncWith(hook func() error) error {
	// The barrier runs no transaction of its own, so timing it here is
	// off-path; the wait covers the serialization behind syncMu too, which is
	// what a client blocked on SYNC actually experiences.
	t0 := time.Now()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	defer func() {
		s.obs.syncs.Inc(0)
		s.obs.syncWaitNs.ObserveSince(t0)
	}()
	b := &syncBarrier{release: make(chan struct{})}
	b.arrive.Add(len(s.workers))
	b.done.Add(len(s.workers))
	if hook != nil {
		b.resume = make(chan struct{})
		b.quiesced.Add(len(s.workers))
	}
	errs := make([]error, len(s.workers))
	for i, w := range s.workers {
		w.queue <- task{barrier: b, errSlot: &errs[i]}
	}
	b.arrive.Wait()
	close(b.release)
	var hookErr error
	if hook != nil {
		b.quiesced.Wait()
		ok := true
		for _, err := range errs {
			if err != nil {
				ok = false
				break
			}
		}
		if ok {
			hookErr = hook()
		}
		close(b.resume)
	}
	b.done.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return hookErr
}

// checkpoint runs one incremental checkpoint under the barrier's quiesced
// window: verify the shards dirtied since the last checkpoint, coalesce the
// arena, persist the watermark, advance the epoch. The next CRASH's reopen
// then verifies only what was dirtied after this point.
func (s *Server) checkpoint() (crafty.KVCheckpointReport, error) {
	var rep crafty.KVCheckpointReport
	err := s.syncWith(func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var err error
		rep, err = s.store.Checkpoint(s.eng)
		return err
	})
	return rep, err
}

// StartCheckpointer runs checkpoints on a fixed cadence until stop closes.
// Each pass costs one SYNC barrier plus work proportional to the shards
// dirtied since the previous pass.
func (s *Server) StartCheckpointer(interval time.Duration, stop chan struct{}) {
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rep, err := s.checkpoint()
				if err != nil {
					log.Printf("craftykv: checkpoint: %v", err)
					continue
				}
				log.Printf("craftykv: checkpoint seq=%d epoch=%d dirty_shards=%d coalesced=%d",
					rep.Seq, rep.Epoch, rep.DirtyShards, rep.Coalesced)
			}
		}
	}()
}

// crash injects a power failure and runs the full recovery flow, replacing
// the engine, store, and worker threads. While it runs, s.recovering gates
// new connections (they get a clear "recovering" error instead of queueing
// behind the write lock), and each recovery phase's wall time is logged.
func (s *Server) crash() (rolledBack int, entries uint64, rep crafty.KVReopenReport, err error) {
	s.recovering.Store(true)
	defer s.recovering.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()

	s.eng.Close()
	s.crashSeed++
	s.heap.Crash(crafty.NewRandomCrashPolicy(s.crashSeed, s.cfg.PersistProb))
	start := time.Now()
	report, err := crafty.Recover(s.heap, s.layout)
	if err != nil {
		return 0, 0, rep, fmt.Errorf("recover: %w", err)
	}
	rollbackTime := time.Since(start)
	start = time.Now()
	eng, err := crafty.Reopen(s.heap, s.layout, crafty.Config{ArenaWords: s.cfg.ArenaWords})
	if err != nil {
		return 0, 0, rep, fmt.Errorf("reopen engine: %w", err)
	}
	eng.AdvanceClock(report.MaxTimestamp)
	engineTime := time.Since(start)
	start = time.Now()
	store, rep, err := crafty.ReopenKVWith(eng, s.root, crafty.KVReopenOptions{Paranoid: s.cfg.Paranoid})
	if err != nil {
		return 0, 0, rep, fmt.Errorf("reopen kv (index verification): %w", err)
	}
	indexTime := time.Since(start)
	path := "bounded"
	if rep.FullVerify {
		path = "full (" + rep.FallbackReason + ")"
	}
	log.Printf("craftykv: recovery: rollback %v (%d sequences), engine reopen %v, index %v (walk %v, arena %v; %s, %d/%d shards verified)",
		rollbackTime, report.SequencesRolledBack, engineTime, indexTime, rep.VerifyTime, rep.ArenaTime, path, rep.VerifiedShards, rep.Shards)
	s.obs.crashes.Inc(0)
	s.obs.recoveryNs.Observe((rollbackTime + engineTime + indexTime).Nanoseconds())
	// Re-adopt the startup metrics blocks so the engine/store counters keep
	// accumulating across incarnations instead of resetting with each crash.
	eng.AdoptMetrics(s.obs.engM)
	store.AdoptMetrics(s.obs.kvM)
	s.eng = eng
	s.store = store
	s.registerThreads()

	// The reopen already verified the index (all of it, or the dirty shards
	// against the watermark); Len is a cheap read-only transaction over the
	// shard headers.
	entries, err = store.Len(s.threads[0])
	if err != nil {
		return 0, 0, rep, err
	}
	// Replication aftermath (repl.go): bump the crash epoch, and as primary
	// invalidate the group log and sever replicas — streamed groups may be
	// among the rolled-back suffix.
	s.onCrashRecovered()
	return report.SequencesRolledBack, entries, rep, nil
}

// Serve accepts client connections on l until it fails.
func (s *Server) Serve(l net.Listener) error {
	log.Printf("craftykv: engine %q serving on %s", s.eng.Name(), l.Addr())
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		// A connection arriving mid-recovery gets a clear error instead of
		// hanging behind the crash handler's write lock. Established
		// connections keep their queued work; it drains against the
		// recovered store.
		if s.recovering.Load() {
			go func(conn net.Conn) {
				fmt.Fprintf(conn, "ERR recovering, retry shortly\n")
				conn.Close()
			}(conn)
			continue
		}
		// The accept loop is the only goroutine that increments, so the
		// check-then-add pair cannot race another accept; handle decrements.
		if s.cfg.MaxConns > 0 && s.conns.Load() >= int64(s.cfg.MaxConns) {
			s.obs.connsRefused.Inc(0)
			go func(conn net.Conn) {
				fmt.Fprintf(conn, "ERR too many connections\n")
				conn.Close()
			}(conn)
			continue
		}
		s.conns.Add(1)
		go s.handle(conn)
	}
}

// maxOwed bounds how many requests a connection submits before it answers
// them: the replies a pipelining client can make the server hold, and how far
// it can run ahead of its own reads.
const maxOwed = 128

// conn is one client connection, served by one goroutine from accept to
// close: it decodes and submits requests while a whole further request is
// already buffered, then waits once for everything it owes, renders the
// replies in request order, flushes, and only then blocks on the socket. A
// pipelined burst so costs one wait and one write syscall, and a request
// crosses no goroutine but the workers that execute its operations.
type conn struct {
	srv    *Server
	nc     net.Conn
	out    *bufio.Writer
	w      replyWriter
	stripe int

	// owed is the requests submitted and not yet answered, in request order;
	// done counts their operations still in flight on the workers.
	owed []*request
	done completion
	// rendered counts the replies written since the last flush.
	rendered int64

	// one backs the decode scratch while requests carry a single operand, so
	// a connection that sends nothing wider allocates no scratch at all.
	one [1]crafty.KVOp
}

// handle is one connection's goroutine from accept to close; see conn.
//
// The codec is auto-detected from the first byte: a binary client leads with
// the handshake's 0xCF magic (wire.go), which can never begin a text command,
// so everything else speaks lines.
func (s *Server) handle(nc net.Conn) {
	defer nc.Close()
	defer s.conns.Add(-1)
	// Each connection gets its own counter stripe so concurrent connections'
	// traffic counters never contend on a cache line.
	stripe := int(s.connSeq.Add(1))
	s.obs.connsTotal.Inc(stripe)
	s.obs.conns.Add(1)
	defer s.obs.conns.Add(-1)
	// The reader size is also the request bound: ReadSlice fails with
	// ErrBufferFull once a newline-free line exceeds it, so a misbehaving
	// client cannot grow one line without limit (binary frames are bounded
	// by the wire reader's limit instead; same maxFrame).
	in := bufio.NewReaderSize(nc, maxFrame)
	// The byte counter sits under the bufio.Writer: one add per flush.
	out := bufio.NewWriter(&countWriter{w: nc, c: s.obs.bytesOut, stripe: stripe})

	if d := s.cfg.ConnTimeout; d > 0 {
		nc.SetReadDeadline(time.Now().Add(d))
	}
	first, err := in.Peek(1)
	if err != nil {
		return
	}
	c := &conn{srv: s, nc: nc, out: out, stripe: stripe}
	c.done.init()
	if first[0] == wire.Magic0 {
		enc := wire.NewEncoder(out)
		if s.handshake(nc, in, enc, stripe) != nil {
			return
		}
		c.w = enc
		c.serveBinary(in)
	} else {
		c.w = wire.NewLineEncoder(out)
		c.serveText(in)
	}
	// Whatever ended the loop — QUIT, EOF, a dead socket — every operation
	// still in flight completes before its request is recycled, and a client
	// that only closed its sending half still gets its replies.
	c.flush()
}

// mayRead is the top of both read loops: it reports whether the loop may go
// on to read the next request. While fewer than maxOwed replies are owed and
// buffered says a whole further request has already arrived, reading cannot
// block, so the burst keeps growing; otherwise the connection first answers
// what it owes, and false means the client is gone.
func (c *conn) mayRead(buffered bool) bool {
	if buffered && len(c.owed) < maxOwed {
		return true
	}
	return c.flush()
}

// settle waits until every owed request has executed, renders the replies in
// request order and recycles the requests. It does not flush: commands whose
// effect or reply must observe the connection's earlier operations across all
// shards (LEN, INFO, CRASH, QUIT, ...) settle and go on, and their own reply
// leaves in the same write. Same-key ordering needs no such barrier, since a
// key's operations share one worker queue.
func (c *conn) settle() {
	c.done.wait()
	for i, req := range c.owed {
		render(c.w, req)
		// Enqueue→reply latency for scheduler-routed requests, stamped
		// strictly outside any transaction (t0 at decode time, here after the
		// replies rendered). Outright replies never hit the scheduler.
		if req.reply.Kind == 0 {
			c.srv.obs.opLatency.ObserveSince(req.t0)
		}
		requestPool.Put(req)
		c.owed[i] = nil
	}
	c.rendered += int64(len(c.owed))
	c.owed = c.owed[:0]
}

// flush settles and sends everything rendered since the last flush in one
// write; false means the write failed and the connection should close.
func (c *conn) flush() bool {
	c.settle()
	if c.out.Buffered() == 0 {
		return true
	}
	c.srv.obs.bursts.Observe(c.rendered)
	c.rendered = 0
	// A stalled client must not pin this goroutine mid-flush.
	if d := c.srv.cfg.ConnTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
	return c.out.Flush() == nil
}

// lineBuffered reports whether a whole line — its newline included — already
// sits in the reader's buffer, so that reading it cannot block. A torn line
// does not count, however long; neither does a full buffer with no newline,
// whose refusal reads on to the line's end.
func lineBuffered(in *bufio.Reader) bool {
	b, _ := in.Peek(in.Buffered())
	return bytes.IndexByte(b, '\n') >= 0
}

// serveText is the text codec's read loop: one line per request, tokenized
// zero-copy (ops alias the line until dispatch copies them into a pooled
// request).
func (c *conn) serveText(in *bufio.Reader) {
	s := c.srv
	scratch := c.one[:0]
	for c.mayRead(lineBuffered(in)) {
		// The connection timeout is an idle/stall bound: a client that sends
		// nothing for a whole interval is disconnected rather than holding
		// the connection's goroutine (and its fd) forever.
		if d := s.cfg.ConnTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		raw, err := in.ReadSlice('\n')
		s.obs.bytesIn.Add(c.stripe, uint64(len(raw)))
		if err == bufio.ErrBufferFull {
			// Oversized request: same typed refusal as an oversized binary
			// frame. Drain the rest of the line so the stream stays framed
			// and the connection survives the mistake.
			c.reply(0, tooLarge)
			for err == bufio.ErrBufferFull {
				raw, err = in.ReadSlice('\n')
				s.obs.bytesIn.Add(c.stripe, uint64(len(raw)))
			}
			if err != nil {
				return
			}
			continue
		}
		// The line (minus its ending, \n or \r\n) aliases the read buffer,
		// valid until the next ReadSlice.
		if line := bytes.TrimRight(raw, "\r\n"); len(line) != 0 {
			s.obs.cmds.Inc(c.stripe)
			req, perr := wire.ParseLine(line, scratch[:0])
			scratch = req.Ops[:0]
			if !c.dispatch(req, perr) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// push submits a request's operations to the scheduler — at dispatch time,
// one queue send per operation, so a SYNC decoded later in the same burst
// still covers them — and records that the connection owes its reply.
// Outright ERR replies (usage mistakes, unknown commands, refusals, failed
// control commands) are counted here — the one spot every one of them passes
// through.
func (c *conn) push(req *request) {
	if req.reply.Kind == wire.TErr {
		c.srv.obs.cmdErrs.Inc(c.stripe)
	}
	if req.reply.Kind == 0 {
		c.srv.submit(req, &c.done)
	}
	c.owed = append(c.owed, req)
}

// reply answers command typ outright with r, in order behind the
// connection's operations in flight.
func (c *conn) reply(typ wire.Type, r wire.Reply) {
	req := newRequest(typ)
	req.reply = r
	c.push(req)
}

// answer replies to command typ with a result computed in place: ERR on
// failure, the text when there is one, a bare OK otherwise.
func (c *conn) answer(typ wire.Type, text string, err error) {
	switch {
	case err != nil:
		c.reply(typ, wire.Reply{Kind: wire.TErr, Msg: err.Error()})
	case text != "":
		c.reply(typ, wire.Reply{Kind: wire.TText, Msg: text})
	default:
		c.reply(typ, wire.Reply{Kind: wire.TOK})
	}
}

// dispatch runs one decoded request, whichever codec decoded it; it returns
// false when the connection should close. perr is the codec's refusal of a
// request it could not decode (req then names the command, if that much was
// legible). Operands alias the connection read buffer: addOp copies them
// into the pooled request, they are never retained.
func (c *conn) dispatch(req wire.Request, perr error) bool {
	s := c.srv
	cmd, known := wire.Lookup(req.Type)
	switch {
	case known && cmd.Mutates && s.writesRefused():
		// Replica role: client mutations are refused until PROMOTE (the
		// replication applier submits its work directly, not through here).
		// The request was read whole, so refusing costs nothing in framing.
		c.answer(req.Type, "", errReadOnlyReplica)
		return true
	case perr != nil:
		// Undecodable but well-delimited: answer and keep the connection.
		c.answer(req.Type, "", perr)
		return true
	case cmd.Args != wire.ArgsNone:
		r := newRequest(req.Type)
		for i := range req.Ops {
			r.addOp(req.Ops[i].Kind, req.Ops[i].Key, req.Ops[i].Value)
		}
		c.push(r)
		return true
	}
	switch req.Type {
	case wire.TLen:
		c.settle()
		c.push(newRequest(wire.TLen))
	case wire.TInfo:
		// The full metrics snapshot. Settling orders it after this
		// connection's earlier operations, so counters reflect them.
		c.settle()
		c.answer(req.Type, s.infoText(), nil)
	case wire.TSync:
		// The barrier covers everything already queued — including this
		// connection's earlier operations — so it need not settle first. In
		// sync-replication mode it additionally waits for the replica's
		// durable acknowledgement (repl.go).
		c.answer(req.Type, "", s.replicatedSync())
	case wire.TCheckpoint:
		// Like SYNC, the barrier covers everything already queued.
		rep, err := s.checkpoint()
		c.answer(req.Type, fmt.Sprintf("OK seq=%d epoch=%d dirty_shards=%d entries=%d coalesced=%d",
			rep.Seq, rep.Epoch, rep.DirtyShards, rep.Entries, rep.Coalesced), err)
	case wire.TCrash:
		c.settle()
		rolledBack, entries, rep, err := s.crash()
		c.answer(req.Type, fmt.Sprintf("OK rolled_back=%d entries=%d verified_shards=%d shards=%d full_verify=%t",
			rolledBack, entries, rep.VerifiedShards, rep.Shards, rep.FullVerify), err)
	case wire.TPromote:
		// Failover: stop following the primary, checkpoint at a quiesced
		// point, start accepting writes under a fresh generation. Settling
		// orders it after this connection's earlier (read) traffic.
		c.settle()
		text, err := s.promote()
		c.answer(req.Type, text, err)
	case wire.TReplInfo:
		c.settle()
		c.answer(req.Type, s.replInfo(), nil)
	case wire.TQuit:
		c.settle()
		c.answer(req.Type, "BYE", nil)
		return false
	}
	return true
}
