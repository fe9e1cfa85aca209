// The sharded request scheduler: instead of borrowing an engine thread per
// request (one durable transaction per client op, serialized through a
// channel round-trip), every connection routes its keyed operations onto
// per-worker queues — worker = shard mod workers, so same-shard traffic from
// every connection shares a queue — and each worker drains its queue into one
// Store.Apply call: a drained batch of K mutations from any number of
// connections commits in the worker's shard groups, paying the engine's
// per-transaction toll (Log-phase HTM commit, LOGGED/COMMITTED marker pair,
// batched flush) once per group instead of once per op. Completions count
// down the submitting connection's completion counter; the connection renders
// replies strictly in its request order once the count reaches zero. The
// scheduler deals in wire.Request and wire.Reply values only; which codec
// carried them is the connection's business (server.go).
package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"crafty"
	"crafty/internal/wire"
)

// opResult is one operation's outcome, copied out of the worker's reused
// Apply buffers into request-owned storage.
type opResult struct {
	found bool
	val   []byte
	err   error
}

// reply is the operation's answer: ERR on failure, NIL for an absent key,
// otherwise hit — what the command owes a present key.
func (r *opResult) reply(hit wire.Reply) wire.Reply {
	switch {
	case r.err != nil:
		return wire.Reply{Kind: wire.TErr, Msg: r.err.Error()}
	case !r.found:
		return wire.Reply{Kind: wire.TNil}
	}
	return hit
}

// request is one command in flight: its operations, their results, and the
// counter its submitter waits on. Requests are pooled; all slices are reused
// across requests.
type request struct {
	// typ is the command (a row of wire.Commands); zero only under an
	// outright refusal of a request whose command was illegible.
	typ wire.Type
	// reply, when its Kind is set, answers the command outright — a refusal,
	// a codec error, a control command's result — and the request does no
	// scheduler work: it sits among the connection's owed requests only so
	// the reply stays ordered with the operations in flight.
	reply wire.Reply

	ops []crafty.KVOp
	res []opResult
	buf []byte // backing storage for the ops' copied keys and values

	n   uint64 // LEN result
	err error  // request-level failure (LEN)

	// owner is the submitter's completion counter (Server.submit): workers
	// count each finished operation down on it and never touch the request
	// again, so the submitter may recycle it the moment the count is zero.
	owner *completion

	// t0 is the decode-time stamp for the enqueue→reply latency histogram,
	// taken and read strictly outside any transaction.
	t0 time.Time
}

// completion counts one submitter's operations in flight — a connection's
// (conn.done) or the replication applier's (kvApplier.runOps) — so that
// waiting for any number of requests is one wait, and serving a request
// allocates no channel. Only the submitter adds and waits; workers finish.
type completion struct {
	pending atomic.Int64
	// wake carries at most one token: whichever worker brings pending to zero
	// leaves it, without blocking. The count may touch zero many times while
	// the submitter is still submitting, so a token can be stale; wait
	// rechecks the count after every receive.
	wake chan struct{}
}

func (c *completion) init() { c.wake = make(chan struct{}, 1) }

// finish counts one operation done.
func (c *completion) finish() {
	if c.pending.Add(-1) == 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// wait blocks until every operation added so far has finished. A finisher
// that finds the token slot full dropped its token only because one was
// already there, so the receive below never misses the last one.
func (c *completion) wait() {
	for c.pending.Load() != 0 {
		<-c.wake
	}
}

var requestPool = sync.Pool{New: func() any { return &request{} }}

// newRequest draws a reset request from the pool.
func newRequest(typ wire.Type) *request {
	r := requestPool.Get().(*request)
	r.typ = typ
	r.reply = wire.Reply{}
	r.ops = r.ops[:0]
	r.res = r.res[:0]
	r.buf = r.buf[:0]
	r.n = 0
	r.err = nil
	r.owner = nil
	r.t0 = time.Now()
	return r
}

// copyBuf copies b into the request's backing buffer and returns the
// aliasing slice (safe across buffer growth: earlier slices keep the old
// backing array alive). Both codecs decode zero-copy, handing in slices that
// alias a connection read buffer reused after dispatch, so this copy — the
// only one between the socket and the store — is the aliasing boundary.
func (r *request) copyBuf(b []byte) []byte {
	off := len(r.buf)
	r.buf = append(r.buf, b...)
	return r.buf[off : off+len(b) : off+len(b)]
}

// addOp appends one operation and its result slot, copying key and value; an
// empty value means none. The slot is recycled in place when the pooled slice
// has capacity, so its value buffer's backing array survives across requests.
func (r *request) addOp(kind crafty.KVOpKind, key, value []byte) {
	op := crafty.KVOp{Kind: kind, Key: r.copyBuf(key)}
	if len(value) > 0 {
		op.Value = r.copyBuf(value)
	}
	r.ops = append(r.ops, op)
	if n := len(r.res); n < cap(r.res) {
		r.res = r.res[:n+1]
		s := &r.res[n]
		s.found = false
		s.err = nil
		s.val = s.val[:0]
	} else {
		r.res = append(r.res, opResult{})
	}
}

// task is one scheduler queue item: either one operation of a request, a
// whole-store read (LEN), or a durability barrier.
type task struct {
	req *request
	op  int // index into req.ops; -1 for barriers and LEN

	// barrier, when non-nil, asks the worker to rendezvous with the other
	// workers and then quiesce its own thread's log; errSlot receives a
	// failure. See Server.sync for the two-phase protocol and why the
	// rendezvous is load-bearing.
	barrier *syncBarrier
	errSlot *error
}

// syncBarrier coordinates one SYNC across every worker: all workers first
// arrive (their pre-barrier operations have committed), then — and only then
// — each quiesces its own thread's log. Drawing the quiesce timestamps after
// the rendezvous is what makes the barrier sound: recovery rolls back every
// sequence with ts >= R, R the minimum over threads of the newest persisted
// sequence, so a quiesce marker timestamped before another worker's
// still-in-flight covered commit would drag R below that commit and recovery
// would undo an acknowledged, synced write.
type syncBarrier struct {
	arrive  sync.WaitGroup
	release chan struct{} // closed once every worker has arrived
	done    sync.WaitGroup

	// Checkpoint rendezvous (nil resume = plain SYNC): after quiescing, each
	// worker parks again until resume closes, giving Server.syncWith a window
	// where every log is synced and no transaction can start — the only
	// moment a checkpoint's verified watermark is sound to write (and free-
	// block coalescing is safe).
	quiesced sync.WaitGroup
	resume   chan struct{}
}

// worker owns one engine thread (indexed by id into Server.threads) and one
// queue; it is the only goroutine that ever uses that thread.
type worker struct {
	srv   *Server
	id    int
	queue chan task

	// tapOps is the reused staging buffer for the replication tap: the
	// batch's committed mutations, handed to repl.Log.Append (which deep-
	// copies) right after the group commit returns.
	tapOps []crafty.KVOp
}

// submit enqueues every operation of req, to be counted down on owner; the
// caller waits on owner before it reads or recycles the request.
func (s *Server) submit(req *request, owner *completion) {
	req.owner = owner
	if req.typ == wire.TLen {
		owner.pending.Add(1)
		s.workers[0].queue <- task{req: req, op: -1}
		return
	}
	// Count every operation before enqueueing any: one add per request, and
	// the count cannot touch zero while this request is half routed.
	owner.pending.Add(int64(len(req.ops)))
	for i := range req.ops {
		w := s.workers[s.router.ShardOf(req.ops[i].Key)%len(s.workers)]
		w.queue <- task{req: req, op: i}
	}
}

// run is the worker's drain loop: block for one task, drain what else is
// already queued (up to the drain bound), execute the batch's operations in
// one Store.Apply — the group commit — and route completions.
func (w *worker) run() {
	var (
		items []task
		ops   []crafty.KVOp
		res   []crafty.KVOpResult
		dst   []byte
	)
	for first := range w.queue {
		items = append(items[:0], first)
	drain:
		for len(items) < w.srv.cfg.Drain {
			select {
			case t := <-w.queue:
				items = append(items, t)
			default:
				break drain
			}
		}
		// Drained batch size, recorded between transactions (the Apply below
		// has not started); the distribution shows how much group-commit
		// batching the offered load actually achieves.
		w.srv.obs.drainBatch.Observe(int64(len(items)))

		w.srv.mu.RLock()
		th := w.srv.threads[w.id]
		store := w.srv.store

		ops = ops[:0]
		for _, t := range items {
			if t.req != nil && t.op >= 0 {
				ops = append(ops, t.req.ops[t.op])
			}
		}
		if len(ops) > 0 {
			//crafty:ignoreerr Apply's batch error is contractually nil; per-op failures (incl. ErrTxTooLarge) are consumed from res below
			res, dst, _ = store.Apply(th, ops, res, dst[:0])
			// Replication tap: append the batch's committed mutations to the
			// shared log before any completion (and before any barrier parking
			// later in this loop), so a SYNC barrier's fully-quiesced point
			// always covers every group the log covers.
			if rs := w.srv.repl; rs != nil && rs.tapping() {
				w.tap(items, res)
			}
		}

		j := 0
		for _, t := range items {
			switch {
			case t.barrier != nil:
				// Durability barrier, phase 1: this worker's pre-barrier
				// operations have all committed (they preceded the barrier in
				// this queue; ops drained alongside it ran in the Apply
				// above — over-delivery is fine). Park until every worker
				// reaches this point, so no quiesce timestamp can predate
				// another worker's covered commit (see syncBarrier). Parking
				// must not hold the server lock: a concurrent CRASH bidding
				// for the write lock would block the other workers' batch
				// read locks, they would never arrive, and the release would
				// never come.
				w.srv.mu.RUnlock()
				t.barrier.arrive.Done()
				<-t.barrier.release
				// Phase 2: quiesce this worker thread's own log. SyncDurable
				// appends a drained empty sequence, deterministically moving
				// the thread's newest persisted sequence past every covered
				// write. Re-read the thread: a CRASH while this worker was
				// parked replaces the engine, and quiescing the fresh log is
				// the harmless outcome (the crash already discarded whatever
				// the barrier was to cover). Later tasks in this batch reuse
				// th/store, so refresh both.
				w.srv.mu.RLock()
				th = w.srv.threads[w.id]
				store = w.srv.store
				if err := syncThread(th, w.srv.root); err != nil && t.errSlot != nil {
					*t.errSlot = err
				}
				if t.barrier.resume != nil {
					// Checkpoint rendezvous: park — again without the server
					// lock, for the same CRASH-deadlock reason — until the
					// barrier's hook has run at the fully quiesced point,
					// then refresh th/store once more (a concurrent CRASH may
					// have replaced the engine while this worker was parked).
					w.srv.mu.RUnlock()
					t.barrier.quiesced.Done()
					<-t.barrier.resume
					w.srv.mu.RLock()
					th = w.srv.threads[w.id]
					store = w.srv.store
				}
				t.barrier.done.Done()
			case t.op < 0:
				// LEN: a read-only sweep over the shard headers.
				t.req.n, t.req.err = store.Len(th)
				t.req.owner.finish()
			default:
				r := &t.req.res[t.op]
				out := res[j]
				j++
				r.found = out.Found
				r.err = out.Err
				if out.Value != nil {
					// Copy out of the worker's reused value buffer before
					// the next batch overwrites it. Each op has its own
					// result slot, so concurrent workers completing one
					// request never share a destination.
					r.val = append(r.val[:0], out.Value...)
				} else {
					r.val = r.val[:0] // keep the backing array for reuse
				}
				t.req.owner.finish()
			}
		}
		w.srv.mu.RUnlock()
	}
}

// tap collects the batch's successfully committed mutations into one
// replication group. Result indexing mirrors the completion loop: res[j] for
// every task with a request and a real op index, in drain order. Reads and
// failed operations are not replicated; reserved keys (the replica's own
// position record) never leave the machine. Append deep-copies, so aliasing
// the requests' op buffers here is safe even though they are pooled after
// completion.
func (w *worker) tap(items []task, res []crafty.KVOpResult) {
	w.tapOps = w.tapOps[:0]
	j := 0
	for _, t := range items {
		if t.req == nil || t.op < 0 {
			continue
		}
		op := t.req.ops[t.op]
		out := res[j]
		j++
		if out.Err != nil || replReserved(op.Key) {
			continue
		}
		if op.Kind == crafty.KVPut || op.Kind == crafty.KVDelete {
			w.tapOps = append(w.tapOps, op)
		}
	}
	if len(w.tapOps) > 0 {
		w.srv.repl.log.Append(w.tapOps)
	}
}

// replyWriter is the reply half of a codec — wire.Encoder writes frames,
// wire.LineEncoder lines — so rendering is written once, over Reply values.
// Write errors are bufio-sticky; the connection's flush sees them.
type replyWriter interface {
	WriteReply(cmd wire.Type, r wire.Reply) error
}

// render writes the completed request's replies, in the shape its command's
// table row promises.
func render(w replyWriter, req *request) {
	if req.reply.Kind != 0 {
		w.WriteReply(req.typ, req.reply)
		return
	}
	cmd, _ := wire.Lookup(req.typ)
	switch cmd.Reply {
	case wire.ReplyVals:
		for i := range req.res {
			r := &req.res[i]
			w.WriteReply(req.typ, r.reply(wire.Reply{Kind: wire.TVal, Val: r.val}))
		}
	case wire.ReplyOK, wire.ReplyFound:
		for i := range req.res {
			w.WriteReply(req.typ, req.res[i].reply(wire.Reply{Kind: wire.TOK}))
		}
	case wire.ReplyCount:
		for i := range req.res {
			if err := req.res[i].err; err != nil {
				w.WriteReply(req.typ, wire.Reply{Kind: wire.TErr, Msg: fmt.Sprintf("op %d: %v", i, err)})
				return
			}
		}
		w.WriteReply(req.typ, wire.Reply{Kind: wire.TUint, N: uint64(len(req.res))})
	case wire.ReplyUint:
		if req.err != nil {
			w.WriteReply(req.typ, wire.Reply{Kind: wire.TErr, Msg: req.err.Error()})
		} else {
			w.WriteReply(req.typ, wire.Reply{Kind: wire.TUint, N: req.n})
		}
	}
}
