package nvhtm

import (
	"fmt"

	"crafty/internal/alloc"
	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Thread is one worker's handle onto an NV-HTM/DudeTM engine.
type Thread struct {
	eng     *Engine
	id      int
	hw      *htm.Thread
	flusher *nvm.Flusher
	txAlloc *alloc.TxLog

	// Per-thread persistent redo log region, reused circularly. Each record
	// is ⟨addr, value⟩; a transaction's records are followed by a
	// ⟨commitMarker, timestamp⟩ pair.
	logBase nvm.Addr
	logCap  int
	logHead int

	// Per-transaction scratch, reused between transactions.
	writeAddrs []nvm.Addr
	writeVals  []uint64

	// tooLarge is raised by the Tx adapters when one transaction's redo
	// records could no longer fit the log region; the orchestration turns it
	// into ptm.ErrTxTooLarge before anything is persisted or published.
	tooLarge bool

	// ro is the reusable read-only adapter handed to AtomicRead bodies.
	ro ptm.ROTx

	outcomes   [ptm.NumOutcomes]uint64
	writes     uint64
	userAborts uint64
}

// commitMarker is the reserved address value that terminates a transaction's
// redo records in the persistent log.
const commitMarker = ^uint64(0) >> 1

// Stats implements ptm.Thread.
func (t *Thread) Stats() ptm.Stats {
	var s ptm.Stats
	copy(s.Persistent[:], t.outcomes[:])
	s.HTM = t.hw.Stats()
	s.Writes = t.writes
	s.UserAborts = t.userAborts
	return s
}

// tx adapts a hardware transaction to ptm.Tx, recording the write set so the
// redo log can be persisted after the hardware transaction commits.
type tx struct {
	th   *Thread
	hwtx *htm.Tx
}

func (x *tx) Load(addr nvm.Addr) uint64 { return x.hwtx.Load(addr) }

func (x *tx) Store(addr nvm.Addr, val uint64) {
	if (len(x.th.writeAddrs)+1)*2+2 > x.th.logCap {
		// The transaction's redo records can no longer fit the log region;
		// abort the hardware transaction before any of its writes publish.
		x.th.tooLarge = true
		x.hwtx.Abort()
	}
	x.hwtx.Store(addr, val)
	x.th.writeAddrs = append(x.th.writeAddrs, addr)
	x.th.writeVals = append(x.th.writeVals, val)
}

func (x *tx) Alloc(words int) nvm.Addr {
	return x.th.txAlloc.Alloc(words, x)
}

func (x *tx) Free(addr nvm.Addr) {
	x.th.txAlloc.Free(addr, x)
}

// Atomic implements ptm.Thread.
func (t *Thread) Atomic(body func(tx ptm.Tx) error) error {
	t.txAlloc.Begin()
	for attempt := 0; attempt <= t.eng.cfg.MaxRetries; attempt++ {
		t.writeAddrs = t.writeAddrs[:0]
		t.writeVals = t.writeVals[:0]
		t.tooLarge = false
		var userErr error
		var commitTS uint64
		cause := t.hw.Run(func(hwtx *htm.Tx) {
			if hwtx.Load(t.eng.sglAddr) != 0 {
				hwtx.Abort()
			}
			x := &tx{th: t, hwtx: hwtx}
			if err := body(x); err != nil {
				userErr = err
				hwtx.Abort()
			}
			if len(t.writeAddrs) == 0 {
				return
			}
			if t.eng.cfg.GlobalClockInHTM {
				// DudeTM: the commit timestamp is a shared counter
				// incremented inside the hardware transaction, making every
				// pair of concurrent writing transactions conflict on its
				// cache line.
				next := hwtx.Load(t.eng.dudeClockAddr) + 1
				hwtx.Store(t.eng.dudeClockAddr, next)
				commitTS = next
			}
			// NV-HTM: the timestamp is obtained at the commit point without
			// touching shared memory inside the transaction; it is read from
			// the thread after Run returns (htm.Thread.CommitTS).
		})
		if userErr != nil {
			return t.abandon(userErr)
		}
		if t.tooLarge {
			return t.failTooLarge()
		}
		if cause != htm.CauseNone {
			t.txAlloc.BeginReplay()
			continue
		}
		if len(t.writeAddrs) == 0 {
			t.outcomes[ptm.OutcomeHTM]++
			t.txAlloc.Commit()
			return nil
		}
		if !t.eng.cfg.GlobalClockInHTM {
			commitTS = t.hw.CommitTS()
		}
		t.persistAndClose(commitTS, ptm.OutcomeHTM)
		return nil
	}
	return t.runSGL(body)
}

// AtomicRead implements ptm.Thread. Read-only transactions need none of the
// redo-log machinery — no log records, no persist barriers, no
// timestamp-ordered close, no hand-off to the background checkpointer — so
// the body runs in the shared lock-eliding loop (ptm.ROTx.ReadElided) and
// commits at HTM cost. This applies to NV-HTM and DudeTM alike: even DudeTM's
// contended global clock is only touched by writers.
func (t *Thread) AtomicRead(body func(tx ptm.Tx) error) error {
	way, _, err := t.ro.ReadElided(t.hw, t.eng.sglAddr, t.eng.cfg.MaxRetries, body)
	return ptm.NoteRead(&t.outcomes, &t.userAborts, way, err)
}

// persistAndClose writes and persists the transaction's redo log, waits for
// its turn in timestamp order, durably closes the transaction, and hands it
// to the background checkpointer.
func (t *Thread) persistAndClose(commitTS uint64, outcome ptm.Outcome) {
	t.eng.beginCommit(t.id, commitTS)

	// Persist the redo log entries (flush + drain).
	records := len(t.writeAddrs)*2 + 2
	if t.logHead+records > t.logCap {
		t.logHead = 0
	}
	base := t.logBase + nvm.Addr(t.logHead)
	w := base
	for i, addr := range t.writeAddrs {
		t.eng.heap.Store(w, uint64(addr))
		t.eng.heap.Store(w+1, t.writeVals[i])
		w += 2
	}
	t.flusher.FlushRange(base, len(t.writeAddrs)*2)
	t.flusher.Drain()

	// NV-HTM's commit fence: the COMMIT marker may only become durable once
	// every concurrent transaction with an earlier timestamp has closed.
	t.eng.awaitTurn(t.id, commitTS)
	t.eng.heap.Store(w, commitMarker)
	t.eng.heap.Store(w+1, commitTS)
	t.flusher.FlushRange(w, 2)
	t.flusher.Drain()
	t.logHead += records
	t.eng.endCommit(t.id)

	// Hand the write set to the background checkpointer, which applies it to
	// the home NVM locations asynchronously in timestamp order.
	addrs := make([]nvm.Addr, len(t.writeAddrs))
	copy(addrs, t.writeAddrs)
	t.eng.queue <- closedTxn{ts: commitTS, addrs: addrs}

	t.txAlloc.Commit()
	t.outcomes[outcome]++
	t.writes += uint64(len(t.writeAddrs))
}

// runSGL is the single-global-lock fallback.
func (t *Thread) runSGL(body func(tx ptm.Tx) error) error {
	t.eng.hw.AcquireSGL(t.eng.sglAddr)
	defer t.eng.hw.ReleaseSGL(t.eng.sglAddr)
	t.txAlloc.BeginReplay()
	t.writeAddrs = t.writeAddrs[:0]
	t.writeVals = t.writeVals[:0]
	t.tooLarge = false
	x := &sglTx{th: t, buf: make(map[nvm.Addr]uint64, 8)}
	if err := body(x); err != nil {
		return t.abandon(err)
	}
	if t.tooLarge {
		// Nothing was published: sglTx buffers every write until here.
		return t.failTooLarge()
	}
	// Publish the buffered writes now that the body has succeeded.
	for i, addr := range t.writeAddrs {
		t.eng.hw.NonTxStore(addr, t.writeVals[i])
	}
	if len(t.writeAddrs) == 0 {
		t.outcomes[ptm.OutcomeSGL]++
		t.txAlloc.Commit()
		return nil
	}
	ts := t.eng.hw.TimestampNow()
	if t.eng.cfg.GlobalClockInHTM {
		next := t.eng.hw.NonTxLoad(t.eng.dudeClockAddr) + 1
		t.eng.hw.NonTxStore(t.eng.dudeClockAddr, next)
		ts = next
	}
	t.persistAndClose(ts, ptm.OutcomeSGL)
	return nil
}

// sglTx executes under the single global lock, buffering writes so that a
// body error can still abandon the transaction, while recording the write set
// for the redo log.
type sglTx struct {
	th  *Thread
	buf map[nvm.Addr]uint64
}

func (x *sglTx) Load(addr nvm.Addr) uint64 {
	if v, ok := x.buf[addr]; ok {
		return v
	}
	return x.th.eng.heap.Load(addr)
}

func (x *sglTx) Store(addr nvm.Addr, val uint64) {
	if x.th.tooLarge {
		return
	}
	if (len(x.th.writeAddrs)+1)*2+2 > x.th.logCap {
		x.th.tooLarge = true
		return
	}
	x.buf[addr] = val
	x.th.writeAddrs = append(x.th.writeAddrs, addr)
	x.th.writeVals = append(x.th.writeVals, val)
}

func (x *sglTx) Alloc(words int) nvm.Addr {
	return x.th.txAlloc.Alloc(words, x)
}

func (x *sglTx) Free(addr nvm.Addr) {
	x.th.txAlloc.Free(addr, x)
}

func (t *Thread) abandon(err error) error {
	t.txAlloc.Abort()
	t.userAborts++
	return fmt.Errorf("%w: %w", ptm.ErrAborted, err)
}

// failTooLarge abandons a transaction whose redo records cannot fit the log
// region; nothing was persisted or published.
func (t *Thread) failTooLarge() error {
	t.tooLarge = false
	t.txAlloc.Abort()
	return fmt.Errorf("%s: transaction exceeds the %d-word redo log: %w",
		t.eng.cfg.Name, t.logCap, ptm.ErrTxTooLarge)
}
