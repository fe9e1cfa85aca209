package core

import (
	"errors"
	"fmt"
	"time"

	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// writeOp is one persistent write collected by the chunked (thread-unsafe)
// execution path.
type writeOp struct {
	addr nvm.Addr
	val  uint64
}

// collectTx runs the transaction body once without touching persistent state,
// recording its writes so they can be logged and applied in chunks of at most
// k writes (Figure 4). Reads see the transaction's own earlier writes.
//
// This collection step is the emulation's stand-in for the paper's in-place
// execute-and-roll-back within each chunk-sized hardware transaction: under
// the single global lock (or the caller's external synchronization in
// thread-unsafe mode) no other thread can commit, so collecting the writes
// up front yields exactly the same values and the same persist ordering
// (each chunk's undo entries are persisted before its writes are performed).
type collectTx struct {
	t       *Thread
	ops     []writeOp
	written map[nvm.Addr]uint64
}

// Load implements ptm.Tx.
func (c *collectTx) Load(addr nvm.Addr) uint64 {
	if v, ok := c.written[addr]; ok {
		return v
	}
	return c.t.eng.heap.Load(addr)
}

// Store implements ptm.Tx.
func (c *collectTx) Store(addr nvm.Addr, val uint64) {
	c.ops = append(c.ops, writeOp{addr: addr, val: val})
	c.written[addr] = val
}

// Alloc implements ptm.Tx.
func (c *collectTx) Alloc(words int) nvm.Addr {
	return c.t.txAlloc.Alloc(words, c)
}

// Free implements ptm.Tx.
func (c *collectTx) Free(addr nvm.Addr) {
	c.t.txAlloc.Free(addr, c)
}

// runSGL completes a persistent transaction under the single global lock
// after repeated hardware transaction failures (Section 4.4). The SGL both
// excludes all speculative transactions (every thread-safe hardware
// transaction reads the SGL and aborts if it is held) and lets Crafty run in
// its thread-unsafe chunked mode, which guarantees progress.
func (t *Thread) runSGL(body func(tx ptm.Tx) error) error {
	t.eng.hw.AcquireSGL(t.eng.sglAddr)
	// Off-path stamping: the SGL fallback runs no speculative hardware
	// transaction around these points, so time.Now and the counter are
	// free of write-set concerns here.
	t.eng.metrics.SGLEntries.Inc(t.slot)
	t0 := time.Now()
	defer t.eng.metrics.SGLDwellNs.ObserveSince(t0)
	defer t.eng.hw.ReleaseSGL(t.eng.sglAddr)
	t.prepareRetry()

	writes, commitTS, err := t.chunkedExecute(body)
	if err != nil {
		if errors.Is(err, ptm.ErrTxTooLarge) {
			t.txAlloc.Abort()
			return err
		}
		return t.abandon(err)
	}

	// Publish the section's commit timestamp so that any thread whose Log
	// phase preceded this SGL section fails its Redo timestamp check and
	// validates (or restarts) instead of applying a stale redo log.
	t.eng.hw.NonTxStore(t.eng.gLastRedoTSAddr, commitTS)

	t.txAlloc.Commit()
	t.outcomes[ptm.OutcomeSGL]++
	t.writes += uint64(writes)
	t.checkLag(commitTS)
	return nil
}

// atomicThreadUnsafe executes one persistent transaction in thread-unsafe
// mode (Figure 4): the caller guarantees thread atomicity, so Crafty only
// provides failure atomicity via the chunked logging path, without acquiring
// the single global lock.
func (t *Thread) atomicThreadUnsafe(body func(tx ptm.Tx) error) error {
	t.inUse.Store(true)
	defer t.inUse.Store(false)
	t.txAlloc.Begin()
	writes, commitTS, err := t.chunkedExecute(body)
	if err != nil {
		if errors.Is(err, ptm.ErrTxTooLarge) {
			t.txAlloc.Abort()
			return err
		}
		return t.abandon(err)
	}
	t.txAlloc.Commit()
	t.outcomes[ptm.OutcomeSGL]++
	t.writes += uint64(writes)
	t.checkLag(commitTS)
	return nil
}

// chunkedExecute collects the transaction's writes and then logs and applies
// them in chunks of at most k persistent writes, halving k after each
// hardware transaction abort; at k = 1 each undo entry is persisted before
// its write without any hardware transaction, guaranteeing progress
// (Figure 4). Every LOGGED marker and the final COMMITTED marker carry the
// same timestamp so recovery rolls the whole section back or not at all.
func (t *Thread) chunkedExecute(body func(tx ptm.Tx) error) (writes int, commitTS uint64, err error) {
	ctx := &collectTx{t: t, written: make(map[nvm.Addr]uint64, 16)}
	if err := body(ctx); err != nil {
		return 0, 0, err
	}
	ops := ctx.ops
	// Refuse sections whose undo entries could exceed half the circular log
	// even at the chunked path's guaranteed-progress floor (chunk size one:
	// two log entries per write). A section bounded by half the log wraps at
	// most once, so the Section 5.2 overwrite check it runs at that wrap
	// compares against a timestamp from an earlier section — never against
	// the section's own timestamp, which could never pass (tsLowerBound is a
	// minimum over per-thread last timestamps, including this thread's).
	if 2*len(ops)+2 > t.log.capEntries/2 {
		return 0, 0, fmt.Errorf("core: %d-write transaction exceeds the %d-entry undo log: %w",
			len(ops), t.log.capEntries, ptm.ErrTxTooLarge)
	}
	// The section's single timestamp is drawn from the same clock that
	// stamps hardware transaction commits, after the lock is held, so it
	// orders after every previously committed transaction.
	ts := t.eng.hw.TimestampNow()
	if len(ops) == 0 {
		return 0, ts, nil
	}

	k := t.eng.cfg.InitialChunk
	i := 0
	for i < len(ops) {
		if k > 1 {
			end := i + k
			if end > len(ops) {
				end = len(ops)
			}
			if t.logChunkHTM(ops[i:end], ts) {
				t.applyChunk(ops[i:end])
				i = end
				continue
			}
			// The chunk's hardware transaction aborted (capacity, spurious,
			// ...): shrink the chunk and try again.
			k /= 2
			continue
		}
		// k == 1: persist the undo log entry before the write, with no
		// hardware transaction at all.
		t.logSingleWrite(ops[i], ts)
		t.applyChunk(ops[i : i+1])
		i++
	}

	// Conclude the section with a COMMITTED entry carrying the same
	// timestamp, then persist it.
	head := t.reserveSlots(1)
	t.log.writeEntry(t.eng.heap, head, markerCommitted, ts)
	t.log.advance(head, 1, ts)
	t.appending.Store(false)
	t.flusher.FlushRange(t.log.slotAddr(head), entryWords)
	t.flusher.Drain()
	return len(ops), ts, nil
}

// reserveSlots makes sure at least needed consecutive entry slots are
// available at the log head (wrapping the log with the Section 5.2 checks if
// necessary), marks the thread as appending so no other thread forces entries
// into the gap, and returns the head slot. The caller clears t.appending once
// it has finished writing and advancing.
func (t *Thread) reserveSlots(needed int) int {
	if needed >= t.log.capEntries {
		panic("core: transaction requires more undo log entries than Config.LogEntries; increase the log size")
	}
	for {
		t.ensureLogRoom(needed)
		t.appending.Store(true)
		head, _ := t.log.snapshotHead()
		if head+needed <= t.log.capEntries {
			return head
		}
		// A forced empty entry slipped in between the room check and the
		// reservation; release and try again.
		t.appending.Store(false)
	}
}

// logChunkHTM writes the undo entries for one chunk of writes, plus a LOGGED
// marker, inside a hardware transaction, then persists them. It reports
// whether the hardware transaction committed.
func (t *Thread) logChunkHTM(chunk []writeOp, ts uint64) bool {
	head := t.reserveSlots(len(chunk) + 1)
	defer t.appending.Store(false)
	cause := t.hw.Run(func(hwtx *htm.Tx) {
		for j, op := range chunk {
			t.log.writeEntry(hwtx, head+j, uint64(op.addr), hwtx.Load(op.addr))
		}
		t.log.writeEntry(hwtx, head+len(chunk), markerLogged, ts)
	})
	if cause != htm.CauseNone {
		return false
	}
	t.log.advance(head, len(chunk)+1, ts)
	// The chunk's writes are performed outside any hardware transaction, so
	// their cache lines could reach NVM at any time; the undo entries must
	// therefore be durable first (flush and drain).
	t.flusher.FlushRange(t.log.slotAddr(head), (len(chunk)+1)*entryWords)
	t.flusher.Drain()
	return true
}

// logSingleWrite persists the undo entry (and a LOGGED marker) for a single
// write without using a hardware transaction — the guaranteed-progress floor
// of thread-unsafe mode.
func (t *Thread) logSingleWrite(op writeOp, ts uint64) {
	head := t.reserveSlots(2)
	defer t.appending.Store(false)
	t.log.writeEntry(t.eng.heap, head, uint64(op.addr), t.eng.heap.Load(op.addr))
	t.log.writeEntry(t.eng.heap, head+1, markerLogged, ts)
	t.log.advance(head, 2, ts)
	t.flusher.FlushRange(t.log.slotAddr(head), 2*entryWords)
	t.flusher.Drain()
}

// applyChunk performs a chunk's writes in place and flushes them (no drain:
// the next chunk's drain, or recovery's unconditional rollback of the last
// sequence, covers them). The stores are strongly isolated so that doomed
// speculative readers never observe a torn publication.
func (t *Thread) applyChunk(chunk []writeOp) {
	for _, op := range chunk {
		t.eng.hw.NonTxStore(op.addr, op.val)
		t.flusher.Flush(op.addr)
	}
}

// ensureLogRoom wraps the circular log if fewer than needed entry slots
// remain, running the Section 5.2 overwrite check first.
func (t *Thread) ensureLogRoom(needed int) {
	if t.log.entriesLeft() >= needed {
		t.ensureLogSpace()
		return
	}
	t.checkOverwrite(0)
	t.log.wrap(true)
	t.eng.metrics.LogWraps.Inc(t.slot)
}
