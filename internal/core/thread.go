package core

import (
	"fmt"
	"sync/atomic"

	"crafty/internal/alloc"
	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// betweenLogAndRedo, when not nil, runs after a transaction's undo entries
// are flushed and before its Redo phase begins — the window in which, on
// real hardware, other cores' transactions commit. It is a test seam and nil
// in production: tests on one processor set it to runtime.Gosched so that a
// sibling worker commits inside the window and the Validate phase runs (see
// DESIGN.md §3). Set it only while no transaction is in flight.
var betweenLogAndRedo func()

// undoRec is the volatile mirror of one persisted undo entry.
type undoRec struct {
	addr nvm.Addr
	old  uint64
}

// redoRec is one entry of the volatile redo log built while the Log phase
// rolls the transaction's writes back.
type redoRec struct {
	addr nvm.Addr
	val  uint64
}

// attempt carries the per-transaction state shared between the orchestration
// loop and the hardware transaction bodies of the individual phases.
type attempt struct {
	// Set by the Log phase.
	startSlot  int    // first undo log slot used by this transaction
	markerSlot int    // slot holding the merged LOGGED/COMMITTED entry
	lastTS     uint64 // the Log phase's commit timestamp (LOGGED entry); see redoPhase
	writes     int    // persistent writes logged
	readOnly   bool

	// Set by the Log phase and reset by each Validate phase: stores the
	// executing body made to frontier blocks, which take no undo entry.
	logFree int

	// Set by the Redo or Validate phase.
	commitTS uint64

	// Failure signals raised inside hardware transaction bodies; the
	// orchestration inspects them after the corresponding explicit abort.
	sglBusy          bool
	logFull          bool
	checkFailed      bool // Redo phase timestamp check failed
	validationFailed bool // Validate phase found a mismatched undo entry
	userErr          error
}

// Thread is one worker's handle onto a Crafty engine; it implements
// ptm.Thread. A Thread owns a circular persistent undo log, a volatile redo
// log, and a hardware-transaction handle, and must not be shared between
// goroutines.
type Thread struct {
	eng     *Engine
	slot    int
	hw      *htm.Thread
	log     *undoLog
	flusher *nvm.Flusher
	txAlloc *alloc.TxLog

	// Volatile per-transaction logs, reused across transactions.
	undo []undoRec
	redo []redoRec

	// fresh names the blocks the most recent Log phase carved from the arena
	// frontier. Their words were stored without undo entries, so the log
	// does not name them: flushCommit flushes them, and so does forceEmpty,
	// which reads the list under log.mu while appending is false. The owner
	// rewrites it only while it holds the append claim. A list older than
	// the log's last sequence only costs forceEmpty some needless flushes.
	fresh []alloc.Block

	// Per-transaction scratch reused so the steady-state path allocates
	// nothing: the attempt state, the ptm.Tx adapters handed to bodies (the
	// full adapter and the read-only one), and the line buffer flushCommit
	// deduplicates written lines through.
	a          attempt
	ctx        craftyTx
	ro         ptm.ROTx
	flushLines []uint64

	// inUse is true while the thread is executing a persistent transaction.
	inUse atomic.Bool

	// appending is true only while the thread is actively reserving and
	// writing undo log slots (the Log phase and the chunked SGL path). Other
	// threads may force an empty LOGGED entry into this thread's log only
	// while appending is false; checking a narrower window than inUse keeps
	// two threads that are both blocked in the Section 5.2 reuse check able
	// to unblock each other.
	appending atomic.Bool

	// Statistics.
	outcomes   [ptm.NumOutcomes]uint64
	writes     uint64
	userAborts uint64
}

// Stats implements ptm.Thread.
func (t *Thread) Stats() ptm.Stats {
	var s ptm.Stats
	copy(s.Persistent[:], t.outcomes[:])
	s.HTM = t.hw.Stats()
	s.Writes = t.writes
	s.UserAborts = t.userAborts
	return s
}

// Slot returns the thread's log directory slot (used by tests).
func (t *Thread) Slot() int { return t.slot }

// txMode distinguishes the two phases that execute the transaction body.
type txMode int

const (
	modeLog txMode = iota
	modeValidate
)

// craftyTx adapts a hardware transaction to the ptm.Tx interface for the Log
// and Validate phases.
type craftyTx struct {
	t      *Thread
	hwtx   *htm.Tx
	a      *attempt
	mode   txMode
	cursor int // next undo entry expected by the Validate phase
}

// Load implements ptm.Tx.
func (c *craftyTx) Load(addr nvm.Addr) uint64 { return c.hwtx.Load(addr) }

// Store implements ptm.Tx.
func (c *craftyTx) Store(addr nvm.Addr, val uint64) {
	if c.t.txAlloc.Fresh(addr) {
		// A word of a block this transaction carved from the arena frontier:
		// no rollback can restore a pre-image there, so the store takes no
		// undo entry, no redo record and no validation, in either mode
		// (DESIGN.md §3, "Log-free stores to frontier blocks").
		c.a.logFree++
		c.hwtx.Store(addr, val)
		return
	}
	switch c.mode {
	case modeLog:
		// Algorithm 1: record the old value in the persistent undo log (via
		// the hardware transaction, so the entry only becomes visible if the
		// Log phase commits), then perform the write in place.
		slot := c.a.startSlot + len(c.t.undo)
		if slot >= c.t.log.capEntries-1 { // reserve one slot for the marker
			c.a.logFull = true
			c.hwtx.Abort()
		}
		old := c.hwtx.Load(addr)
		c.t.log.writeEntry(c.hwtx, slot, uint64(addr), old)
		c.t.undo = append(c.t.undo, undoRec{addr: addr, old: old})
		c.hwtx.Store(addr, val)
	case modeValidate:
		// Algorithm 3: the next undo entry must name this address and its old
		// value must still be the current value; otherwise another thread
		// committed a conflicting write after our Log phase and validation
		// fails.
		if c.cursor >= len(c.t.undo) ||
			c.t.undo[c.cursor].addr != addr ||
			c.hwtx.Load(addr) != c.t.undo[c.cursor].old {
			c.a.validationFailed = true
			c.hwtx.Abort()
		}
		c.cursor++
		c.hwtx.Store(addr, val)
	}
}

// Alloc implements ptm.Tx.
func (c *craftyTx) Alloc(words int) nvm.Addr {
	return c.t.txAlloc.Alloc(words, c)
}

// Free implements ptm.Tx.
func (c *craftyTx) Free(addr nvm.Addr) {
	c.t.txAlloc.Free(addr, c)
}

// Atomic implements ptm.Thread: it executes body as one Crafty persistent
// transaction, following the thread-safe flow of Figure 3 (Log → Redo →
// Validate → single-global-lock fallback) or, in thread-unsafe mode, the
// chunked flow of Figure 4.
func (t *Thread) Atomic(body func(tx ptm.Tx) error) error {
	if t.eng.cfg.Mode == ThreadUnsafe {
		return t.atomicThreadUnsafe(body)
	}
	t.inUse.Store(true)
	defer t.inUse.Store(false)
	t.txAlloc.Begin()

	failures := 0
	for {
		t.ensureLogSpace()
		a := &t.a
		*a = attempt{}
		cause := t.logPhase(body, a)
		if a.userErr != nil {
			return t.abandon(a.userErr)
		}
		if cause != htm.CauseNone {
			// Any allocations made by the aborted attempt are handed back out
			// in the same order when the body re-executes, so retries neither
			// leak arena blocks nor observe fresh addresses.
			t.prepareRetry()
			if a.logFull {
				if a.startSlot == 0 {
					// The Log phase began at a freshly wrapped log and still
					// ran out of slots: the transaction alone cannot fit, so
					// wrapping again would not help.
					return t.failTooLarge(len(t.undo))
				}
				t.makeRoom()
				continue
			}
			if a.sglBusy {
				t.eng.hw.AwaitSGL(t.eng.sglAddr)
			}
			if failures++; failures > t.eng.cfg.MaxRetries {
				return t.runSGL(body)
			}
			continue
		}
		if a.readOnly {
			t.finishCommit(ptm.OutcomeReadOnly, a)
			return nil
		}

		// Persist the undo log entries (flush, no drain: the Redo or Validate
		// phase's hardware transaction commit provides the fence).
		t.flusher.FlushRange(t.log.slotAddr(a.startSlot), (a.writes+1)*entryWords)

		if betweenLogAndRedo != nil {
			betweenLogAndRedo()
		}

		if !t.eng.cfg.DisableRedo {
			rcause := t.redoPhase(a)
			if rcause == htm.CauseNone {
				t.finishCommit(ptm.OutcomeRedo, a)
				return nil
			}
			if a.sglBusy {
				// The single global lock was taken; whatever its holder wrote
				// may invalidate our log, so restart from the Log phase once
				// the lock is free.
				t.eng.hw.AwaitSGL(t.eng.sglAddr)
				if failures++; failures > t.eng.cfg.MaxRetries {
					return t.runSGL(body)
				}
				t.prepareRetry()
				continue
			}
			if !a.checkFailed || rcause == htm.CauseConflict {
				// Genuine hardware abort (conflict, capacity, spurious).
				// Conflict aborts count even when routed into the Validate
				// path via checkFailed: they must keep advancing the bounded
				// SGL fallback, or a Redo-conflict/Validate-restart cycle
				// could starve forever under sustained contention. Only the
				// explicit timestamp-check XABORT is exempt, as in the
				// original flow.
				failures++
			}
		}

		if t.eng.cfg.DisableValidate {
			// Crafty-NoValidate: a failed Redo phase restarts the whole
			// transaction from the Log phase.
			if failures++; failures > t.eng.cfg.MaxRetries {
				return t.runSGL(body)
			}
			t.prepareRetry()
			continue
		}

		committed := false
		restart := false
		for vtry := 0; vtry <= t.eng.cfg.ValidateRetries; vtry++ {
			vcause := t.validatePhase(body, a)
			if a.userErr != nil {
				return t.abandon(a.userErr)
			}
			if vcause == htm.CauseNone {
				committed = true
				break
			}
			if a.validationFailed {
				restart = true
				break
			}
			if a.sglBusy {
				t.eng.hw.AwaitSGL(t.eng.sglAddr)
				restart = true
				break
			}
			failures++
			if failures > t.eng.cfg.MaxRetries {
				return t.runSGL(body)
			}
		}
		if committed {
			t.finishCommit(ptm.OutcomeValidate, a)
			return nil
		}
		if !restart {
			// Validate retries exhausted without a decisive outcome.
			failures++
		}
		if failures > t.eng.cfg.MaxRetries {
			return t.runSGL(body)
		}
		t.prepareRetry()
	}
}

// AtomicRead implements ptm.Thread: it executes body as one read-only
// persistent transaction at the cost the paper's model promises for reads —
// a single hardware transaction, with no undo-log space reservation, no
// Redo timestamp check, no allocation scope, and no persist operations. A
// read-only body publishes nothing, so nothing needs logging or flushing:
// the hardware transaction alone provides the atomic snapshot (DESIGN.md §6).
// Mutations fail the transaction with ptm.ErrReadOnlyTx.
// The hardware transaction, its retries and the single-global-lock fallback
// are ptm.ROTx.ReadElided, the loop every lock-eliding engine shares; this
// function adds Crafty's thread-unsafe arm and its off-path instruments.
func (t *Thread) AtomicRead(body func(tx ptm.Tx) error) error {
	if t.eng.cfg.Mode == ThreadUnsafe {
		// The caller supplies thread atomicity, so direct heap reads already
		// observe a stable snapshot.
		return ptm.NoteRead(&t.outcomes, &t.userAborts, ptm.OutcomeReadOnly, t.ro.ReadDirect(body))
	}
	way, dwell, err := t.ro.ReadElided(t.hw, t.eng.sglAddr, t.eng.cfg.MaxRetries, body)
	if way == ptm.OutcomeSGL {
		t.eng.metrics.SGLReads.Inc(t.slot)
		t.eng.metrics.SGLDwellNs.Observe(int64(dwell))
	}
	return ptm.NoteRead(&t.outcomes, &t.userAborts, way, err)
}

// failTooLarge abandons a transaction whose write set cannot fit the
// engine's per-transaction capacity, releasing any allocations the attempts
// made. The returned error wraps ptm.ErrTxTooLarge; no write was published.
func (t *Thread) failTooLarge(writes int) error {
	t.txAlloc.Abort()
	return fmt.Errorf("core: %d-write transaction exceeds the %d-entry undo log: %w",
		writes, t.log.capEntries, ptm.ErrTxTooLarge)
}

// abandon discards the transaction after the body returned an error.
func (t *Thread) abandon(userErr error) error {
	t.txAlloc.Abort()
	t.userAborts++
	return fmt.Errorf("%w: %w", ptm.ErrAborted, userErr)
}

// prepareRetry readies per-transaction state for re-executing the body from
// the Log phase after a validation failure or conflicting commit. Memory
// allocated by the previous execution is replayed so repeated executions of
// the body neither leak nor observe fresh addresses.
func (t *Thread) prepareRetry() {
	t.txAlloc.BeginReplay()
}

// finishCommit records a committed transaction's statistics and performs the
// lazy Section 5.2 bound maintenance.
func (t *Thread) finishCommit(outcome ptm.Outcome, a *attempt) {
	t.txAlloc.Commit()
	t.outcomes[outcome]++
	t.writes += uint64(a.writes + a.logFree)
	if a.logFree > 0 {
		t.eng.metrics.LogFreeWrites.Add(t.slot, uint64(a.logFree))
	}
	if !a.readOnly && a.lastTS != 0 {
		t.checkLag(a.lastTS)
	}
}
