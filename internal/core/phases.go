package core

import (
	"slices"

	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// logPhase executes the transaction body inside a hardware transaction using
// nondestructive undo logging (Algorithm 1): every persistent write first
// records the old value in the thread's persistent undo log, and before the
// hardware transaction commits all writes are rolled back in reverse order
// while the volatile redo log is built. The committed hardware transaction
// has therefore modified only undo log entries. The caller flushes them; no
// drain is needed because the next phase's hardware transaction commit has
// fence semantics.
func (t *Thread) logPhase(body func(tx ptm.Tx) error, a *attempt) htm.AbortCause {
	t.appending.Store(true)
	defer t.appending.Store(false)
	head, _ := t.log.snapshotHead()
	a.startSlot = head
	t.undo = t.undo[:0]
	t.redo = t.redo[:0]

	cause := t.hw.Run(func(hwtx *htm.Tx) {
		// Single-global-lock elision: every thread-safe hardware transaction
		// reads the SGL so that a lock holder conflicts with (and aborts)
		// concurrent speculative transactions (Section 4.4).
		if hwtx.Load(t.eng.sglAddr) != 0 {
			a.sglBusy = true
			hwtx.Abort()
		}
		ctx := &t.ctx
		*ctx = craftyTx{t: t, hwtx: hwtx, a: a, mode: modeLog}
		if err := body(ctx); err != nil {
			a.userErr = err
			hwtx.Abort()
		}
		if len(t.undo) == 0 {
			// Read-only transaction: no undo entries, no marker, no persist
			// operations; the Redo and Validate phases are skipped entirely.
			a.readOnly = true
			return
		}
		// Roll back the transaction's writes in reverse order, building the
		// volatile redo log while both old and new values are visible.
		for i := len(t.undo) - 1; i >= 0; i-- {
			rec := t.undo[i]
			t.redo = append(t.redo, redoRec{addr: rec.addr, val: hwtx.Load(rec.addr)})
			hwtx.Store(rec.addr, rec.old)
		}
		// The LOGGED entry carries the Log phase's commit timestamp, drawn at
		// the hardware transaction's serialization point.
		a.markerSlot = a.startSlot + len(t.undo)
		t.log.writeMarkerAtCommit(hwtx, a.markerSlot, markerLogged)
	})
	if cause != htm.CauseNone {
		return cause
	}
	if a.readOnly {
		return htm.CauseNone
	}
	a.lastTS = t.hw.CommitTS()
	a.writes = len(t.undo)
	t.log.advance(a.startSlot, a.writes+1, a.lastTS)
	return htm.CauseNone
}

// redoPhase attempts to commit the transaction's writes by applying the
// volatile redo log inside a hardware transaction (Algorithm 2). It succeeds
// only if no other thread has committed writes between this transaction's
// Log phase and now, which the global gLastRedoTS timestamp check
// establishes: a.lastTS is the Log phase's commit timestamp and every
// data-publishing commit (Redo, Validate, SGL) stores its own timestamp, from
// the same clock, into gLastRedoTS. A commit stamped before a.lastTS is
// serialized before the Log phase's reads — had it written a line the Log
// phase read, that phase would have seen the write or aborted — and one
// stamped after leaves gLastRedoTS above a.lastTS, because the stores to
// gLastRedoTS are serialized on its one line in timestamp order.
//
// One emulation-specific subtlety: once another thread's commit has advanced
// gLastRedoTS past this hardware transaction's TL2 snapshot, the
// transactional load below aborts with CauseConflict before the comparison
// can run. That abort carries the same meaning as a failed check — another
// thread committed writes in between — so it is routed into the Validate
// path too; without the routing, contended workloads would retry from the
// Log phase forever and never reach Validate. The check runs inside the
// hardware transaction (rather than as a strongly isolated pre-read) so that
// its failures count as hardware aborts in the statistics, exactly as the
// RDTSC-based check inside a real RTM region would.
func (t *Thread) redoPhase(a *attempt) htm.AbortCause {
	a.sglBusy = false
	a.checkFailed = false
	cause := t.hw.Run(func(hwtx *htm.Tx) {
		if hwtx.Load(t.eng.sglAddr) != 0 {
			a.sglBusy = true
			hwtx.Abort()
		}
		if hwtx.Load(t.eng.gLastRedoTSAddr) > a.lastTS {
			// Another thread committed writes since the Log phase; failing
			// here is a necessary but not sufficient indication of a
			// real conflict, so the Validate phase decides.
			a.checkFailed = true
			hwtx.Abort()
		}
		// Apply the redo log in the reverse of the order it was recorded
		// (i.e. in original program order, so later writes to the same
		// address win).
		for i := len(t.redo) - 1; i >= 0; i-- {
			hwtx.Store(t.redo[i].addr, t.redo[i].val)
		}
		// Advance gLastRedoTS to this transaction's commit timestamp and
		// convert the LOGGED entry into the merged COMMITTED entry
		// (Section 6) by rewriting it with that timestamp.
		hwtx.StoreCommitTS(t.eng.gLastRedoTSAddr, 0, 0)
		t.log.writeMarkerAtCommit(hwtx, a.markerSlot, markerCommitted)
	})
	if cause != htm.CauseNone {
		if cause == htm.CauseConflict && !a.sglBusy {
			// The conflict was raised by a commit landing during the Redo
			// phase (on the gLastRedoTS line or a data line being republished)
			// — the same situation the timestamp check exists to detect.
			a.checkFailed = true
		}
		return cause
	}
	a.commitTS = t.hw.CommitTS()
	t.flushCommit(a)
	return htm.CauseNone
}

// validatePhase re-executes the transaction body, checking every persistent
// write against the undo entries persisted by the Log phase (Algorithm 3).
// If all entries are still valid the writes are committed; any mismatch means
// a conflicting transaction committed in between, and the persistent
// transaction restarts from the Log phase.
func (t *Thread) validatePhase(body func(tx ptm.Tx) error, a *attempt) htm.AbortCause {
	a.sglBusy = false
	a.validationFailed = false
	t.txAlloc.BeginReplay()
	cause := t.hw.Run(func(hwtx *htm.Tx) {
		if hwtx.Load(t.eng.sglAddr) != 0 {
			a.sglBusy = true
			hwtx.Abort()
		}
		ctx := &t.ctx
		*ctx = craftyTx{t: t, hwtx: hwtx, a: a, mode: modeValidate}
		if err := body(ctx); err != nil {
			a.userErr = err
			hwtx.Abort()
		}
		if ctx.cursor != len(t.undo) {
			// The re-execution performed fewer writes than were logged, so
			// the next log entry is not the LOGGED marker (Algorithm 3,
			// line 8): validation fails.
			a.validationFailed = true
			hwtx.Abort()
		}
		hwtx.StoreCommitTS(t.eng.gLastRedoTSAddr, 0, 0)
		t.log.writeMarkerAtCommit(hwtx, a.markerSlot, markerCommitted)
	})
	if cause != htm.CauseNone {
		return cause
	}
	a.commitTS = t.hw.CommitTS()
	t.flushCommit(a)
	return htm.CauseNone
}

// flushCommit flushes the transaction's written-to cache lines and its
// COMMITTED entry. There is no drain: the recovery algorithm always rolls
// back each thread's most recent logged sequence precisely because these
// write-backs may not have completed, and the thread's next hardware
// transaction commit fences them.
//
// The written-to addresses are deduplicated to one CLWB per distinct cache
// line (through a reused, sorted scratch buffer) rather than issuing one
// Flush per logged word: transactions frequently write several words of the
// same line, and a real implementation write-backs lines, not words.
func (t *Thread) flushCommit(a *attempt) {
	t.flushLines = t.flushLines[:0]
	for i := range t.undo {
		t.flushLines = append(t.flushLines, nvm.LineOf(t.undo[i].addr))
	}
	slices.Sort(t.flushLines)
	prev := ^uint64(0)
	for _, line := range t.flushLines {
		if line == prev {
			continue
		}
		prev = line
		t.flusher.Flush(nvm.Addr(line * nvm.WordsPerLine))
	}
	t.flusher.FlushRange(t.log.slotAddr(a.markerSlot), entryWords)
}
