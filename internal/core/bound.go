package core

import (
	"runtime"

	"crafty/internal/nvm"
)

// This file implements the lazy maintenance of tsLowerBound described in
// Section 5.2 ("Discarding entries and bounding rollback severity").
//
// tsLowerBound is a global lower bound on the earliest timestamp any future
// recovery could need to roll back to. Recovery rolls back every fully
// persisted sequence whose timestamp is at least R, where R is the minimum
// over all threads of the timestamp of the thread's most recent sequence;
// since each thread's most recent sequence only gets newer over time,
// min over threads of lastLoggedTS is a valid (and lazily refreshable) lower
// bound on every future R. Entries older than tsLowerBound can therefore
// never be needed again and may be overwritten when a circular log wraps.
//
// Two checks keep the bound honest:
//
//   - before a thread overwrites a half of its circular log, the newest
//     timestamp still residing in that half must be older than tsLowerBound;
//   - when appending a LOGGED entry, the new timestamp should not run more
//     than MaxLag ahead of tsLowerBound, bounding how far back in time
//     recovery may have to roll back.
//
// If either check fails, the thread refreshes the bound from every thread's
// published state and, if some thread is delinquent (has not logged anything
// recently and is not currently executing a transaction), forces an empty
// ⟨LOGGED, now⟩ sequence into that thread's log, exactly as the paper
// prescribes for delinquent threads.

// lastTS returns the timestamp of the log's most recent sequence.
func (l *undoLog) lastTS() uint64 {
	return l.lastLoggedTS.Load()
}

// ensureLogSpace runs the overwrite check the first time the thread is about
// to write into a half of its log during the current epoch.
func (t *Thread) ensureLogSpace() {
	head, _ := t.log.snapshotHead()
	half := t.log.halfOf(head)
	if t.log.needsCheck(half) {
		t.checkOverwrite(half)
		t.log.markChecked(half)
		t.eng.metrics.HalfSwaps.Inc(t.slot)
	}
}

// makeRoom wraps the circular log after a Log phase ran out of entry slots.
// The caller (Thread.Atomic) has already established that the transaction did
// not begin at slot 0 — a transaction that overflows a freshly wrapped log
// fails with ptm.ErrTxTooLarge instead, since no amount of wrapping helps.
func (t *Thread) makeRoom() {
	t.checkOverwrite(0)
	t.log.wrap(true)
	t.eng.metrics.LogWraps.Inc(t.slot)
}

// checkOverwrite blocks until every entry in the given half of the log is
// provably unnecessary for recovery (its newest timestamp is older than
// tsLowerBound), forcing delinquent threads forward as needed.
func (t *Thread) checkOverwrite(half int) {
	bound := t.log.overwriteBoundTS(half)
	if bound == 0 {
		return // the half has never held entries
	}
	for bound >= t.eng.tsLowerBound.Load() {
		t.eng.refreshBound()
		if bound < t.eng.tsLowerBound.Load() {
			return
		}
		t.forceDelinquents(bound)
		runtime.Gosched()
	}
}

// checkLag keeps the distance between fresh timestamps and tsLowerBound below
// MaxLag so that recovery never has to roll back arbitrarily far in time.
func (t *Thread) checkLag(ts uint64) {
	maxLag := t.eng.cfg.MaxLag
	if ts < t.eng.tsLowerBound.Load()+maxLag {
		return
	}
	t.eng.refreshBound()
	if ts < t.eng.tsLowerBound.Load()+maxLag {
		return
	}
	t.forceDelinquents(ts - maxLag)
	t.eng.refreshBound()
}

// refreshBound recomputes tsLowerBound as the minimum over all registered
// threads of the timestamp of their most recent sequence. Threads that have
// never logged anything contribute nothing: recovery has nothing of theirs to
// roll back.
func (e *Engine) refreshBound() {
	threads := e.threadsSnapshot()
	min := uint64(0)
	for _, u := range threads {
		ts := u.log.lastTS()
		if ts == 0 {
			continue
		}
		if min == 0 || ts < min {
			min = ts
		}
	}
	if min == 0 {
		min = e.hw.TimestampNow()
	}
	// Monotonically raise the published bound.
	for {
		cur := e.tsLowerBound.Load()
		if min <= cur || e.tsLowerBound.CompareAndSwap(cur, min) {
			return
		}
	}
}

// forceDelinquents appends an empty ⟨LOGGED, now⟩ sequence to the log of
// every thread whose most recent sequence is not newer than needAbove.
// Forcing is what lets an active thread reuse its log (or bound rollback lag)
// even when other threads have gone idle.
func (t *Thread) forceDelinquents(needAbove uint64) {
	for _, u := range t.eng.threadsSnapshot() {
		if u.log.lastTS() > needAbove {
			continue
		}
		u.forceEmpty(t.flusher, t.eng.hw.TimestampNow())
	}
}

// SyncDurable makes every transaction previously committed on this thread
// rollback-proof against the next crash — the engine's analog of fsync.
//
// flushCommit leaves a committed transaction's write-backs (its data lines
// and its COMMITTED entry) issued but unfenced; the thread's next hardware
// transaction commit fences them, so under continuous traffic only the most
// recent sequence is ever at risk. SyncDurable closes that window on demand:
// it re-flushes the data writes of the log's most recent sequence, then
// appends an empty ⟨LOGGED, now⟩ sequence and drains it (forceEmpty on the
// thread itself). The drained marker is deterministically durable, so after
// a crash this thread's newest fully persisted sequence is at least as new
// as the marker, and recovery's rollback window — every sequence with
// ts >= R, R the minimum over threads of the newest persisted timestamp —
// can reach no committed data on this thread.
//
// A marker transaction (a self-overwrite of some root word) can stand in —
// its Log-phase entry flushes are fenced by its own Redo-phase commit, so
// the thread's newest persisted sequence still advances — but the guarantee
// is indirect (it leans on the fencing side-effects of the transaction's own
// later hardware commits, and on the rollback of the possibly-uncommitted
// marker being a harmless self-overwrite) and it pays the full two-phase
// toll, conflicting with every concurrently syncing thread. SyncDurable is
// the direct primitive: no transaction, no conflicts, one drained marker.
//
// The guarantee is per-thread and relative to recovery's global window:
// recovery rolls back every sequence with ts >= R even if committed and
// durable (the global-consistent-prefix rule), so a caller quiescing several
// threads must make sure every commit it wants covered — on every thread —
// happens before the first quiesce timestamp is drawn. craftykv's SYNC
// rendezvouses all scheduler workers before any of them calls SyncDurable
// for exactly this reason.
func (t *Thread) SyncDurable() error {
	for {
		ts := t.eng.hw.TimestampNow()
		if t.forceEmpty(t.flusher, ts) {
			return nil
		}
		// forceEmpty declines only when the log is full and its first half
		// may still be needed by recovery (the thread itself is idle here, so
		// it is never "currently appending"). Raise the bound exactly the way
		// the mutating path does, then retry.
		t.checkOverwrite(0)
		runtime.Gosched()
	}
}

// forceEmpty appends an empty LOGGED sequence to this thread's log on behalf
// of the forcing thread (which owns flusher). The append only proceeds while
// the owner is not itself reserving log slots; forcing an actively appending
// thread is unnecessary anyway, since it is about to publish a newer
// timestamp of its own.
//
// Appending the empty sequence makes the owner's previous sequence no longer
// its last, so recovery will no longer unconditionally roll that sequence
// back — which is only sound if its writes are actually durable. The owner
// flushed them but may not have fenced yet, so the forcer first re-flushes
// the written-to addresses of the owner's most recent sequence; the drain
// inside appendEmptyLoggedLocked makes them durable before the empty marker
// becomes visible to recovery.
//
// If the owner's log is completely full (an idle thread that stopped with no
// slot to spare), the forcer wraps the owner's log first — which is safe
// exactly when the overwrite condition for its first half already holds.
func (u *Thread) forceEmpty(flusher *nvm.Flusher, ts uint64) bool {
	u.log.mu.Lock()
	defer u.log.mu.Unlock()
	if u.appending.Load() {
		return false
	}
	for _, rec := range u.log.lastSequenceEntriesLocked() {
		flusher.Flush(rec.addr)
	}
	if int(u.log.head.Load()) >= u.log.capEntries {
		if u.log.lastTSOfHalf[0].Load() >= u.eng.tsLowerBound.Load() {
			// The owner's oldest half may still be needed by recovery; try
			// again once other delinquent threads have raised the bound.
			return false
		}
		u.log.wrapLocked(true)
		u.eng.metrics.LogWraps.Inc(u.slot)
	}
	ok := u.log.appendEmptyLoggedLocked(flusher, ts)
	if ok {
		u.eng.metrics.ForcedEmpties.Inc(u.slot)
	}
	return ok
}
