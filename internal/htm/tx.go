package htm

import (
	"slices"

	"crafty/internal/nvm"
)

// Tx is the handle a transaction body uses to access memory inside one
// hardware transaction attempt. It is only valid for the duration of the
// Thread.Run call that created it.
//
// Each Thread owns a single Tx that is reset and reused across attempts, so
// the steady-state data path performs no heap allocations: the read and write
// sets are epoch-stamped containers (txset.go) whose backing storage
// persists, and the commit protocol sorts and locks lines through reusable
// scratch buffers.
type Tx struct {
	thread *Thread
	eng    *Engine

	// readVersion is the TL2 snapshot: every line observed must have a
	// version no newer than this, otherwise the attempt aborts.
	readVersion uint64

	// readLines records the distinct cache lines read (for commit-time
	// validation and the capacity bound).
	readLines lineSet

	// lastLine is the line Load most recently admitted in this attempt and
	// lastLock the lock word it was admitted under: unlocked, version no
	// newer than readVersion. A run of loads from one line (a key, a value
	// spanning a few lines) pays the admission once; see Load.
	lastLine uint64
	lastLock uint64

	// writes buffers the transaction's stores, one entry per written cache
	// line: the read-own-write probe, the capacity bound, the commit's lock
	// order and its publication all read this one set.
	writes writeSet

	// deferred holds stores whose values are derived from the commit
	// timestamp at commit time (see StoreCommitTS).
	deferred []deferredStore

	// commitTS is the commit timestamp of the most recent committed attempt
	// (the write version it published, or the snapshot clock value for a
	// read-only commit). Read it through Thread.CommitTS.
	commitTS uint64

	// lineBuf and lockedBuf are commit-protocol scratch: the sorted written
	// lines and the prefix of them currently locked.
	lineBuf   []uint64
	lockedBuf []uint64
}

// deferredStore is a write whose value is (commitTS << shift) | orBits. The
// encoding is a closed form rather than a callback so that buffering one does
// not allocate a closure; it covers every use in this module (raw timestamps
// and the undo log's shifted-timestamp-plus-wrap-bit marker payloads).
type deferredStore struct {
	buf   int32 // the write-set entry of the word's line
	word  uint8 // the word's position in that line
	shift uint8
	or    uint64
}

// reset readies the Tx for a fresh attempt on thread t, retaining all backing
// storage from earlier attempts.
func (tx *Tx) reset(t *Thread) {
	tx.thread = t
	tx.eng = t.eng
	tx.readVersion = t.eng.globalVersion.Load()
	tx.readLines.reset()
	tx.lastLine = noLine
	tx.writes.reset()
	tx.deferred = tx.deferred[:0]
}

// abort unwinds the transaction attempt with the given cause.
func (tx *Tx) abort(cause AbortCause) {
	panic(htmAbort{cause: cause})
}

// Abort explicitly aborts the transaction attempt (the XABORT instruction).
// It never returns.
func (tx *Tx) Abort() {
	tx.abort(CauseExplicit)
}

// noLine is lastLine's value before an attempt's first admission; no heap has
// that many lines.
const noLine = ^uint64(0)

// Load returns the value of the word at addr as of the transaction's
// consistent snapshot, or the value this transaction itself wrote to it.
// If the snapshot can no longer be guaranteed consistent (another thread
// committed a conflicting write), the attempt aborts.
//
// A line is admitted once per run of loads from it, the way RTM tracks its
// read set per line: the first load checks the lock word (unlocked, version
// within the snapshot) and enters the line in the read set; the loads that
// follow from the same line only compare the lock word against the one the
// line was admitted under. That is the full check's verdict, not a weaker one:
// an admitted word can only change to a locked one or to a version drawn
// after the locker took the lock — hence after this snapshot — so "differs
// from the admitted word" and "locked or newer than the snapshot" name the
// same states (an aborted committer restores the word exactly, having
// published nothing).
func (tx *Tx) Load(addr nvm.Addr) uint64 {
	// A read-only attempt has buffered nothing; asking first spares it the
	// write-set probe. An unwritten word of a written line comes from the
	// snapshot like any other, and its line joins the read set.
	line := nvm.LineOf(addr)
	if w := &tx.writes; w.size() != 0 {
		i := w.recent(line)
		if i < 0 {
			i = w.lines.index(line)
		}
		if i >= 0 && w.bufs[i].mask>>wordOf(addr)&1 != 0 {
			return w.bufs[i].vals[wordOf(addr)]
		}
	}
	lk := tx.eng.lineLock(line)
	if line == tx.lastLine {
		val := tx.eng.heap.Load(addr)
		if lk.Load() != tx.lastLock {
			tx.abort(CauseConflict)
		}
		return val
	}

	before := lk.Load()
	if isLocked(before) || versionOf(before) > tx.readVersion {
		tx.abort(CauseConflict)
	}
	val := tx.eng.heap.Load(addr)
	if lk.Load() != before {
		tx.abort(CauseConflict)
	}
	if _, fresh := tx.readLines.add(line); fresh && tx.readLines.size() > tx.eng.cfg.MaxReadLines {
		tx.abort(CauseCapacity)
	}
	tx.lastLine, tx.lastLock = line, before
	return val
}

// snapshotValid reports whether every line the attempt has read is still
// unlocked and no newer than its snapshot, that is, whether the attempt could
// still commit.
func (tx *Tx) snapshotValid() bool {
	for _, line := range tx.readLines.dense {
		if cur := tx.eng.lineLock(line).Load(); isLocked(cur) || versionOf(cur) > tx.readVersion {
			return false
		}
	}
	return true
}

// Store buffers a write of val to the word at addr. The write becomes visible
// to other threads, atomically with the transaction's other writes, only if
// the attempt commits.
//
// The address is checked here, as it is buffered, and not again when commit
// publishes it: a bad one is the body's fault and is raised in the body, with
// no line locked and nothing published. The check is per word, as Heap.Store's
// is — a line admitted by one good word does not vouch for its others (word 0
// beside words 1–7, the tail of a heap's partial last line).
func (tx *Tx) Store(addr nvm.Addr, val uint64) {
	tx.eng.heap.Check(addr)
	i := tx.writes.recent(nvm.LineOf(addr))
	if i < 0 {
		i = tx.writes.entry(nvm.LineOf(addr))
		if tx.writes.size() > tx.eng.cfg.MaxWriteLines {
			tx.abort(CauseCapacity)
		}
	}
	tx.writes.bufs[i].set(wordOf(addr), val)
}

// StoreCommitTS buffers a write to addr whose value is computed, at commit
// time, as (commitTS << shift) | orBits, where commitTS is the transaction's
// commit timestamp (the value this commit publishes into the global version
// clock). Crafty uses it so that the timestamps in LOGGED/COMMITTED entries
// and in gLastRedoTS are drawn at the transaction's serialization point,
// which is what reading RDTSC inside a real hardware transaction
// approximates: a timestamp obtained earlier in the speculative execution
// would not be ordered consistently with the transaction's place in the
// commit order. The caller observes the drawn timestamp itself through
// Thread.CommitTS after Run returns.
func (tx *Tx) StoreCommitTS(addr nvm.Addr, shift uint8, orBits uint64) {
	// The line is written — counted here, locked at commit — though its
	// entry's mask does not say so until the value exists.
	tx.eng.heap.Check(addr)
	i := tx.writes.entry(nvm.LineOf(addr))
	if tx.writes.size() > tx.eng.cfg.MaxWriteLines {
		tx.abort(CauseCapacity)
	}
	tx.deferred = append(tx.deferred, deferredStore{buf: int32(i), word: uint8(wordOf(addr)), shift: shift, or: orBits})
}

// unlockLines releases the line locks in tx.lockedBuf, preserving each line's
// version (an abort publishes nothing, so versions must not advance).
func (tx *Tx) unlockLines() {
	for _, line := range tx.lockedBuf {
		lk := tx.eng.lineLock(line)
		lk.Store(lk.Load() &^ lockBit)
	}
}

// commit publishes the write set atomically, or aborts with CauseConflict if
// the read set can no longer be validated against the snapshot.
func (tx *Tx) commit() {
	if tx.writes.size() == 0 {
		// Read-only transactions are trivially serializable at their snapshot.
		tx.thread.flusher.Fence()
		tx.commitTS = tx.eng.globalVersion.Load()
		return
	}

	// The commit protocol below publishes the write set over several steps;
	// QuiesceCommitters relies on this counter to know when all in-flight
	// publications have landed.
	tx.eng.activeCommitters.Add(1)
	defer tx.eng.activeCommitters.Add(-1)

	// Acquire the versioned locks of all written lines in address order to
	// avoid deadlock between concurrent committers.
	tx.lineBuf = append(tx.lineBuf[:0], tx.writes.lines.dense...)
	slices.Sort(tx.lineBuf)

	tx.lockedBuf = tx.lockedBuf[:0]
	for _, line := range tx.lineBuf {
		lk := tx.eng.lineLock(line)
		acquired := false
		for spin := 0; spin < tx.eng.cfg.MaxLockSpin; spin++ {
			cur := lk.Load()
			if isLocked(cur) {
				continue
			}
			// A line we wrote but never read may have advanced past our
			// snapshot; that is harmless (blind write). A line we also read
			// is validated below against the read snapshot.
			if lk.CompareAndSwap(cur, cur|lockBit) {
				acquired = true
				break
			}
		}
		if !acquired {
			tx.unlockLines()
			tx.abort(CauseConflict)
		}
		tx.lockedBuf = append(tx.lockedBuf, line)
	}

	// Draw the commit timestamp while holding the write locks and before
	// validating the read set. Holding the locks first gives the ordering
	// property Crafty's timestamp check relies on: if this transaction's
	// writes were not visible to some other transaction's validated reads,
	// that transaction's commit timestamp is smaller than this one's.
	writeVersion := tx.eng.globalVersion.Add(1)

	// Validate the read set: every line read must still be at a version no
	// newer than the snapshot and not locked by another committer.
	for _, line := range tx.readLines.dense {
		cur := tx.eng.lineLock(line).Load()
		// A lock on a read line is a conflict unless it is this commit's own;
		// the write set is asked only about lines found locked.
		if versionOf(cur) > tx.readVersion || (isLocked(cur) && tx.writes.lines.index(line) < 0) {
			tx.unlockLines()
			tx.abort(CauseConflict)
		}
	}

	// Publish the writes, line by line in first-touch order, and stamp the
	// written lines with a fresh version. The deferred stores are masked in
	// first, over whatever the body buffered for their words, so they win as
	// if published last. Program order between lines is not kept and cannot
	// be missed: every written line is locked until the last is published.
	for _, d := range tx.deferred {
		tx.writes.bufs[d.buf].set(uint(d.word), writeVersion<<d.shift|d.or)
	}
	for i := range tx.writes.bufs {
		b := &tx.writes.bufs[i]
		tx.eng.heap.StoreLine(tx.writes.lines.dense[i], b.mask, &b.vals)
	}
	for _, line := range tx.lineBuf {
		tx.eng.lineLock(line).Store(packVersion(writeVersion))
	}

	// RTM commit has SFENCE semantics: the committing thread's outstanding
	// cache-line write-backs are complete once the transaction commits.
	tx.thread.flusher.Fence()
	tx.commitTS = writeVersion
}
