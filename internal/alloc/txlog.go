package alloc

import "crafty/internal/nvm"

// TxLog records the allocations and frees performed while executing one
// persistent transaction, implementing the memory-management protocol from
// Section 6 of the Crafty paper:
//
//   - allocations by an attempt that aborts are released;
//   - allocations by Crafty's Log phase are replayed (the same addresses are
//     returned in the same order) when the Validate phase re-executes the
//     transaction body;
//   - frees are deferred until the transaction commits, and discarded if it
//     never does.
//
// Block-header transitions are issued through the owning transaction's own
// Store (the Storer handed to Alloc and Free), so each alloc and free flip is
// undo-logged alongside the data it guards: post-crash suffix rollback of the
// transaction restores the header too, which is what lets recovery trust the
// header chain instead of reconciling the arena against a full reachable-set
// walk (see DESIGN.md, "Bounded recovery"). A freed block's return to the
// free lists still waits for commit — and is volatile-only, since the
// persistent flip already rode the transaction.
//
// A TxLog belongs to one thread and is reset at each transaction boundary.
// It carries the thread's flusher so the arena's remaining non-transactional
// metadata writes (split remainders, the high-water mark) ride the thread's
// existing persist batching: they are fenced by the same drain or
// hardware-transaction commit that makes the transaction's log entries
// durable, costing the hot path no extra NVM round trips.
//
// Every engine thread has one, arena or not: over a nil arena the log never
// holds a record, so Begin, BeginReplay, Commit and Abort do nothing, and
// Alloc and Free panic with ErrNoArena.
type TxLog struct {
	arena   *Arena
	flusher *nvm.Flusher
	allocs  []blockRec
	frees   []blockRec

	// replay is the index of the next recorded allocation to hand back out
	// while re-executing a body (Validate phase); -1 means live allocation.
	replay int
}

// blockRec names one block the transaction allocated or freed, with the
// header word its flip wrote (replays must re-issue the identical Store).
type blockRec struct {
	addr    nvm.Addr
	class   int // size class in words
	hdrAddr nvm.Addr
	hdrWord uint64
}

// NewTxLog creates an allocation log over arena, which is nil for an engine
// built without one. flusher is the owning thread's persist handle: it fences
// the arena's metadata flushes at the thread's transaction boundaries.
func NewTxLog(arena *Arena, flusher *nvm.Flusher) *TxLog {
	return &TxLog{arena: arena, flusher: flusher, replay: -1}
}

// mustArena returns the arena Alloc and Free act on.
func (l *TxLog) mustArena() *Arena {
	if l.arena == nil {
		panic(ErrNoArena)
	}
	return l.arena
}

// Begin resets the log for a new persistent transaction.
func (l *TxLog) Begin() {
	l.allocs = l.allocs[:0]
	l.frees = l.frees[:0]
	l.replay = -1
}

// BeginReplay rewinds the allocation cursor so that a re-execution of the
// body (Crafty's Validate phase, or a retried Log phase after a validation
// failure keeps the same memory) receives the same addresses in the same
// order. Frees recorded so far are discarded; the re-execution records them
// again.
func (l *TxLog) BeginReplay() {
	l.replay = 0
	l.frees = l.frees[:0]
}

// Alloc allocates a block of the given size, issuing its header's alloc flip
// through tx so the flip is undo-logged with the transaction. In replay mode
// a previously recorded allocation is handed back and the identical header
// Store is re-issued, keeping the re-executed body's write sequence equal to
// the logged one.
func (l *TxLog) Alloc(words int, tx Storer) nvm.Addr {
	if l.replay >= 0 {
		if l.replay < len(l.allocs) {
			r := l.allocs[l.replay]
			l.replay++
			tx.Store(r.hdrAddr, r.hdrWord)
			return r.addr
		}
		// The re-execution allocated more than the original run (it observed
		// different state); fall through to a live allocation, which will be
		// released if the attempt fails.
		r := l.liveAlloc(words, tx)
		l.replay = len(l.allocs)
		return r
	}
	return l.liveAlloc(words, tx)
}

func (l *TxLog) liveAlloc(words int, tx Storer) nvm.Addr {
	addr, class, hdrAddr, hdrWord := l.mustArena().allocTx(words, l.flusher)
	l.allocs = append(l.allocs, blockRec{addr: addr, class: class, hdrAddr: hdrAddr, hdrWord: hdrWord})
	tx.Store(hdrAddr, hdrWord)
	return addr
}

// Free records a deferred free of addr, issuing the header's free flip
// through tx immediately: the flip commits (and rolls back) with the
// transaction, while the block's return to the free lists waits for Commit.
func (l *TxLog) Free(addr nvm.Addr, tx Storer) {
	class, hdrAddr, hdrWord := l.mustArena().freeHeaderFor(addr)
	l.frees = append(l.frees, blockRec{addr: addr, class: class, hdrAddr: hdrAddr, hdrWord: hdrWord})
	tx.Store(hdrAddr, hdrWord)
}

// Abort releases every allocation recorded since Begin; the transaction never
// committed, so its memory must not leak. The transactional header flips were
// discarded or rolled back with the attempt, so each release rewrites an
// exact-class free header (see Arena.releaseTxAlloc). Deferred frees are
// discarded — their flips died with the attempt too.
func (l *TxLog) Abort() {
	for _, r := range l.allocs {
		l.arena.releaseTxAlloc(r.addr, l.flusher)
	}
	l.allocs = l.allocs[:0]
	l.frees = l.frees[:0]
	l.replay = -1
}

// Commit applies the deferred frees (volatile-only: their header flips
// committed with the transaction); the allocations become permanent. If the
// committing execution was a replay that consumed fewer allocations than the
// original run recorded, the surplus blocks are released so they do not leak.
func (l *TxLog) Commit() {
	if l.replay >= 0 {
		for _, r := range l.allocs[l.replay:] {
			l.arena.releaseTxAlloc(r.addr, l.flusher)
		}
	}
	for _, r := range l.frees {
		l.arena.releaseTxFreed(r.addr, r.class)
	}
	l.allocs = l.allocs[:0]
	l.frees = l.frees[:0]
	l.replay = -1
}
