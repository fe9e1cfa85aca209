// Package undolog implements the classic undo-logging persistent transaction
// mechanism of Figure 1(b) in the Crafty paper: before each in-place write to
// persistent memory, the old value is appended to a persistent undo log and
// the log entry is persisted (flush + drain) before the write is performed.
// Reads are served directly from persistent memory.
//
// Thread atomicity comes from a per-engine lock (the paper's background
// section assumes locks or an STM for these designs); the per-write persist
// is the latency cost Crafty's nondestructive undo logging amortizes away.
// The package exists as a baseline for the ablation benchmarks and as the
// simplest possible correct persistent transaction implementation.
package undolog

import (
	"fmt"
	"sync"

	"crafty/internal/alloc"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Config configures a classic undo-logging engine.
type Config struct {
	// LogWords is the capacity of each thread's persistent undo log region in
	// words. Default 1 << 16.
	LogWords int
	// ArenaWords sizes the allocation arena backing Tx.Alloc (0 = none).
	ArenaWords int
}

func (c Config) withDefaults() Config {
	if c.LogWords == 0 {
		c.LogWords = 1 << 16
	}
	return c
}

// commitMarker terminates a transaction's entries in the persistent log.
const commitMarker = ^uint64(0) >> 1

// Engine implements ptm.Engine with per-write undo logging.
type Engine struct {
	cfg   Config
	heap  *nvm.Heap
	arena *alloc.Arena

	// lock provides thread atomicity: mutating transactions hold it
	// exclusively, read-only transactions (AtomicRead) hold it shared, so
	// any number of readers run concurrently and only writers serialize.
	lock sync.RWMutex

	mu      sync.Mutex
	threads []*Thread
}

// NewEngine creates a classic undo-logging engine over heap.
func NewEngine(heap *nvm.Heap, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, heap: heap}
	if cfg.ArenaWords > 0 {
		arena, err := alloc.NewArenaCarved(heap, cfg.ArenaWords)
		if err != nil {
			return nil, err
		}
		e.arena = arena
	}
	return e, nil
}

// Name implements ptm.Engine.
func (e *Engine) Name() string { return "UndoLog" }

// Heap implements ptm.Engine.
func (e *Engine) Heap() *nvm.Heap { return e.heap }

// Arena returns the engine's persistent allocation arena, or nil if none was
// configured.
func (e *Engine) Arena() *alloc.Arena { return e.arena }

// TxWriteBudget implements ptm.WriteBudgeter: one transaction's undo entries
// (two words per write) plus its commit marker must fit the per-thread log
// region, which otherwise wraps mid-transaction and could no longer represent
// the transaction for recovery.
func (e *Engine) TxWriteBudget() int {
	budget := (e.cfg.LogWords - 2) / 2
	if budget < 1 {
		budget = 1
	}
	return budget
}

// Close implements ptm.Engine.
func (e *Engine) Close() error { return nil }

// Register implements ptm.Engine.
func (e *Engine) Register() ptm.Thread {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := &Thread{
		eng:     e,
		flusher: e.heap.NewFlusher(),
		logBase: e.heap.MustCarve(e.cfg.LogWords),
		logCap:  e.cfg.LogWords,
		ro:      ptm.ROTx{Heap: e.heap},
	}
	t.txAlloc = alloc.NewTxLog(e.arena, t.flusher)
	e.threads = append(e.threads, t)
	return t
}

// Stats implements ptm.Engine.
func (e *Engine) Stats() ptm.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var agg ptm.Stats
	for _, t := range e.threads {
		agg.Add(t.Stats())
	}
	return agg
}

// Thread is one worker's handle; it implements ptm.Thread.
type Thread struct {
	eng     *Engine
	flusher *nvm.Flusher
	txAlloc *alloc.TxLog

	logBase nvm.Addr
	logCap  int
	logHead int

	// ro is the reusable read-only adapter handed to AtomicRead bodies.
	ro ptm.ROTx

	outcomes   [ptm.NumOutcomes]uint64
	writes     uint64
	userAborts uint64
}

// Stats implements ptm.Thread.
func (t *Thread) Stats() ptm.Stats {
	var s ptm.Stats
	copy(s.Persistent[:], t.outcomes[:])
	s.Writes = t.writes
	s.UserAborts = t.userAborts
	return s
}

// tx implements ptm.Tx with in-place writes preceded by persisted undo
// entries.
type tx struct {
	th       *Thread
	undo     []nvm.Addr // written-to addresses, for rollback on user abort
	oldVals  []uint64
	tooLarge bool
}

func (x *tx) Load(addr nvm.Addr) uint64 { return x.th.eng.heap.Load(addr) }

func (x *tx) Store(addr nvm.Addr, val uint64) {
	t := x.th
	// A single transaction's entries plus its commit marker must fit the log
	// region whole; once they cannot, the transaction is doomed to fail with
	// ptm.ErrTxTooLarge, so stop logging and writing (the writes performed so
	// far roll back when the body finishes).
	if x.tooLarge || (len(x.undo)+1)*2+2 > t.logCap {
		x.tooLarge = true
		return
	}
	// Append ⟨addr, oldValue⟩ to the persistent undo log and persist it
	// before performing the in-place write (Figure 1(b)): one full NVM
	// round trip per persistent write.
	old := t.eng.heap.Load(addr)
	if t.logHead+2 > t.logCap {
		t.logHead = 0
	}
	w := t.logBase + nvm.Addr(t.logHead)
	t.eng.heap.Store(w, uint64(addr))
	t.eng.heap.Store(w+1, old)
	t.flusher.FlushRange(w, 2)
	t.flusher.Drain()
	t.logHead += 2

	t.eng.heap.Store(addr, val)
	t.flusher.Flush(addr)
	x.undo = append(x.undo, addr)
	x.oldVals = append(x.oldVals, old)
}

func (x *tx) Alloc(words int) nvm.Addr {
	return x.th.txAlloc.Alloc(words, x)
}

func (x *tx) Free(addr nvm.Addr) {
	x.th.txAlloc.Free(addr, x)
}

// Atomic implements ptm.Thread.
func (t *Thread) Atomic(body func(tx ptm.Tx) error) error {
	t.eng.lock.Lock()
	defer t.eng.lock.Unlock()
	t.txAlloc.Begin()
	x := &tx{th: t}
	err := body(x)
	if err != nil || x.tooLarge {
		// Roll the in-place writes back using the volatile copy of the undo
		// entries, exactly as a crash recovery would from the persistent log.
		for i := len(x.undo) - 1; i >= 0; i-- {
			t.eng.heap.Store(x.undo[i], x.oldVals[i])
			t.flusher.Flush(x.undo[i])
		}
		t.flusher.Drain()
		t.txAlloc.Abort()
		if err == nil {
			return fmt.Errorf("undolog: transaction exceeds the %d-word log: %w", t.logCap, ptm.ErrTxTooLarge)
		}
		t.userAborts++
		return fmt.Errorf("%w: %w", ptm.ErrAborted, err)
	}
	// Append and persist the COMMITTED marker; the transaction's writes were
	// flushed as they happened and this drain completes them.
	if t.logHead+2 > t.logCap {
		t.logHead = 0
	}
	w := t.logBase + nvm.Addr(t.logHead)
	t.eng.heap.Store(w, commitMarker)
	t.eng.heap.Store(w+1, uint64(len(x.undo)))
	t.flusher.FlushRange(w, 2)
	t.flusher.Drain()
	t.logHead += 2

	t.txAlloc.Commit()
	t.outcomes[ptm.OutcomeSGL]++
	t.writes += uint64(len(x.undo))
	return nil
}

// AtomicRead implements ptm.Thread. Read-only transactions take the engine
// lock in shared mode — readers run concurrently with each other and only
// exclude writers — and touch neither the undo log nor the persist path:
// there is nothing to log, flush, or drain for a body that publishes
// nothing.
func (t *Thread) AtomicRead(body func(tx ptm.Tx) error) error {
	t.eng.lock.RLock()
	defer t.eng.lock.RUnlock()
	return ptm.NoteRead(&t.outcomes, &t.userAborts, ptm.OutcomeReadOnly, t.ro.ReadDirect(body))
}
