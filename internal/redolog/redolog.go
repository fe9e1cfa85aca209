// Package redolog implements the classic redo-logging persistent transaction
// mechanism of Figure 1(c) in the Crafty paper: persistent writes are
// buffered in a map-based log, persistent reads look the buffer up before
// falling back to memory, and at commit the whole log is persisted once
// before the buffered writes are applied in place.
//
// Compared with undo logging, the persist latency is paid once per
// transaction instead of once per write, but every read pays a lookup — the
// trade-off the paper's background section describes. Thread atomicity comes
// from a per-engine lock.
package redolog

import (
	"fmt"
	"sync"

	"crafty/internal/alloc"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Config configures a classic redo-logging engine.
type Config struct {
	// LogWords is the capacity of each thread's persistent redo log region in
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

// commitMarker terminates a transaction's records in the persistent log.
const commitMarker = ^uint64(0) >> 1

// Engine implements ptm.Engine with commit-time redo logging.
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

// NewEngine creates a classic redo-logging engine over heap.
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
func (e *Engine) Name() string { return "RedoLog" }

// Heap implements ptm.Engine.
func (e *Engine) Heap() *nvm.Heap { return e.heap }

// Arena returns the engine's persistent allocation arena, or nil if none was
// configured.
func (e *Engine) Arena() *alloc.Arena { return e.arena }

// TxWriteBudget implements ptm.WriteBudgeter: one transaction's redo records
// (two words per distinct written address) plus its commit marker must fit
// the per-thread log region whole — the log is persisted in one piece at
// commit.
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
		buffer:  make(map[nvm.Addr]uint64, 32),
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

	buffer map[nvm.Addr]uint64
	order  []nvm.Addr

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

// tx implements ptm.Tx with buffered writes and read-through-buffer loads.
type tx struct {
	th       *Thread
	tooLarge bool
}

func (x *tx) Load(addr nvm.Addr) uint64 {
	if v, ok := x.th.buffer[addr]; ok {
		return v
	}
	return x.th.eng.heap.Load(addr)
}

func (x *tx) Store(addr nvm.Addr, val uint64) {
	if x.tooLarge {
		return
	}
	if _, ok := x.th.buffer[addr]; !ok {
		// The transaction's records plus the commit marker must fit the log
		// region whole; past that point the transaction is doomed to fail
		// with ptm.ErrTxTooLarge (nothing was applied in place yet), so stop
		// buffering.
		if (len(x.th.order)+1)*2+2 > x.th.logCap {
			x.tooLarge = true
			return
		}
		x.th.order = append(x.th.order, addr)
	}
	x.th.buffer[addr] = val
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
	clear(t.buffer)
	t.order = t.order[:0]

	x := &tx{th: t}
	if err := body(x); err != nil {
		t.txAlloc.Abort()
		t.userAborts++
		return fmt.Errorf("%w: %w", ptm.ErrAborted, err)
	}
	if x.tooLarge {
		t.txAlloc.Abort()
		return fmt.Errorf("redolog: transaction exceeds the %d-word log: %w", t.logCap, ptm.ErrTxTooLarge)
	}

	// Persist the redo log (one drain for the whole transaction), append the
	// COMMITTED marker, then apply the buffered writes in place.
	records := len(t.order)*2 + 2
	if t.logHead+records > t.logCap {
		t.logHead = 0
	}
	base := t.logBase + nvm.Addr(t.logHead)
	w := base
	for _, addr := range t.order {
		t.eng.heap.Store(w, uint64(addr))
		t.eng.heap.Store(w+1, t.buffer[addr])
		w += 2
	}
	t.eng.heap.Store(w, commitMarker)
	t.eng.heap.Store(w+1, uint64(len(t.order)))
	t.flusher.FlushRange(base, records)
	t.flusher.Drain()
	t.logHead += records

	for _, addr := range t.order {
		t.eng.heap.Store(addr, t.buffer[addr])
		t.flusher.Flush(addr)
	}
	t.flusher.Drain()

	t.txAlloc.Commit()
	t.outcomes[ptm.OutcomeSGL]++
	t.writes += uint64(len(t.order))
	return nil
}

// AtomicRead implements ptm.Thread. Read-only transactions take the engine
// lock in shared mode — readers run concurrently with each other and only
// exclude writers — and skip the write buffer entirely: with no buffered
// writes there is nothing for reads to look up, nothing to persist, and
// nothing to apply.
func (t *Thread) AtomicRead(body func(tx ptm.Tx) error) error {
	t.eng.lock.RLock()
	defer t.eng.lock.RUnlock()
	return ptm.NoteRead(&t.outcomes, &t.userAborts, ptm.OutcomeReadOnly, t.ro.ReadDirect(body))
}
