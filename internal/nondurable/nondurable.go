// Package nondurable implements the paper's Non-durable baseline: each
// persistent transaction simply executes inside a hardware transaction (with
// a single-global-lock fallback), providing thread atomicity but no crash
// consistency whatsoever. The evaluation normalizes every engine's throughput
// to this baseline's single-thread throughput.
package nondurable

import (
	"fmt"
	"sync"

	"crafty/internal/alloc"
	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Config configures a non-durable engine.
type Config struct {
	// HTM configures the emulated hardware transactional memory.
	HTM htm.Config
	// MaxRetries is how many hardware aborts a transaction tolerates before
	// falling back to the single global lock. Default 10.
	MaxRetries int
	// ArenaWords sizes the allocation arena backing Tx.Alloc (0 = none).
	ArenaWords int
}

func (c Config) withDefaults() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = 10
	}
	return c
}

// Engine is the non-durable baseline engine.
type Engine struct {
	cfg     Config
	heap    *nvm.Heap
	hw      *htm.Engine
	arena   *alloc.Arena
	sglAddr nvm.Addr

	mu      sync.Mutex
	threads []*Thread
}

// NewEngine creates a non-durable engine over heap.
func NewEngine(heap *nvm.Heap, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	globals, err := heap.Carve(nvm.WordsPerLine)
	if err != nil {
		return nil, fmt.Errorf("nondurable: carving globals: %w", err)
	}
	e := &Engine{
		cfg:     cfg,
		heap:    heap,
		hw:      htm.NewEngine(heap, cfg.HTM),
		sglAddr: globals,
	}
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
func (e *Engine) Name() string { return "Non-durable" }

// Heap implements ptm.Engine.
func (e *Engine) Heap() *nvm.Heap { return e.heap }

// Arena returns the engine's persistent allocation arena, or nil if none was
// configured.
func (e *Engine) Arena() *alloc.Arena { return e.arena }

// HTM exposes the underlying emulated HTM engine.
func (e *Engine) HTM() *htm.Engine { return e.hw }

// TxWriteBudget implements ptm.WriteBudgeter: the engine logs nothing, so the
// only per-transaction bound is the hardware write capacity (worst case one
// dirtied cache line per write, with two lines of slack for the lock words).
// Larger transactions still commit through the single-global-lock fallback —
// the budget is the hint for staying on the HTM fast path.
func (e *Engine) TxWriteBudget() int {
	budget := e.hw.Config().MaxWriteLines - 2
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
	t := &Thread{eng: e, hw: e.hw.NewThread(int64(len(e.threads))), ro: ptm.ROTx{Heap: e.heap}}
	// The hardware thread's flusher fences the arena's block-header flushes
	// at HTM commits; the engine itself persists nothing.
	t.txAlloc = alloc.NewTxLog(e.arena, t.hw.Flusher())
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
	hw      *htm.Thread
	txAlloc *alloc.TxLog

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
	s.HTM = t.hw.Stats()
	s.Writes = t.writes
	s.UserAborts = t.userAborts
	return s
}

// tx adapts a hardware transaction to ptm.Tx.
type tx struct {
	th     *Thread
	hwtx   *htm.Tx
	writes int
}

func (x *tx) Load(addr nvm.Addr) uint64 { return x.hwtx.Load(addr) }

func (x *tx) Store(addr nvm.Addr, val uint64) {
	x.hwtx.Store(addr, val)
	x.writes++
}

func (x *tx) Alloc(words int) nvm.Addr {
	return x.th.txAlloc.Alloc(words, x)
}

func (x *tx) Free(addr nvm.Addr) {
	x.th.txAlloc.Free(addr, x)
}

// sglTx executes under the single global lock, buffering writes so that a
// body error can still abandon the transaction without side effects.
type sglTx struct {
	th     *Thread
	buf    map[nvm.Addr]uint64
	order  []nvm.Addr
	writes int
}

func (x *sglTx) Load(addr nvm.Addr) uint64 {
	if v, ok := x.buf[addr]; ok {
		return v
	}
	return x.th.eng.heap.Load(addr)
}

func (x *sglTx) Store(addr nvm.Addr, val uint64) {
	if x.buf == nil {
		x.buf = make(map[nvm.Addr]uint64, 8)
	}
	if _, ok := x.buf[addr]; !ok {
		x.order = append(x.order, addr)
	}
	x.buf[addr] = val
	x.writes++
}

// apply publishes the buffered writes; called only when the body succeeded.
func (x *sglTx) apply() {
	for _, addr := range x.order {
		x.th.eng.hw.NonTxStore(addr, x.buf[addr])
	}
}

func (x *sglTx) Alloc(words int) nvm.Addr {
	return x.th.txAlloc.Alloc(words, x)
}

func (x *sglTx) Free(addr nvm.Addr) {
	x.th.txAlloc.Free(addr, x)
}

// Atomic implements ptm.Thread.
func (t *Thread) Atomic(body func(tx ptm.Tx) error) error {
	t.txAlloc.Begin()
	for attempt := 0; attempt <= t.eng.cfg.MaxRetries; attempt++ {
		var userErr error
		var writes int
		cause := t.hw.Run(func(hwtx *htm.Tx) {
			if hwtx.Load(t.eng.sglAddr) != 0 {
				hwtx.Abort()
			}
			x := &tx{th: t, hwtx: hwtx}
			if err := body(x); err != nil {
				userErr = err
				hwtx.Abort()
			}
			writes = x.writes
		})
		if userErr != nil {
			return t.abandon(userErr)
		}
		if cause == htm.CauseNone {
			return t.commit(writes, ptm.OutcomeHTM)
		}
		t.txAlloc.BeginReplay()
	}

	// Single-global-lock fallback.
	t.eng.hw.AcquireSGL(t.eng.sglAddr)
	defer t.eng.hw.ReleaseSGL(t.eng.sglAddr)
	x := &sglTx{th: t}
	if err := body(x); err != nil {
		return t.abandon(err)
	}
	x.apply()
	return t.commit(x.writes, ptm.OutcomeSGL)
}

// AtomicRead implements ptm.Thread: the body runs in the shared lock-eliding
// loop (ptm.ROTx.ReadElided), skipping the allocation scope entirely.
func (t *Thread) AtomicRead(body func(tx ptm.Tx) error) error {
	way, _, err := t.ro.ReadElided(t.hw, t.eng.sglAddr, t.eng.cfg.MaxRetries, body)
	return ptm.NoteRead(&t.outcomes, &t.userAborts, way, err)
}

func (t *Thread) commit(writes int, outcome ptm.Outcome) error {
	t.txAlloc.Commit()
	t.outcomes[outcome]++
	t.writes += uint64(writes)
	return nil
}

func (t *Thread) abandon(err error) error {
	t.txAlloc.Abort()
	t.userAborts++
	return fmt.Errorf("%w: %w", ptm.ErrAborted, err)
}
