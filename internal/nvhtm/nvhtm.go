// Package nvhtm implements the NV-HTM baseline (Castro et al., IPDPS 2018),
// the state-of-the-art HTM-compatible persistent transaction design the
// Crafty paper compares against, as well as — via Config.GlobalClockInHTM —
// the DudeTM design (Liu et al., ASPLOS 2017) that the same artifact models.
//
// Both designs decouple persistence from HTM concurrency control:
//
//   - the transaction body runs in a hardware transaction against volatile
//     working state (shadow DRAM pages in the original systems; the heap's
//     visible image here), performing in-place reads and writes;
//   - after the hardware transaction commits, the transaction's redo log
//     (address/new-value pairs plus a commit timestamp) is written to NVM and
//     persisted;
//   - a transaction may only durably close (write its COMMIT marker) once
//     every concurrent transaction with an earlier timestamp has done so,
//     because recovery replays redo logs in timestamp order — this is the
//     first of NV-HTM's two scalability bottlenecks the paper describes;
//   - an asynchronous background checkpointer applies closed transactions to
//     their home NVM locations in timestamp order — the second bottleneck,
//     and the extra thread responsible for the throughput collapse both
//     papers observe when all hardware threads are occupied by workers.
//
// DudeTM differs in how the commit timestamp is obtained: it increments a
// global counter inside the hardware transaction, which makes every pair of
// concurrent hardware transactions conflict on that counter's cache line —
// the incompatibility with commodity HTM that Section 2.3 of the Crafty paper
// points out. NV-HTM instead derives the timestamp at commit without touching
// shared memory inside the transaction.
package nvhtm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"crafty/internal/alloc"
	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Config configures an NV-HTM (or DudeTM) engine.
type Config struct {
	// HTM configures the emulated hardware transactional memory.
	HTM htm.Config
	// GlobalClockInHTM selects the DudeTM timestamp scheme: the commit
	// timestamp is a shared counter incremented inside the hardware
	// transaction.
	GlobalClockInHTM bool
	// Name overrides the engine name ("NV-HTM" / "DudeTM" by default).
	Name string
	// LogWords is the capacity of each thread's persistent redo log region,
	// in words. Default 1 << 16.
	LogWords int
	// MaxRetries bounds hardware transaction retries before the single
	// global lock fallback. Default 10.
	MaxRetries int
	// ArenaWords sizes the allocation arena backing Tx.Alloc (0 = none).
	ArenaWords int
	// ApplierBatch is how many closed transactions the background
	// checkpointer applies per drain. Default 64.
	ApplierBatch int
}

func (c Config) withDefaults() Config {
	if c.LogWords == 0 {
		c.LogWords = 1 << 16
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 10
	}
	if c.ApplierBatch == 0 {
		c.ApplierBatch = 64
	}
	if c.Name == "" {
		if c.GlobalClockInHTM {
			c.Name = "DudeTM"
		} else {
			c.Name = "NV-HTM"
		}
	}
	return c
}

// closedTxn is a committed transaction handed to the background checkpointer.
type closedTxn struct {
	ts    uint64
	addrs []nvm.Addr
}

// Engine implements ptm.Engine for the NV-HTM and DudeTM designs.
type Engine struct {
	cfg     Config
	heap    *nvm.Heap
	hw      *htm.Engine
	arena   *alloc.Arena
	sglAddr nvm.Addr
	// dudeClockAddr is the shared counter DudeTM increments inside hardware
	// transactions.
	dudeClockAddr nvm.Addr

	// inFlight publishes each worker's commit timestamp between its hardware
	// transaction commit and the moment its COMMIT marker is durable, so
	// later transactions can enforce timestamp-ordered closing.
	mu       sync.Mutex
	inFlight map[int]uint64
	threads  []*Thread

	// Background checkpointer.
	queue   chan closedTxn
	done    chan struct{}
	applied atomic.Uint64
	closed  atomic.Bool
}

// NewEngine creates an NV-HTM engine (or a DudeTM engine when
// cfg.GlobalClockInHTM is set) over heap and starts its background
// checkpointer.
func NewEngine(heap *nvm.Heap, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	globals, err := heap.Carve(2 * nvm.WordsPerLine)
	if err != nil {
		return nil, fmt.Errorf("nvhtm: carving globals: %w", err)
	}
	e := &Engine{
		cfg:           cfg,
		heap:          heap,
		hw:            htm.NewEngine(heap, cfg.HTM),
		sglAddr:       globals,
		dudeClockAddr: globals + nvm.WordsPerLine,
		inFlight:      make(map[int]uint64),
		queue:         make(chan closedTxn, 4096),
		done:          make(chan struct{}),
	}
	if cfg.ArenaWords > 0 {
		arena, err := alloc.NewArenaCarved(heap, cfg.ArenaWords)
		if err != nil {
			return nil, err
		}
		e.arena = arena
	}
	go e.checkpointer()
	return e, nil
}

// Name implements ptm.Engine.
func (e *Engine) Name() string { return e.cfg.Name }

// Heap implements ptm.Engine.
func (e *Engine) Heap() *nvm.Heap { return e.heap }

// Arena returns the engine's persistent allocation arena, or nil if none was
// configured.
func (e *Engine) Arena() *alloc.Arena { return e.arena }

// HTM exposes the underlying emulated HTM engine.
func (e *Engine) HTM() *htm.Engine { return e.hw }

// TxWriteBudget implements ptm.WriteBudgeter: the transaction body runs
// in-place inside a hardware transaction (worst case one dirtied cache line
// per write, with two lines of slack for the lock words), and its redo
// records — two words per write plus a two-word commit marker — must fit the
// per-thread log region whole.
func (e *Engine) TxWriteBudget() int {
	budget := e.hw.Config().MaxWriteLines - 2
	if logBudget := (e.cfg.LogWords - 2) / 2; logBudget < budget {
		budget = logBudget
	}
	if budget < 1 {
		budget = 1
	}
	return budget
}

// Close stops the background checkpointer.
func (e *Engine) Close() error {
	if e.closed.CompareAndSwap(false, true) {
		close(e.queue)
		<-e.done
	}
	return nil
}

// AppliedTxns reports how many transactions the background checkpointer has
// applied to their home NVM locations.
func (e *Engine) AppliedTxns() uint64 { return e.applied.Load() }

// checkpointer is the asynchronous background thread that applies closed
// transactions to their home NVM locations in timestamp order.
func (e *Engine) checkpointer() {
	defer close(e.done)
	flusher := e.heap.NewFlusher()
	var pending []closedTxn
	apply := func() {
		if len(pending) == 0 {
			return
		}
		// Apply in timestamp order: the serialization of writes to NVM that
		// the Crafty paper identifies as inherent to redo-log designs.
		sort.Slice(pending, func(i, j int) bool { return pending[i].ts < pending[j].ts })
		for _, txn := range pending {
			for _, addr := range txn.addrs {
				flusher.Flush(addr)
			}
			e.applied.Add(1)
		}
		flusher.Drain()
		pending = pending[:0]
	}
	for txn := range e.queue {
		pending = append(pending, txn)
		if len(pending) >= e.cfg.ApplierBatch {
			apply()
		}
	}
	apply()
}

// Register implements ptm.Engine.
func (e *Engine) Register() ptm.Thread {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := len(e.threads)
	logBase := e.heap.MustCarve(e.cfg.LogWords)
	t := &Thread{
		eng:     e,
		id:      id,
		hw:      e.hw.NewThread(int64(id)),
		logBase: logBase,
		logCap:  e.cfg.LogWords,
		ro:      ptm.ROTx{Heap: e.heap},
	}
	t.flusher = t.hw.Flusher()
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

// beginCommit publishes a worker's commit timestamp as in flight.
func (e *Engine) beginCommit(id int, ts uint64) {
	e.mu.Lock()
	e.inFlight[id] = ts
	e.mu.Unlock()
}

// awaitTurn blocks until no other worker has an in-flight commit with an
// earlier timestamp, enforcing that COMMIT markers become durable in
// timestamp order (NV-HTM's commit fence).
func (e *Engine) awaitTurn(id int, ts uint64) {
	for {
		earliest := true
		e.mu.Lock()
		for other, ots := range e.inFlight {
			if other != id && ots != 0 && ots < ts {
				earliest = false
				break
			}
		}
		e.mu.Unlock()
		if earliest {
			return
		}
	}
}

// endCommit clears the worker's in-flight record.
func (e *Engine) endCommit(id int) {
	e.mu.Lock()
	delete(e.inFlight, id)
	e.mu.Unlock()
}
