// Package core implements Crafty, the paper's primary contribution: efficient
// persistent transactions that use commodity hardware transactional memory
// (HTM) both for concurrency control and — through nondestructive undo
// logging — to control persist ordering.
//
// A Crafty persistent transaction executes in up to three phases
// (Sections 3 and 4 of the paper):
//
//   - The Log phase runs the transaction body inside a hardware transaction,
//     recording ⟨address, old value⟩ undo entries before each persistent
//     write and rolling every write back (while building a volatile redo log)
//     before the hardware transaction commits. The committed hardware
//     transaction has therefore published only undo log entries, which are
//     then flushed to NVM — this is nondestructive undo logging, and it is
//     what breaks the persist–commit dependence cycle that otherwise makes
//     commodity HTM incompatible with persistent transactions.
//   - The Redo phase applies the volatile redo log inside a second hardware
//     transaction, provided the global last-committed timestamp shows that no
//     other thread committed writes in between; it then advances that
//     timestamp and converts the transaction's LOGGED entry to COMMITTED.
//   - The Validate phase runs only if the Redo phase fails. It re-executes
//     the body, checking each write's target against the persisted undo
//     entries; a mismatch means a conflicting transaction committed in
//     between, so the whole transaction restarts from the Log phase.
//
// Repeated aborts fall back to a single global lock (SGL), under which Crafty
// runs in its thread-unsafe mode: the transaction is executed in chunks of at
// most k persistent writes, each chunk's undo entries are persisted before
// its writes are performed, and k shrinks geometrically after aborts until
// progress is guaranteed (Section 4.4).
//
// The package also implements the crash recovery observer of Section 5,
// including the circular-log machinery of Section 5.2 (wraparound bits,
// stolen value bits, tsLowerBound/MAX_LAG maintenance), which the original
// artifact describes but leaves unevaluated.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"crafty/internal/alloc"
	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Mode selects between Crafty's two execution modes (Section 4).
type Mode int

const (
	// ThreadSafe provides both thread atomicity and failure atomicity (full
	// ACID transactions); it is the mode the paper evaluates.
	ThreadSafe Mode = iota
	// ThreadUnsafe provides failure atomicity only; the program must supply
	// thread atomicity itself (locks, a single-threaded phase, ...). Every
	// transaction uses the chunked logging path directly, without acquiring
	// the single global lock.
	ThreadUnsafe
)

// String returns the mode name.
func (m Mode) String() string {
	if m == ThreadUnsafe {
		return "thread-unsafe"
	}
	return "thread-safe"
}

// Config configures a Crafty engine.
type Config struct {
	// HTM configures the emulated hardware transactional memory.
	HTM htm.Config

	// Mode selects thread-safe (default) or thread-unsafe execution.
	Mode Mode

	// LogEntries is the capacity of each thread's circular undo log, in
	// entries (one entry per persistent write plus one marker per
	// transaction). Default 1 << 16.
	LogEntries int

	// MaxThreads bounds how many threads can register; it sizes the
	// persistent log directory used by recovery. Default 64.
	MaxThreads int

	// ArenaWords sizes the persistent allocation arena backing Tx.Alloc.
	// Zero means no arena; transactions that call Alloc will panic.
	ArenaWords int

	// MaxRetries is how many hardware-transaction failures a persistent
	// transaction tolerates before falling back to the single global lock.
	// Default 10.
	MaxRetries int

	// ValidateRetries is how many times a Validate phase that aborted for a
	// reason other than a validation failure is retried before the
	// transaction restarts from the Log phase. Default 2.
	ValidateRetries int

	// InitialChunk is the initial number of persistent writes per hardware
	// transaction in thread-unsafe (SGL) mode; it halves after each abort.
	// Default 64.
	InitialChunk int

	// MaxLag bounds how far back in time recovery may have to roll back
	// (Section 5.2), in logical timestamp units: once a thread's new
	// timestamps run this far ahead of the oldest thread's last sequence,
	// delinquent threads are forced to log an empty sequence so that
	// recovery never has to rewind further than this. Default 4096.
	MaxLag uint64

	// DisableRedo builds the Crafty-NoRedo variant: transactions skip the
	// Redo phase and commit through Validate.
	DisableRedo bool

	// DisableValidate builds the Crafty-NoValidate variant: a failed Redo
	// phase restarts the transaction from the Log phase instead of
	// validating.
	DisableValidate bool
}

func (c Config) withDefaults() Config {
	if c.LogEntries == 0 {
		c.LogEntries = 1 << 16
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 64
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 10
	}
	if c.ValidateRetries == 0 {
		c.ValidateRetries = 2
	}
	if c.InitialChunk == 0 {
		c.InitialChunk = 64
	}
	if c.MaxLag == 0 {
		c.MaxLag = 1 << 12
	}
	return c
}

// Layout records where a Crafty engine placed its persistent structures on
// the heap. Recovery needs it to find the log directory after a crash; a
// production system would keep it in a superblock at a well-known address,
// and callers here keep it alongside the heap.
type Layout struct {
	// GlobalsBase is the base of the globals region; the words at fixed
	// offsets hold gLastRedoTS and the single global lock, each on its own
	// cache line to avoid false transactional conflicts, and Recover's
	// log-invalidation record beside the lock.
	GlobalsBase nvm.Addr
	// DirectoryBase is the base of the persistent log directory: one word
	// per thread slot holding that slot's undo log base address (0 = slot
	// unused).
	DirectoryBase nvm.Addr
	// MaxThreads and LogEntries mirror the configuration the engine was
	// created with; recovery needs them to size its scan.
	MaxThreads int
	LogEntries int
	// ArenaBase/ArenaWords locate the allocation arena (0 if none).
	ArenaBase  nvm.Addr
	ArenaWords int
}

// offsets of the globals within the globals region (one per cache line).
const (
	offGLastRedoTS = 0 * nvm.WordsPerLine
	offSGL         = 1 * nvm.WordsPerLine
	offLogsInvalid = offSGL + 1
	globalsWords   = 2 * nvm.WordsPerLine
)

// Engine is a Crafty persistent transaction engine over one heap.
type Engine struct {
	name   string
	cfg    Config
	heap   *nvm.Heap
	hw     *htm.Engine
	layout Layout
	arena  *alloc.Arena

	gLastRedoTSAddr nvm.Addr
	sglAddr         nvm.Addr

	// tsLowerBound is the lazily maintained lower bound on the earliest
	// timestamp recovery might need to roll back to (Section 5.2). It is
	// volatile: recovery derives everything from the logs.
	tsLowerBound atomic.Uint64

	// metrics is the engine's off-path instrument block (see metrics.go);
	// never nil. AdoptMetrics swaps it to carry counters across engine
	// incarnations.
	metrics *Metrics

	mu      sync.Mutex
	threads []*Thread
	closed  bool
}

// NewEngine creates a Crafty engine on a fresh heap, carving and initializing
// its persistent metadata. Use Open to attach to a heap that already contains
// a Crafty layout (after a crash).
func NewEngine(heap *nvm.Heap, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	globalsBase, err := heap.Carve(globalsWords)
	if err != nil {
		return nil, fmt.Errorf("core: carving globals: %w", err)
	}
	dirBase, err := heap.Carve(cfg.MaxThreads)
	if err != nil {
		return nil, fmt.Errorf("core: carving log directory: %w", err)
	}
	layout := Layout{
		GlobalsBase:   globalsBase,
		DirectoryBase: dirBase,
		MaxThreads:    cfg.MaxThreads,
		LogEntries:    cfg.LogEntries,
	}
	if cfg.ArenaWords > 0 {
		arenaBase, err := heap.Carve(cfg.ArenaWords)
		if err != nil {
			return nil, fmt.Errorf("core: carving arena: %w", err)
		}
		layout.ArenaBase = arenaBase
		layout.ArenaWords = cfg.ArenaWords
	}
	return Open(heap, layout, cfg)
}

// Open attaches a Crafty engine to a heap whose persistent metadata was laid
// out by a previous NewEngine call with the same configuration. Open does not
// run recovery; call Recover first if the heap may hold effects of
// transactions that were in flight at a crash.
func Open(heap *nvm.Heap, layout Layout, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if layout.MaxThreads != cfg.MaxThreads || layout.LogEntries != cfg.LogEntries {
		return nil, fmt.Errorf("core: layout (threads=%d entries=%d) does not match config (threads=%d entries=%d)",
			layout.MaxThreads, layout.LogEntries, cfg.MaxThreads, cfg.LogEntries)
	}
	e := &Engine{
		name:            variantName(cfg),
		cfg:             cfg,
		heap:            heap,
		hw:              htm.NewEngine(heap, cfg.HTM),
		layout:          layout,
		gLastRedoTSAddr: layout.GlobalsBase + offGLastRedoTS,
		sglAddr:         layout.GlobalsBase + offSGL,
		metrics:         new(Metrics),
	}
	// gLastRedoTS may have persisted ahead of every surviving log timestamp;
	// a Log phase stamped below it would fail every Redo check.
	e.hw.AdvanceTimestamp(heap.Load(e.gLastRedoTSAddr))
	if layout.ArenaWords > 0 {
		var err error
		if e.arena, err = alloc.NewArena(heap, layout.ArenaBase, layout.ArenaWords); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// variantName names the engine after its configuration, matching the labels
// used in the paper's figures.
func variantName(cfg Config) string {
	switch {
	case cfg.DisableRedo && cfg.DisableValidate:
		return "Crafty-LogOnly"
	case cfg.DisableRedo:
		return "Crafty-NoRedo"
	case cfg.DisableValidate:
		return "Crafty-NoValidate"
	default:
		return "Crafty"
	}
}

// Name implements ptm.Engine.
func (e *Engine) Name() string { return e.name }

// Heap implements ptm.Engine.
func (e *Engine) Heap() *nvm.Heap { return e.heap }

// Layout returns where the engine's persistent metadata lives; keep it with
// the heap so that Recover and Open can find the logs after a crash.
func (e *Engine) Layout() Layout { return e.layout }

// HTM exposes the underlying emulated HTM engine (used by tests and by the
// harness to share one HTM device between an engine and a workload).
func (e *Engine) HTM() *htm.Engine { return e.hw }

// AdvanceClock moves the engine's timestamp source past ts. After recovery,
// call it with the recovery report's MaxTimestamp so that new transactions'
// timestamps order after every timestamp in the recovered logs.
func (e *Engine) AdvanceClock(ts uint64) { e.hw.AdvanceTimestamp(ts) }

// Register implements ptm.Engine: it creates a worker thread handle, carving
// (or reusing) a persistent undo log and recording it in the log directory so
// the recovery observer can find it after a crash.
func (e *Engine) Register() ptm.Thread {
	t, err := e.RegisterThread()
	if err != nil {
		panic(err)
	}
	return t
}

// RegisterThread is Register with an error return, for callers that want to
// handle log-directory exhaustion gracefully.
func (e *Engine) RegisterThread() (*Thread, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("core: engine is closed")
	}
	slot := len(e.threads)
	if slot >= e.cfg.MaxThreads {
		return nil, fmt.Errorf("core: log directory full (%d threads)", e.cfg.MaxThreads)
	}

	dirWord := e.layout.DirectoryBase + nvm.Addr(slot)
	var log *undoLog
	// The thread's persist handle must be the hardware thread's flusher so
	// that hardware transaction commits fence the flushes this thread issues
	// between transactions (Crafty's fast path never drains explicitly).
	hwThread := e.hw.NewThread(int64(slot))
	flusher := hwThread.Flusher()
	if existing := e.heap.Load(dirWord); existing != 0 {
		// Reuse the log region a previous incarnation of this slot carved.
		// Stale entries must not be mistaken for fresh ones, so the region
		// must be zero. Recover leaves every log zero and durable, so after
		// a crash this only reads; a log an engine left behind without a
		// crash is zeroed here.
		base := nvm.Addr(existing)
		if zeroLines(e.heap, flusher, base, e.cfg.LogEntries*entryWords) {
			flusher.Drain()
		}
		log = openUndoLog(e.heap, base, e.cfg.LogEntries)
	} else {
		var err error
		log, err = newUndoLog(e.heap, e.cfg.LogEntries)
		if err != nil {
			return nil, err
		}
		e.heap.Store(dirWord, uint64(log.base))
		flusher.FlushRange(dirWord, 1)
		flusher.Drain()
	}

	t := &Thread{
		eng:     e,
		slot:    slot,
		hw:      hwThread,
		log:     log,
		flusher: flusher,
		txAlloc: alloc.NewTxLog(e.arena, flusher),
		ro:      ptm.ROTx{Heap: e.heap},
	}
	e.threads = append(e.threads, t)
	return t, nil
}

// Stats implements ptm.Engine, aggregating across all registered threads.
func (e *Engine) Stats() ptm.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var agg ptm.Stats
	for _, t := range e.threads {
		agg.Add(t.Stats())
	}
	return agg
}

// Arena returns the engine's persistent allocation arena, or nil if none was
// configured.
func (e *Engine) Arena() *alloc.Arena { return e.arena }

// MaxThreads returns how many worker threads the engine can register (the
// size of its persistent log directory). Callers that provision thread pools
// up front (cmd/craftykv) validate against it instead of discovering
// exhaustion at the first failing Register.
func (e *Engine) MaxThreads() int { return e.cfg.MaxThreads }

// TxWriteBudget implements ptm.WriteBudgeter: the number of persistent writes
// a single transaction can perform while provably staying on the HTM fast
// path and within its circular undo log.
//
// Two resources bound it. The Log phase's hardware transaction dirties, worst
// case, one cache line per data write plus the (consecutive) undo log words —
// two per write plus a two-word marker — so K writes cost at most
// K + (2K+9)/8 write lines, which must leave slack under the HTM write
// capacity. And the chunked SGL fallback refuses transactions whose undo
// entries could exceed half the circular log even at chunk size one (two
// entries per write; see chunkedExecute), so the budget also stays under a
// quarter of Config.LogEntries. Batching layers (kv.Store.Apply) split their
// groups at this budget, which keeps every group's commit a single Log-phase
// HTM transaction and keeps the Section 5.2 log-reuse machinery able to wrap
// between — never inside — groups.
func (e *Engine) TxWriteBudget() int {
	maxLines := e.hw.Config().MaxWriteLines
	htmBudget := (8*maxLines - 17) / 10
	logBudget := e.cfg.LogEntries/4 - 2
	budget := htmBudget
	if logBudget < budget {
		budget = logBudget
	}
	if budget < 1 {
		budget = 1
	}
	return budget
}

// Close implements ptm.Engine.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

// threadsSnapshot returns the registered threads (for the Section 5.2 bound
// maintenance, which inspects other threads' last committed timestamps).
func (e *Engine) threadsSnapshot() []*Thread {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Thread, len(e.threads))
	copy(out, e.threads)
	return out
}
