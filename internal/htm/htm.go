// Package htm emulates restricted (best-effort) hardware transactional
// memory in software, with the observable semantics of Intel TSX/RTM that the
// Crafty algorithms rely on:
//
//   - transactions buffer their writes and publish them atomically at commit;
//   - conflicts are detected at cache-line (64-byte) granularity, including
//     against strongly isolated non-transactional accesses;
//   - transactions can abort at any time, for any of the reasons the paper's
//     appendix breaks down: a conflict with another thread, exceeding the
//     bounded read/write capacity, an explicit program-requested abort, or a
//     spurious "zero" abort (interrupt, page fault, ...);
//   - committing a transaction has store-fence (SFENCE) semantics, completing
//     the committing thread's outstanding cache-line write-backs;
//   - there is no progress guarantee: callers must provide their own fallback
//     (Crafty and the baselines use single-global-lock elision).
//
// Internally the emulation is a TL2-style software transactional memory over
// the words of an nvm.Heap: a versioned lock per cache line plus a global
// version clock gives opaque (always-consistent) reads, so transaction bodies
// never observe torn state even when they are doomed to abort — matching the
// behaviour of real RTM, where a conflicting transaction is aborted before it
// can observe inconsistent data.
//
// The emulation is a documented substitution for real RTM hardware (see
// DESIGN.md): absolute costs differ, but which transactions conflict with
// which, and why transactions abort, is preserved.
package htm

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"crafty/internal/nvm"
)

// AbortCause classifies why a hardware transaction aborted, mirroring the
// categories reported in the paper's appendix figures.
type AbortCause uint8

// Abort causes. CauseNone means the transaction committed.
const (
	CauseNone     AbortCause = iota
	CauseConflict            // conflicting access by another thread
	CauseCapacity            // read or write set exceeded the hardware bound
	CauseExplicit            // the program requested the abort (XABORT)
	CauseZero                // spurious abort (interrupt, page fault, ...)
	numCauses
)

// NumCauses is the number of distinct abort causes, for sizing stat arrays.
const NumCauses = int(numCauses)

// String returns the cause name used in reports.
func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "commit"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	case CauseZero:
		return "zero"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// Config bounds and perturbs the emulated hardware.
type Config struct {
	// MaxReadLines bounds the number of distinct cache lines a transaction
	// may read before suffering a capacity abort. Real RTM tracks the read
	// set in the cache hierarchy, so the bound is large. Default 8192.
	MaxReadLines int

	// MaxWriteLines bounds the number of distinct cache lines a transaction
	// may write. Real RTM keeps the write set in the L1 data cache
	// (32 KiB = 512 lines). Default 512.
	MaxWriteLines int

	// SpuriousAbortProb is the probability that any given transaction
	// attempt suffers a "zero" abort, emulating interrupts and other
	// non-deterministic aborts. Default 0 (off); the harness enables a small
	// rate when reproducing the appendix breakdown figures.
	SpuriousAbortProb float64

	// MaxLockSpin bounds how many times a committer retries acquiring a
	// busy line lock before declaring a conflict. Default 64.
	MaxLockSpin int
}

func (c Config) withDefaults() Config {
	if c.MaxReadLines <= 0 {
		c.MaxReadLines = 8192
	}
	if c.MaxWriteLines <= 0 {
		c.MaxWriteLines = 512
	}
	if c.MaxLockSpin <= 0 {
		c.MaxLockSpin = 64
	}
	return c
}

// Engine is an emulated HTM device attached to one heap. All threads that
// touch the heap transactionally (or through the strongly isolated NonTx*
// helpers) must share one Engine, otherwise conflicts cannot be detected.
type Engine struct {
	heap *nvm.Heap
	cfg  Config

	// One versioned lock per cache line of the heap. Encoding: bit 0 is the
	// lock bit; the remaining bits are the line's version. Versions are
	// timestamps drawn from the global version clock below.
	locks []atomic.Uint64

	// globalVersion is the TL2 global version clock. It is advanced by every
	// writing commit and by every strongly isolated non-transactional write.
	globalVersion atomic.Uint64

	// activeCommitters counts transactions currently inside their commit
	// protocol (locks held, writes being published). QuiesceCommitters uses
	// it so that a thread acquiring the single global lock can wait out
	// committers that validated before the lock was taken; on real hardware
	// a transaction commit is instantaneous, so this window does not exist.
	activeCommitters atomic.Int64
}

// TimestampNow draws a fresh timestamp from the engine's global version
// clock, the same clock that stamps every committing transaction. Code
// running outside hardware transactions (the single-global-lock path, forced
// empty log entries) uses it so that its timestamps are ordered consistently
// with transactional commit timestamps.
func (e *Engine) TimestampNow() uint64 {
	return e.globalVersion.Add(1)
}

// AdvanceTimestamp moves the global version clock forward so that every
// subsequently drawn timestamp is strictly greater than ts. Recovery uses it
// so that timestamps issued after a restart order after every timestamp found
// in the surviving logs.
func (e *Engine) AdvanceTimestamp(ts uint64) {
	for {
		cur := e.globalVersion.Load()
		if cur >= ts || e.globalVersion.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// QuiesceCommitters blocks until no transaction is inside its commit
// protocol. Callers that have just performed a non-transactional write which
// logically must be ordered after all previously serialized transactions
// (acquiring the single global lock) call this to close the emulation's
// publication window; see the activeCommitters field.
func (e *Engine) QuiesceCommitters() {
	for e.activeCommitters.Load() != 0 {
		runtime.Gosched()
	}
}

// AcquireSGL takes the single global lock whose word lives at addr — the lock
// every elided transaction reads first and aborts on — and closes the
// emulation's publication window by waiting out any transaction that
// validated before the lock was taken. A waiter yields rather than spins: the
// holder may be descheduled, and with fewer processors than workers a bare
// spin burns a whole preemption slice before it can run.
func (e *Engine) AcquireSGL(addr nvm.Addr) {
	for !e.NonTxCAS(addr, 0, 1) {
		runtime.Gosched()
	}
	e.QuiesceCommitters()
}

// ReleaseSGL frees the lock AcquireSGL took. The store is strongly isolated,
// so transactions that read the held lock word observe the change.
func (e *Engine) ReleaseSGL(addr nvm.Addr) { e.NonTxStore(addr, 0) }

// AwaitSGL returns once the single global lock at addr is free, yielding the
// processor so the holder can run even when worker threads outnumber
// schedulable processors. The caller's next hardware transaction re-checks
// the word, so a race here only costs another retry.
func (e *Engine) AwaitSGL(addr nvm.Addr) {
	for e.NonTxLoad(addr) != 0 {
		runtime.Gosched()
	}
}

// NewEngine creates an emulated HTM engine over heap.
func NewEngine(heap *nvm.Heap, cfg Config) *Engine {
	lines := (heap.Words() + nvm.WordsPerLine - 1) / nvm.WordsPerLine
	return &Engine{
		heap:  heap,
		cfg:   cfg.withDefaults(),
		locks: make([]atomic.Uint64, lines),
	}
}

// Heap returns the heap this engine guards.
func (e *Engine) Heap() *nvm.Heap { return e.heap }

// Config returns the effective configuration (defaults applied).
func (e *Engine) Config() Config { return e.cfg }

const lockBit = uint64(1)

func versionOf(lockWord uint64) uint64 { return lockWord >> 1 }
func isLocked(lockWord uint64) bool    { return lockWord&lockBit != 0 }
func packVersion(v uint64) uint64      { return v << 1 }

// lineLock returns the lock word for the line containing addr.
func (e *Engine) lineLock(line uint64) *atomic.Uint64 { return &e.locks[line] }

// NonTxLoad reads a word outside any transaction with strong isolation: it
// never observes a value being published by an in-flight commit.
func (e *Engine) NonTxLoad(addr nvm.Addr) uint64 {
	line := nvm.LineOf(addr)
	lk := e.lineLock(line)
	for {
		before := lk.Load()
		if isLocked(before) {
			// The lock holder is mid-commit; let it run (it may be starved of
			// a processor when worker threads outnumber GOMAXPROCS).
			runtime.Gosched()
			continue
		}
		val := e.heap.Load(addr)
		if lk.Load() == before {
			return val
		}
	}
}

// NonTxStore writes a word outside any transaction with strong isolation:
// concurrent transactions that accessed the same cache line observe a
// conflict, exactly as a non-transactional store aborts a hardware
// transaction on real RTM.
func (e *Engine) NonTxStore(addr nvm.Addr, val uint64) {
	line := nvm.LineOf(addr)
	e.lockLine(line)
	e.heap.Store(addr, val)
	e.unlockLine(line)
}

// NonTxCAS performs a strongly isolated compare-and-swap on a word, reporting
// whether the swap happened. It is used to acquire the single global lock.
func (e *Engine) NonTxCAS(addr nvm.Addr, old, new uint64) bool {
	line := nvm.LineOf(addr)
	e.lockLine(line)
	cur := e.heap.Load(addr)
	ok := cur == old
	if ok {
		e.heap.Store(addr, new)
	}
	e.unlockLine(line)
	return ok
}

// lockLine spins until it owns the versioned lock of a line (non-transactional
// writers always win eventually).
func (e *Engine) lockLine(line uint64) {
	lk := e.lineLock(line)
	for {
		cur := lk.Load()
		if isLocked(cur) {
			runtime.Gosched()
			continue
		}
		if lk.CompareAndSwap(cur, cur|lockBit) {
			return
		}
	}
}

// unlockLine releases a line lock, stamping the line with a fresh version so
// that every concurrent transaction that touched it observes the change.
func (e *Engine) unlockLine(line uint64) {
	v := e.globalVersion.Add(1)
	e.lineLock(line).Store(packVersion(v))
}
