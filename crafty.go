// Package crafty is the public API of this repository: a from-scratch Go
// implementation of Crafty (Genç, Bond, Xu — PLDI 2020), a persistent
// transaction design that uses commodity hardware transactional memory both
// for concurrency control and — through nondestructive undo logging — to
// control persist ordering, together with the emulated persistent-memory and
// HTM substrates it runs on.
//
// The typical flow is:
//
//	heap := crafty.NewHeap(crafty.HeapConfig{Words: 1 << 22, TrackPersistence: true})
//	eng, _ := crafty.New(heap, crafty.Config{})
//	layout := eng.Layout()
//	th := eng.Register()
//	root := heap.MustCarve(8)
//	_ = th.Atomic(func(tx crafty.Tx) error {
//	    tx.Store(root, tx.Load(root)+1)
//	    return nil
//	})
//
//	// Read-only bodies should use AtomicRead: a single hardware
//	// transaction with no logging, no persist barriers, and no
//	// allocations (mutations fail with ErrReadOnlyTx).
//	var v uint64
//	_ = th.AtomicRead(func(tx crafty.Tx) error {
//	    v = tx.Load(root)
//	    return nil
//	})
//
//	// ... after a crash (heap.Crash in the emulation):
//	report, _ := crafty.Recover(heap, layout)
//	eng, _ = crafty.Reopen(heap, layout, crafty.Config{})
//	eng.AdvanceClock(report.MaxTimestamp)
//
// Transaction bodies must be written so that they can be re-executed: the
// engine may run a body several times (Crafty's Log and Validate phases), so
// bodies must compute any volatile inputs (random numbers, timestamps) before
// calling Atomic and must perform all persistent accesses through the Tx.
//
// The baselines the paper compares against (NV-HTM, DudeTM, a non-durable
// HTM-only engine, and classic undo/redo logging) live in internal packages
// and are exercised through the benchmark harness (cmd/craftybench); the
// examples directory shows complete programs built on this API.
package crafty

import (
	"crafty/internal/alloc"
	"crafty/internal/core"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Addr is the address of an 8-byte word in an emulated persistent heap.
type Addr = nvm.Addr

// NilAddr is the reserved null address.
const NilAddr = nvm.NilAddr

// WordsPerLine is the number of words per emulated cache line.
const WordsPerLine = nvm.WordsPerLine

// HeapConfig configures an emulated persistent heap.
type HeapConfig = nvm.Config

// Heap is an emulated persistent memory region; see package
// crafty/internal/nvm for the persistence and crash-injection model.
type Heap = nvm.Heap

// NoLatency disables the emulated NVM drain latency.
const NoLatency = nvm.NoLatency

// CrashPolicy decides which outstanding writes survive an injected crash.
type CrashPolicy = nvm.CrashPolicy

// Crash policies for tests and demonstrations.
type (
	// PersistAll persists every outstanding write at a crash.
	PersistAll = nvm.PersistAll
	// PersistNone persists no outstanding write at a crash.
	PersistNone = nvm.PersistNone
)

// NewRandomCrashPolicy persists each outstanding word independently with
// probability p.
func NewRandomCrashPolicy(seed int64, p float64) CrashPolicy {
	return nvm.NewRandomPolicy(seed, p)
}

// NewHeap creates an emulated persistent heap.
func NewHeap(cfg HeapConfig) *Heap { return nvm.NewHeap(cfg) }

// Tx is the handle a transaction body uses to access persistent memory.
type Tx = ptm.Tx

// Thread is one worker's handle onto an engine; each goroutine registers its
// own.
type Thread = ptm.Thread

// Stats aggregates persistent-transaction and hardware-transaction outcome
// counters.
type Stats = ptm.Stats

// RecoveryReport summarizes what a recovery pass did.
type RecoveryReport = ptm.RecoveryReport

// ErrAborted is wrapped by errors returned when a transaction body requests
// abandonment by returning an error.
var ErrAborted = ptm.ErrAborted

// ErrReadOnlyTx is returned by Thread.AtomicRead when the body attempted a
// mutation (Store, Alloc, or Free): read-only transactions run on a fast
// path with no undo logging, so mutating through one is refused outright.
var ErrReadOnlyTx = ptm.ErrReadOnlyTx

// ErrTxTooLarge is returned (wrapped) by Thread.Atomic when the body's write
// set exceeds what the engine can represent in one transaction; nothing is
// published and the thread remains usable. Size batches with TxWriteBudgetOf
// so it never fires in steady state.
var ErrTxTooLarge = ptm.ErrTxTooLarge

// TxWriteBudgetOf returns the engine's per-transaction write budget hint
// (how many persistent writes one Atomic body should perform at most), or
// fallback for engines that do not expose one. Batching layers — KV.Apply,
// the craftykv scheduler — split their groups at this budget.
func TxWriteBudgetOf(eng ptm.Engine, fallback int) int {
	return ptm.TxWriteBudgetOf(eng, fallback)
}

// Config configures a Crafty engine; the zero value provides full ACID
// (thread-safe) transactions with the paper's default parameters.
type Config = core.Config

// Modes of operation (Config.Mode).
const (
	// ThreadSafe provides both thread and failure atomicity (the default).
	ThreadSafe = core.ThreadSafe
	// ThreadUnsafe provides failure atomicity only; the caller supplies
	// thread atomicity (locks, single-threaded phases, ...).
	ThreadUnsafe = core.ThreadUnsafe
)

// Engine is a Crafty persistent transaction engine.
type Engine = core.Engine

// EngineMetrics is the engine's off-path metrics block (Engine.Metrics):
// SGL entries/reads and dwell times, log wraps, undo-log half swaps, and
// forced empty transactions. Counters are stamped strictly outside
// transaction bodies — see DESIGN.md §11 — and survive engine replacement
// across crash recovery via Engine.AdoptMetrics.
type EngineMetrics = core.Metrics

// Layout records where an engine's persistent metadata lives on its heap;
// keep it with the heap so the logs can be found again after a crash.
type Layout = core.Layout

// Arena is the engine's persistent allocation arena (Engine.Arena), backing
// Tx.Alloc/Tx.Free — the only way to allocate or free: the Arena itself
// offers recovery (Recover, AssertLive), quiesced maintenance (Coalesce) and
// occupancy (Stats), nothing else. Every block carries a persistent header,
// so the arena's free lists and size map survive crashes: Reopen scavenges
// them back from the headers, and ReopenKV additionally reconciles them
// against the store's verified index so that nothing — not even blocks that
// were free at the power failure — is ever leaked across recovery.
type Arena = alloc.Arena

// ArenaStats is a snapshot of allocator occupancy (Arena.Stats): live and
// free words always sum to the arena's high-water mark.
type ArenaStats = alloc.Stats

// ArenaBlock names one allocated block (base address and size in words), as
// consumed by Arena.Recover's reconciling form.
type ArenaBlock = alloc.Block

// ArenaRecoverReport summarizes an allocator recovery pass (Arena.Recover).
type ArenaRecoverReport = alloc.RecoverReport

// New creates a Crafty engine on a fresh heap.
func New(heap *Heap, cfg Config) (*Engine, error) { return core.NewEngine(heap, cfg) }

// Reopen attaches an engine to a heap laid out by a previous New call (after
// a crash and recovery). If the engine was configured with an allocation
// arena, its allocator state — free lists, block sizes, the bump frontier —
// is recovered from the arena's persistent block headers, so Tx.Alloc keeps
// reusing the space freed before the crash.
//
// The header scan alone recovers the allocator state as of the crash, which
// can disagree with the post-rollback transaction history: recovery may roll
// back a recently committed transaction whose Tx.Free already persisted its
// header flip, leaving a still-reachable block on the free lists. Callers
// whose persistent data structures reference arena blocks should therefore
// reconcile after Reopen by passing their reachable-block set to
// Engine.Arena().Recover — ReopenKV does exactly this from its verified
// index. See DESIGN.md §7 and §8.
func Reopen(heap *Heap, layout Layout, cfg Config) (*Engine, error) {
	return core.Open(heap, layout, cfg)
}

// Recover restores the heap to a crash-consistent state by rolling back, per
// the paper's Section 5, every fully persisted undo log sequence that might
// correspond to partially persisted writes. Run it before Reopen.
func Recover(heap *Heap, layout Layout) (RecoveryReport, error) {
	return core.Recover(heap, layout)
}
