// Package alloc provides a transactional word-granularity allocator over a
// carved region of an emulated NVM heap.
//
// The Crafty paper (Section 6, "Memory management") requires that allocations
// performed while executing a transaction body be replayable: the Log and
// Validate phases execute the same code, so a malloc in the Log phase must
// return the same address when the Validate phase re-executes it, and frees
// must be deferred until the transaction has committed. The TxLog type
// implements exactly that protocol and is the only way to allocate or free:
// every engine's Tx.Alloc and Tx.Free forward to its thread's TxLog (the
// non-Crafty engines use the same log simply to release allocations made by
// aborted attempts and to defer frees to commit time), and an Arena by itself
// offers only recovery (Recover, AssertLive), quiesced maintenance (Coalesce)
// and occupancy (Stats).
//
// The allocator is crash recoverable, in the style of persistent allocators
// from the NVM literature (Makalu's offline scavenging of reachable blocks):
// every block carries a one-word persistent header in a shadow table (size
// class, allocation state, and a magic tag), the bump frontier is persisted
// as a high-water mark, and Recover rebuilds the volatile free lists and
// size map by walking the headers — returning every gap between live blocks
// to the free lists instead of leaking it. When the caller knows the exact
// set of blocks reachable from its persistent roots (the kv store's verified
// index), Recover reconciles against it and recovery is exact: reachable
// blocks are live, everything else below the high-water mark is free, and
// nothing is leaked. See DESIGN.md, "Crash-recoverable allocator", for the
// header write-ordering argument.
package alloc

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"crafty/internal/nvm"
)

// Typed failures. NewArena returns ErrVersion (wrapped). The rest are panic
// values of TxLog.Alloc and TxLog.Free (ErrInvalidSize and ErrExhausted
// wrapped), since a transaction body has no error path for a mis-built or
// mis-sized experiment.
var (
	ErrVersion     = errors.New("alloc: unsupported arena version")
	ErrNoArena     = errors.New("alloc: Tx.Alloc/Tx.Free requires Config.ArenaWords > 0")
	ErrInvalidSize = errors.New("alloc: invalid allocation size")
	ErrExhausted   = errors.New("alloc: arena exhausted")
)

// Block identifies an allocated block: its base address and size in words.
type Block struct {
	Addr  nvm.Addr
	Words int
}

// Persistent metadata layout. An arena's region starts with one metadata
// cache line, then the shadow header table (one word per data line), then the
// data region blocks are carved from:
//
//	meta line:    [0] magic  [1] high-water mark (data lines)  [2] version
//	header table: word i describes the block whose base is data line i
//	data region:  cache-line-aligned blocks
//
// A header word packs a 32-bit magic tag (so stale or never-written words are
// recognizable), the block's size class in lines, and an allocated/free bit.
// Headers exist only at block bases; the words at interior lines are stale
// leftovers that the recovery walk never reads (it advances by size class).
const (
	arenaMagic   = 0x43524654414c4f43 // "CRFTALOC"
	arenaVersion = 1

	offArenaMagic     = 0
	offArenaHighWater = 1 // frontier, in data lines (monotone)
	offArenaVersion   = 2

	hdrMagicMask uint64 = 0xffffffff00000000
	hdrMagicBits uint64 = 0xa110c8ed00000000
	hdrAllocBit  uint64 = 1
)

// packHeader encodes a persistent block header word.
func packHeader(lines int, allocated bool) uint64 {
	h := hdrMagicBits | uint64(lines)<<1
	if allocated {
		h |= hdrAllocBit
	}
	return h
}

// unpackHeader decodes a header word; ok is false for words that do not carry
// the header magic (never written, or torn remains of something else).
func unpackHeader(w uint64) (lines int, allocated, ok bool) {
	if w&hdrMagicMask != hdrMagicBits {
		return 0, false, false
	}
	return int(w&^hdrMagicMask) >> 1, w&hdrAllocBit != 0, true
}

// Volatile block tags: the hot paths (size lookup on a transactional free and
// free-list validation) are O(1) reads of a per-line uint32 array rather than
// map operations, which keeps the allocator's overhead within budget on the
// transactional path. A tag exists exactly at each block's base line; all
// other entries are lsUnknown.
const (
	lsUnknown   = 0
	lsAllocBase = 1 // line is the base of a live block
	lsFreeBase  = 2 // line is the base of a free block

	lsStateShift = 30
	lsLinesMask  = (1 << lsStateShift) - 1

	// smallClassLines bounds the directly indexed free-stack array (512
	// words); classes above it use the spill map.
	smallClassLines = 64
)

func lsPack(state, lines int) uint32 { return uint32(state)<<lsStateShift | uint32(lines) }
func lsState(v uint32) int           { return int(v >> lsStateShift) }
func lsLines(v uint32) int           { return int(v & lsLinesMask) }

// Arena is a thread-safe allocator over a contiguous region of a heap.
// Blocks are cache-line aligned so that independently allocated objects never
// generate false transactional conflicts with each other.
//
// The block tags, free lists, and accounting are volatile and are rebuilt
// after a crash by Recover (NewArena runs it automatically when it finds
// arena metadata in the region); the persistent headers and high-water mark
// exist only to make that rebuild possible.
type Arena struct {
	heap  *nvm.Heap
	base  nvm.Addr
	words int

	// Persistent layout (computed once from base/words).
	metaBase   nvm.Addr
	headerBase nvm.Addr
	dataBase   nvm.Addr
	dataLines  int

	mu   sync.Mutex
	next nvm.Addr // bump frontier within the data region

	lineState []uint32 // volatile block tags, one per data line

	// Per-class stacks of free-block base addresses. Classes up to
	// smallClassLines lines index a flat array (no map operations on the
	// alloc/free hot path); larger classes — rehash tables, essentially —
	// spill into a map. A stack may contain stale entries (blocks since
	// coalesced or split away), which lookups validate against the block tags
	// and drop lazily.
	freeSmall [smallClassLines + 1][]nvm.Addr // indexed by class lines
	freeLarge map[int]*[]nvm.Addr             // keyed by class words

	liveBlocks, liveWords int
	freeBlocks, freeWords int

	noZero bool // skip the zero fill on allocation (see SetZeroFill)

	// tracking caches heap.Tracking(): on an untracked heap no crash can be
	// injected (nvm.Heap.Crash panics), so recovery never runs and the
	// metadata flushes would only burn cycles and pollute the flush counters
	// of throughput experiments. The metadata *stores* still happen, so a
	// same-process reattach (NewArena over a live region) recovers correctly.
	tracking bool

	// syncf persists the metadata the arena writes outside any transaction
	// (construction, Recover, Coalesce); guarded by mu.
	syncf *nvm.Flusher
}

// NewArena creates an allocator over the region [base, base+words) of heap,
// which the caller must have carved beforehand. If the region already holds
// arena metadata (the heap survived a crash and the engine is reattaching),
// the allocator's volatile state is recovered from the persistent block
// headers; otherwise fresh metadata is initialized and persisted. Metadata of
// another arena version fails with ErrVersion.
func NewArena(heap *nvm.Heap, base nvm.Addr, words int) (*Arena, error) {
	a := &Arena{
		heap:     heap,
		base:     base,
		words:    words,
		tracking: heap.Tracking(),
		syncf:    heap.NewFlusher(),
	}
	a.computeLayout()
	a.lineState = make([]uint32, a.dataLines)
	a.freeLarge = make(map[int]*[]nvm.Addr)
	a.next = a.dataBase
	if a.dataLines == 0 {
		return a, nil
	}
	if heap.Load(a.metaBase+offArenaMagic) == arenaMagic {
		if v := heap.Load(a.metaBase + offArenaVersion); v != arenaVersion {
			// A mismatch means the region was laid out by an incompatible
			// arena format; scavenging it under this version's assumptions
			// would rebuild a silently wrong free list.
			return nil, fmt.Errorf("%w: arena at %d has version %d, this build supports %d", ErrVersion, base, v, arenaVersion)
		}
		a.recoverFromHeaders()
		return a, nil
	}
	heap.Store(a.metaBase+offArenaVersion, arenaVersion)
	heap.Store(a.metaBase+offArenaHighWater, 0)
	heap.Store(a.metaBase+offArenaMagic, arenaMagic)
	a.syncf.FlushRange(a.metaBase, nvm.WordsPerLine)
	a.syncf.Drain()
	return a, nil
}

// computeLayout splits the region into metadata line, header table, and data
// region. dataLines is the largest D with 1 + ceil(D/8) + D total lines
// fitting the region.
func (a *Arena) computeLayout() {
	totalLines := a.words / nvm.WordsPerLine
	usable := totalLines - 1
	if usable < 0 {
		usable = 0
	}
	d := usable * nvm.WordsPerLine / (nvm.WordsPerLine + 1)
	for d > 0 && d+(d+nvm.WordsPerLine-1)/nvm.WordsPerLine > usable {
		d--
	}
	headerLines := (d + nvm.WordsPerLine - 1) / nvm.WordsPerLine
	a.metaBase = a.base
	a.headerBase = a.base + nvm.WordsPerLine
	a.dataBase = a.headerBase + nvm.Addr(headerLines*nvm.WordsPerLine)
	a.dataLines = d
}

func (a *Arena) resetVolatile() {
	clear(a.lineState)
	for i := range a.freeSmall {
		a.freeSmall[i] = a.freeSmall[i][:0]
	}
	clear(a.freeLarge)
	a.liveBlocks, a.liveWords = 0, 0
	a.freeBlocks, a.freeWords = 0, 0
}

// NewArenaCarved carves words from the heap and returns an allocator over the
// new region.
func NewArenaCarved(heap *nvm.Heap, words int) (*Arena, error) {
	base, err := heap.Carve(words)
	if err != nil {
		return nil, err
	}
	return NewArena(heap, base, words)
}

// sizeClass rounds a request up to whole cache lines.
func sizeClass(words int) int {
	lines := (words + nvm.WordsPerLine - 1) / nvm.WordsPerLine
	if lines == 0 {
		lines = 1
	}
	return lines * nvm.WordsPerLine
}

// SizeClass reports the size class (in words) a request of the given number
// of words allocates; callers reconstructing the live set after a crash need
// it to name block extents exactly.
func SizeClass(words int) int { return sizeClass(words) }

func (a *Arena) lineOf(addr nvm.Addr) int { return int(addr-a.dataBase) / nvm.WordsPerLine }

func (a *Arena) lineAddr(line int) nvm.Addr {
	return a.dataBase + nvm.Addr(line*nvm.WordsPerLine)
}

// headerAddr returns the shadow-table word describing the block based at
// addr.
func (a *Arena) headerAddr(addr nvm.Addr) nvm.Addr {
	return a.headerBase + nvm.Addr(a.lineOf(addr))
}

// writeHeader publishes a persistent block header and flushes it through f.
// The write is a single word, so a crash leaves either the old header or the
// new one, never a torn mix; the flush is fenced by the caller's next drain
// or hardware-transaction commit (see DESIGN.md, "Crash-recoverable
// allocator").
func (a *Arena) writeHeader(f *nvm.Flusher, addr nvm.Addr, classWords int, allocated bool) {
	ha := a.headerAddr(addr)
	a.heap.Store(ha, packHeader(classWords/nvm.WordsPerLine, allocated))
	if a.tracking {
		f.Flush(ha)
	}
}

// rewriteHeader is writeHeader on the recovery flusher for a header that
// most often already holds the value: it stores only a header that differs,
// and flushes either way, since a header that holds the value may not have
// reached media yet.
func (a *Arena) rewriteHeader(addr nvm.Addr, classWords int, allocated bool) {
	ha := a.headerAddr(addr)
	if h := packHeader(classWords/nvm.WordsPerLine, allocated); a.heap.Load(ha) != h {
		a.heap.Store(ha, h)
	}
	if a.tracking {
		a.syncf.Flush(ha)
	}
}

// persistHighWater publishes the bump frontier. It is flushed on the same
// flusher as the headers it covers, so a durably committed allocation's
// high-water mark is durable too (the allocating thread fences both before
// its commit marker can persist).
func (a *Arena) persistHighWater(f *nvm.Flusher) {
	a.heap.Store(a.metaBase+offArenaHighWater, uint64((a.next-a.dataBase)/nvm.WordsPerLine))
	if a.tracking {
		f.Flush(a.metaBase + offArenaHighWater)
	}
}

// persistedHighWater reads the high-water mark back, in data lines, clamped to
// the data region. The word is bytes recovery did not just write, so the
// compare is unsigned: as an int, a word with the top bit set is negative,
// passes a signed clamp, and puts the frontier below blocks that are live.
func (a *Arena) persistedHighWater() int {
	hw := a.heap.Load(a.metaBase + offArenaHighWater)
	if hw > uint64(a.dataLines) {
		return a.dataLines
	}
	return int(hw)
}

// markAlloc tags a block live and accounts it. The covering free extents
// must already have been removed.
func (a *Arena) markAlloc(addr nvm.Addr, class int) {
	a.lineState[a.lineOf(addr)] = lsPack(lsAllocBase, class/nvm.WordsPerLine)
	a.liveBlocks++
	a.liveWords += class
}

// unmarkAlloc clears a live block's tag and accounting.
func (a *Arena) unmarkAlloc(addr nvm.Addr, class int) {
	a.lineState[a.lineOf(addr)] = lsUnknown
	a.liveBlocks--
	a.liveWords -= class
}

// stackFor returns the free stack for a class, creating the spill-map entry
// on demand when create is set (only large classes ever allocate here).
func (a *Arena) stackFor(class int, create bool) *[]nvm.Addr {
	if lines := class / nvm.WordsPerLine; lines <= smallClassLines {
		return &a.freeSmall[lines]
	}
	st, ok := a.freeLarge[class]
	if !ok {
		if !create {
			return nil
		}
		st = new([]nvm.Addr)
		a.freeLarge[class] = st
	}
	return st
}

// addFree registers a free block: tag, class stack, accounting.
func (a *Arena) addFree(addr nvm.Addr, class int) {
	a.lineState[a.lineOf(addr)] = lsPack(lsFreeBase, class/nvm.WordsPerLine)
	st := a.stackFor(class, true)
	*st = append(*st, addr)
	a.freeBlocks++
	a.freeWords += class
}

// removeFree unregisters a free block; its class-stack entry is left stale
// and dropped lazily by takeFree.
func (a *Arena) removeFree(addr nvm.Addr, class int) {
	a.lineState[a.lineOf(addr)] = lsUnknown
	a.freeBlocks--
	a.freeWords -= class
}

// takeFree pops a valid free block of exactly class words, skipping and
// discarding stale stack entries.
func (a *Arena) takeFree(class int) (nvm.Addr, bool) {
	st := a.stackFor(class, false)
	if st == nil {
		return nvm.NilAddr, false
	}
	stack := *st
	want := lsPack(lsFreeBase, class/nvm.WordsPerLine)
	for n := len(stack); n > 0; n = len(stack) {
		addr := stack[n-1]
		stack = stack[:n-1]
		if a.lineState[a.lineOf(addr)] == want {
			*st = stack
			a.removeFree(addr, class)
			return addr, true
		}
	}
	*st = stack
	return nvm.NilAddr, false
}

// splitFree serves a class-sized request from a larger free block, returning
// the remainder to the free lists. Among the small classes it takes the
// smallest block at least two lines larger than class, and one exactly a line
// larger only when there is none: a one-line remainder serves only one-line
// requests, and under mixed-size churn (the kv store's size-changing updates)
// such holes pile up faster than they are reused. Only then does it split the
// smallest large block, so a freed rehash table stays whole for the next
// table of its size. The remainder's boundary header is written before the
// caller shrinks the base block's header, so every crash-time header chain
// describes either the old block or the split one.
func (a *Arena) splitFree(class int, f *nvm.Flusher) (nvm.Addr, bool) {
	for {
		best := 0
		lines := class / nvm.WordsPerLine
		for l := lines + 2; l <= smallClassLines; l++ {
			if len(a.freeSmall[l]) > 0 {
				best = l * nvm.WordsPerLine
				break
			}
		}
		if best == 0 && lines+1 <= smallClassLines && len(a.freeSmall[lines+1]) > 0 {
			best = (lines + 1) * nvm.WordsPerLine
		}
		if best == 0 {
			for c, st := range a.freeLarge {
				if c > class && len(*st) > 0 && (best == 0 || c < best) {
					best = c
				}
			}
		}
		if best == 0 {
			return nvm.NilAddr, false
		}
		addr, ok := a.takeFree(best)
		if !ok {
			continue // the stack held only stale entries; it is empty now
		}
		remBase := addr + nvm.Addr(class)
		rem := best - class
		a.writeHeader(f, remBase, rem, false)
		a.addFree(remBase, rem)
		return addr, true
	}
}

// Storer is the transactional write handle the TxLog routes block-header
// flips through: issuing the header word's alloc/free transition as a
// tx.Store makes the flip part of the owning transaction's undo log, so
// post-crash rollback of the transaction restores the header along with the
// data it guards. Engines' Tx types satisfy it.
type Storer interface {
	Store(addr nvm.Addr, val uint64)
}

// allocTx reserves a zeroed, cache-line-aligned block of at least words words
// for a transactional allocation — the one place blocks leave the free lists:
// an exact-class free block if there is one, else the smallest larger free
// block split, else the bump frontier. It does not write the block's base
// header: the caller issues the header flip through its transaction (see
// Storer), so the flip rolls back if the transaction does. Split remainders'
// headers and the high-water mark are written here, flushed through f, and
// stay non-transactional because a crash either commits the allocating
// transaction (they were fenced by its commit) or rolls it back (the restored
// base header covers the donor whole again). Returns the block base, its size
// class in words, the header word the caller must Store, and whether the block
// was carved from the bump frontier. A frontier block holds no word any
// rollback could restore: the frontier only ever moves up (recovery sets it
// to at least the persisted high-water mark), so no durable state and no undo
// entry has ever reached it (see DESIGN.md, "Log-free stores to frontier
// blocks"). A non-positive size panics with ErrInvalidSize and a full arena
// with ErrExhausted: inside a transaction body either indicates a mis-sized
// experiment.
func (a *Arena) allocTx(words int, f *nvm.Flusher) (addr nvm.Addr, class int, hdrAddr nvm.Addr, hdrWord uint64, fresh bool) {
	if words <= 0 {
		panic(fmt.Errorf("%w %d", ErrInvalidSize, words))
	}
	class = sizeClass(words)

	a.mu.Lock()
	addr, ok := a.takeFree(class)
	if !ok {
		addr, ok = a.splitFree(class, f)
	}
	if !ok {
		if int(a.next-a.dataBase)+class > a.dataLines*nvm.WordsPerLine {
			used := int(a.next - a.dataBase)
			a.mu.Unlock()
			panic(fmt.Errorf("%w (%d of %d words used, need %d)", ErrExhausted, used, a.dataLines*nvm.WordsPerLine, class))
		}
		addr = a.next
		a.next += nvm.Addr(class)
		a.persistHighWater(f)
		fresh = true
	}
	a.markAlloc(addr, class)
	a.mu.Unlock()
	a.zero(addr, class)
	return addr, class, a.headerAddr(addr), packHeader(class/nvm.WordsPerLine, true), fresh
}

// freeHeaderFor returns the header word's address and free-state value for a
// live block at addr, for a transactional free flip; the block stays
// allocated until releaseTxFreed is called at commit.
func (a *Arena) freeHeaderFor(addr nvm.Addr) (class int, hdrAddr nvm.Addr, hdrWord uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.lineOf(addr)
	if l < 0 || l >= a.dataLines || lsState(a.lineState[l]) != lsAllocBase {
		panic(fmt.Sprintf("alloc: transactional free of unallocated address %d", addr))
	}
	lines := lsLines(a.lineState[l])
	return lines * nvm.WordsPerLine, a.headerAddr(addr), packHeader(lines, false)
}

// releaseTxFreed returns a transactionally freed block to the free lists at
// commit time. The header flip was already written (and undo-logged) by the
// freeing transaction's own Store, so this touches volatile state only — and
// deliberately does not coalesce: a merged header at a lower base would
// shadow this block's restored header if post-crash suffix rollback undoes
// the free (recovery rolls back every sequence at or after the oldest
// incomplete one, committed transactions included). Coalescing is deferred to
// Coalesce, which runs only when rollback can no longer reach these headers.
func (a *Arena) releaseTxFreed(addr nvm.Addr, class int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.unmarkAlloc(addr, class)
	a.addFree(addr, class)
}

// releaseTxAlloc releases a block reserved by allocTx whose transaction never
// committed. The transaction's header flip was discarded or rolled back with
// it, so the persistent header may still be anything the block's past left
// there — in particular a donor-sized free header from a split, which would
// cover the already-published remainder and shadow its future reuse. Rewrite
// it as an exact-class free header (non-transactionally: there is no
// transaction left to log it under, and a crash-time rollback that restores
// an older image of this word does so only while also rolling back every
// later transaction that could have observed this release).
func (a *Arena) releaseTxAlloc(addr nvm.Addr, f *nvm.Flusher) {
	a.mu.Lock()
	defer a.mu.Unlock()
	l := a.lineOf(addr)
	if l < 0 || l >= a.dataLines || lsState(a.lineState[l]) != lsAllocBase {
		panic(fmt.Sprintf("alloc: release of unallocated address %d", addr))
	}
	class := lsLines(a.lineState[l]) * nvm.WordsPerLine
	a.unmarkAlloc(addr, class)
	a.writeHeader(f, addr, class, false)
	a.addFree(addr, class)
}

// zero clears a block's visible contents. Zeroing happens outside any
// transaction: freshly allocated memory is private to the allocating
// transaction until it publishes an address reaching it.
func (a *Arena) zero(addr nvm.Addr, words int) {
	if a.noZero {
		return
	}
	for w := addr; w < addr+nvm.Addr(words); w++ {
		a.heap.Store(w, 0)
	}
}

// SetZeroFill controls whether allocation zero fills blocks (the default). A
// data structure that transactionally writes every word it later reads — the
// kv store does — can disable it: besides saving the fill, this is what makes
// block reuse recoverable, because the non-transactional zero fill would
// otherwise overwrite the pre-images that post-crash rollback of the reusing
// transaction must restore (see DESIGN.md, "Durable key-value store").
func (a *Arena) SetZeroFill(enabled bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.noZero = !enabled
}

// RecoverReport summarizes an allocator recovery pass.
type RecoverReport struct {
	LiveBlocks       int // blocks live after recovery
	LiveWords        int // their total size
	FreeBlocks       int // free blocks after recovery (post-coalescing)
	FreeWords        int // words returned to the free lists
	QuarantinedWords int // unparseable frontier tail kept allocated (header scan only)
	ForcedLive       int // reconciliation: reachable blocks the headers had lost
	Dropped          int // reconciliation: header-live blocks not reachable, freed
}

// Recover rebuilds the allocator's volatile state after a crash.
//
// With reachable == nil it scavenges the persistent block headers: the walk
// starts at the data base, advances block by block using each header's size
// class, marks headed-allocated blocks live, and coalesces every gap of free
// blocks onto the free lists, up to the persisted high-water mark. If the
// header chain becomes unparseable before the mark (a crash caught a
// frontier allocation with its header flush not yet fenced), the remaining
// tail is quarantined as one allocated block — conservative, never handed
// out, and repaired by the reconciling form.
//
// With reachable non-nil, the caller asserts it is the complete set of live
// blocks (each with its requested word count), as the kv store derives from
// its verified index. Recovery is then exact: reachable blocks become live
// (whatever their headers claimed — a rolled-back free's premature header,
// or a lost header at the frontier), every other word below the recovered
// frontier becomes free, headers are rewritten to match, and no word is
// leaked: LiveWords + FreeWords == UsedWords on return. Overlapping reachable
// blocks indicate corrupt caller metadata and fail.
func (a *Arena) Recover(reachable []Block) (RecoverReport, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.dataLines == 0 {
		return RecoverReport{}, fmt.Errorf("alloc: arena of %d words has no data region to recover", a.words)
	}
	if reachable == nil {
		rep := a.recoverFromHeaders()
		return rep, nil
	}
	return a.reconcile(reachable)
}

// recoverFromHeaders is the header-only scavenge; callers hold mu (or are the
// constructor).
func (a *Arena) recoverFromHeaders() RecoverReport {
	var rep RecoverReport
	hw := a.persistedHighWater()
	a.resetVolatile()
	a.next = a.dataBase + nvm.Addr(hw*nvm.WordsPerLine)

	line := 0
	freeRun := -1
	endFreeRun := func(endLine int) {
		if freeRun < 0 {
			return
		}
		addr := a.lineAddr(freeRun)
		cw := (endLine - freeRun) * nvm.WordsPerLine
		a.writeHeader(a.syncf, addr, cw, false)
		a.addFree(addr, cw)
		freeRun = -1
	}
	for line < hw {
		lines, allocated, ok := unpackHeader(a.heap.Load(a.headerBase + nvm.Addr(line)))
		if !ok || lines <= 0 || line+lines > hw {
			break
		}
		if allocated {
			endFreeRun(line)
			a.markAlloc(a.lineAddr(line), lines*nvm.WordsPerLine)
		} else if freeRun < 0 {
			freeRun = line
		}
		line += lines
	}
	endFreeRun(line)
	if line < hw {
		// Unparseable tail: quarantine it as one allocated block so nothing
		// in it is ever handed out. Reconciliation against a reachable set
		// releases it exactly.
		addr := a.lineAddr(line)
		cw := (hw - line) * nvm.WordsPerLine
		a.writeHeader(a.syncf, addr, cw, true)
		a.markAlloc(addr, cw)
		rep.QuarantinedWords = cw
	}
	a.syncf.Drain()
	rep.LiveBlocks = a.liveBlocks
	rep.LiveWords = a.liveWords
	rep.FreeBlocks = a.freeBlocks
	rep.FreeWords = a.freeWords
	return rep
}

// reconcile rebuilds the allocator exactly from the caller's reachable set;
// callers hold mu.
func (a *Arena) reconcile(reachable []Block) (RecoverReport, error) {
	var rep RecoverReport
	blocks := slices.Clone(reachable)
	slices.SortFunc(blocks, func(x, y Block) int { return cmp.Compare(x.Addr, y.Addr) })
	dataEnd := a.dataBase + nvm.Addr(a.dataLines*nvm.WordsPerLine)
	for i, b := range blocks {
		if b.Words <= 0 {
			return rep, fmt.Errorf("alloc: reachable block %d has invalid size %d", b.Addr, b.Words)
		}
		if b.Addr%nvm.WordsPerLine != 0 {
			return rep, fmt.Errorf("alloc: reachable block %d is not line aligned", b.Addr)
		}
		end := b.Addr + nvm.Addr(sizeClass(b.Words))
		if b.Addr < a.dataBase || end > dataEnd {
			return rep, fmt.Errorf("alloc: reachable block [%d,+%d) outside arena data region", b.Addr, sizeClass(b.Words))
		}
		if i > 0 {
			prev := blocks[i-1]
			if prev.Addr+nvm.Addr(sizeClass(prev.Words)) > b.Addr {
				return rep, fmt.Errorf("alloc: reachable blocks [%d,+%d) and [%d,+%d) overlap",
					prev.Addr, sizeClass(prev.Words), b.Addr, sizeClass(b.Words))
			}
		}
	}

	// Diff against the current (scavenged) view for the report.
	for _, b := range blocks {
		l := a.lineOf(b.Addr)
		if a.lineState[l] != lsPack(lsAllocBase, sizeClass(b.Words)/nvm.WordsPerLine) {
			rep.ForcedLive++
		}
	}
	// Both walks run in address order, so a header-live block is reachable
	// exactly when the block cursor stops on its address.
	i := 0
	for line := 0; a.lineAddr(line) < a.next; {
		v := a.lineState[line]
		if lsState(v) == lsUnknown || lsLines(v) <= 0 {
			break // quarantined or unparseable region: nothing to report past it
		}
		if lsState(v) == lsAllocBase {
			addr := a.lineAddr(line)
			for i < len(blocks) && blocks[i].Addr < addr {
				i++
			}
			if i == len(blocks) || blocks[i].Addr != addr {
				rep.Dropped++
			}
		}
		line += lsLines(v)
	}

	// The recovered frontier covers both the persisted high-water mark and
	// every reachable block (a frontier block can be reachable while the
	// crash lost its high-water flush only if its transaction never durably
	// committed, but covering both is free and unconditionally safe).
	next := a.dataBase + nvm.Addr(a.persistedHighWater()*nvm.WordsPerLine)
	if n := len(blocks); n > 0 {
		if end := blocks[n-1].Addr + nvm.Addr(sizeClass(blocks[n-1].Words)); end > next {
			next = end
		}
	}

	a.resetVolatile()
	a.next = next
	cursor := a.dataBase
	for _, b := range blocks {
		class := sizeClass(b.Words)
		if b.Addr > cursor {
			gap := int(b.Addr - cursor)
			a.rewriteHeader(cursor, gap, false)
			a.addFree(cursor, gap)
		}
		a.rewriteHeader(b.Addr, class, true)
		a.markAlloc(b.Addr, class)
		cursor = b.Addr + nvm.Addr(class)
	}
	if cursor < a.next {
		gap := int(a.next - cursor)
		a.rewriteHeader(cursor, gap, false)
		a.addFree(cursor, gap)
	}
	a.persistHighWater(a.syncf)
	a.syncf.Drain()

	rep.LiveBlocks = a.liveBlocks
	rep.LiveWords = a.liveWords
	rep.FreeBlocks = a.freeBlocks
	rep.FreeWords = a.freeWords
	if a.liveWords+a.freeWords != int(a.next-a.dataBase) {
		return rep, fmt.Errorf("alloc: reconciliation leaked words (live %d + free %d != used %d)",
			a.liveWords, a.freeWords, int(a.next-a.dataBase))
	}
	return rep, nil
}

// Coalesce merges every run of adjacent free blocks into one block, writing
// the merged headers (flush + drain). Transactional frees deliberately leave
// their blocks un-coalesced (see releaseTxFreed); callers run Coalesce only
// at a point where no committed transaction that touched these headers can
// still be rolled back — after a durability barrier has quiesced every
// thread's log (the craftykv checkpoint), or after crash recovery. Running it
// anywhere else risks a merged header shadowing a rolled-back free's restored
// header. Returns the number of merges performed.
func (a *Arena) Coalesce() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	merged := 0
	line := 0
	for a.lineAddr(line) < a.next {
		v := a.lineState[line]
		st, lines := lsState(v), lsLines(v)
		if (st != lsAllocBase && st != lsFreeBase) || lines <= 0 {
			break // quarantined or unparseable region: leave it alone
		}
		if st != lsFreeBase {
			line += lines
			continue
		}
		runBase, runLines := line, lines
		for {
			nl := runBase + runLines
			if a.lineAddr(nl) >= a.next {
				break
			}
			nv := a.lineState[nl]
			if lsState(nv) != lsFreeBase || lsLines(nv) <= 0 {
				break
			}
			a.removeFree(a.lineAddr(nl), lsLines(nv)*nvm.WordsPerLine)
			runLines += lsLines(nv)
			merged++
		}
		if runLines > lines {
			addr := a.lineAddr(runBase)
			a.removeFree(addr, lines*nvm.WordsPerLine)
			a.writeHeader(a.syncf, addr, runLines*nvm.WordsPerLine, false)
			a.addFree(addr, runLines*nvm.WordsPerLine)
		}
		line = runBase + runLines
	}
	a.syncf.Drain()
	return merged
}

// AssertLive verifies that every block in blocks is currently allocated with
// exactly the size class its word count implies — the verification form of
// reconciliation: the caller's reachable set is checked against the state the
// header scavenge rebuilt instead of overwriting it. Any mismatch (a lost
// block, a wrong class, a block swallowed by a quarantined frontier tail)
// returns an error naming the first offender, and the caller falls back to a
// full reconcile.
func (a *Arena) AssertLive(blocks []Block) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range blocks {
		class := sizeClass(b.Words)
		l := a.lineOf(b.Addr)
		if l < 0 || l >= a.dataLines || b.Addr%nvm.WordsPerLine != 0 {
			return fmt.Errorf("alloc: reachable block %d outside the arena data region", b.Addr)
		}
		if v := a.lineState[l]; v != lsPack(lsAllocBase, class/nvm.WordsPerLine) {
			return fmt.Errorf("alloc: reachable block [%d,+%d) not live after recovery (tag %#x)", b.Addr, class, v)
		}
	}
	return nil
}

// Stats is a snapshot of allocator occupancy.
type Stats struct {
	Live       int // allocated blocks
	LiveWords  int // their total size in words
	FreeBlocks int // blocks on the free lists
	FreeWords  int // reusable words on the free lists
	UsedWords  int // high-water mark (LiveWords + FreeWords)
	DataWords  int // allocatable capacity
}

// Stats returns a consistent snapshot of the arena's occupancy counters.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Live:       a.liveBlocks,
		LiveWords:  a.liveWords,
		FreeBlocks: a.freeBlocks,
		FreeWords:  a.freeWords,
		UsedWords:  int(a.next - a.dataBase),
		DataWords:  a.dataLines * nvm.WordsPerLine,
	}
}
