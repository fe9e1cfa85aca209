// Package nvm emulates byte-addressable non-volatile memory (NVM) in DRAM.
//
// The emulation follows the methodology of the NV-HTM artifact that the
// Crafty paper builds on: persistent memory lives in ordinary volatile memory
// and each drain operation (SFENCE following one or more CLWB cache-line
// write-backs) busy-waits for a configurable round-trip latency (300 ns by
// default, 100 ns for the sensitivity study).
//
// On top of that timing model, this package optionally tracks *which* words
// have actually reached the persistence domain, so that crashes can be
// injected and a recovery observer can inspect the surviving "media" image.
// The tracked model keeps one bit per word, packed into one mask per cache
// line, as the hardware it emulates writes back lines:
//
//   - clear: the media image equals the visible (cached) value.
//   - set:   the word was stored and is not known to be in media, whether or
//     not a flush of its line is outstanding; on a crash it may or may not
//     have been evicted or written back.
//
// A Flush followed by a Drain or Fence on the same Flusher guarantees that
// every word of the line that was set at the flush is in media (persisted);
// which words those were is the Flusher's knowledge, not the heap's, so a
// flushed-but-unfenced word needs no state of its own: a crash treats it
// like any other set word. Everything else is up to the CrashPolicy,
// which lets tests act as an adversarial recovery observer, including tearing
// multi-word log entries (persistence is guaranteed only at word
// granularity, exactly as the paper assumes in Section 5.2).
//
// Addresses are word indices: the heap is an array of 8-byte words, and a
// cache line holds WordsPerLine consecutive words. All persistent stores in
// this repository are 8-byte aligned, mirroring the Crafty implementation.
package nvm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Addr is the address of an 8-byte word in a Heap. Address arithmetic is in
// words, not bytes.
type Addr uint64

// NilAddr is the reserved "null" address. Word 0 of every heap is reserved so
// that NilAddr never names usable storage.
const NilAddr Addr = 0

// WordsPerLine is the number of 8-byte words per emulated cache line (64-byte
// lines, as on the x86 machines the paper evaluates on).
const WordsPerLine = 8

// LineOf returns the cache-line index containing addr.
func LineOf(addr Addr) uint64 { return uint64(addr) / WordsPerLine }

// wordBit returns addr's bit in its cache line's dirty mask.
func wordBit(addr Addr) uint32 { return 1 << (addr % WordsPerLine) }

// LineBase returns the first word address of the cache line containing addr.
func LineBase(addr Addr) Addr { return Addr(LineOf(addr) * WordsPerLine) }

// DefaultPersistLatency is the emulated NVM round-trip latency charged at
// each drain, matching the paper's main configuration.
const DefaultPersistLatency = 300 * time.Nanosecond

// Config configures an emulated persistent heap.
type Config struct {
	// Words is the heap size in 8-byte words. It must be at least
	// 2*WordsPerLine; word 0 is reserved as NilAddr.
	Words int

	// PersistLatency is the busy-wait charged by Drain. Zero means
	// DefaultPersistLatency; use NoLatency to disable the charge entirely
	// (useful in unit tests).
	PersistLatency time.Duration

	// TrackPersistence enables the media image and the per-line dirty masks
	// needed for crash injection and recovery testing. It adds
	// bookkeeping overhead, so throughput experiments leave it off.
	TrackPersistence bool
}

// NoLatency disables the drain busy-wait when used as Config.PersistLatency.
const NoLatency = time.Duration(-1)

// numPersistShards is the number of locks media updates are sharded over
// (indexed by cache line). Power of two.
const numPersistShards = 64

// Heap is an emulated persistent memory region.
//
// The visible image is what running threads observe (the union of CPU caches
// and the NVM media); the media image is what survives a crash. Load and
// Store act on the visible image and are safe for concurrent use. Flush,
// Drain and Fence are issued through per-thread Flusher handles.
type Heap struct {
	cfg     Config
	latency time.Duration

	visible []atomic.Uint64

	// Persistence tracking (only when cfg.TrackPersistence). dirty holds one
	// mask per cache line: bit k set means word k of the line is not known to
	// be in media. Store sets a bit lock-free, after the visible word is in
	// place; a fence clears the bits its flush saw and copies those words to
	// media, serialized per cache line through persistShards (see
	// completeLine). crashMu serializes whole-image operations — Crash,
	// MediaSnapshot — against each other.
	crashMu       sync.Mutex
	persistShards [numPersistShards]sync.Mutex
	media         []atomic.Uint64
	dirty         []atomic.Uint32

	// Region carving.
	carveMu   sync.Mutex
	nextCarve Addr

	// Statistics.
	flushes atomic.Uint64
	drains  atomic.Uint64
	fences  atomic.Uint64
	crashes atomic.Uint64
}

// NewHeap creates an emulated persistent heap. It panics if cfg.Words is too
// small, since a misconfigured heap is a programming error rather than a
// runtime condition.
func NewHeap(cfg Config) *Heap {
	if cfg.Words < 2*WordsPerLine {
		panic(fmt.Sprintf("nvm: heap of %d words is too small (minimum %d)", cfg.Words, 2*WordsPerLine))
	}
	latency := cfg.PersistLatency
	switch {
	case latency == NoLatency:
		latency = 0
	case latency == 0:
		latency = DefaultPersistLatency
	}
	h := &Heap{
		cfg:       cfg,
		latency:   latency,
		visible:   make([]atomic.Uint64, cfg.Words),
		nextCarve: WordsPerLine, // skip line 0 so NilAddr is never handed out
	}
	if cfg.TrackPersistence {
		h.media = make([]atomic.Uint64, cfg.Words)
		h.dirty = make([]atomic.Uint32, (cfg.Words+WordsPerLine-1)/WordsPerLine)
	}
	return h
}

// Words returns the heap size in words.
func (h *Heap) Words() int { return len(h.visible) }

// PersistLatency returns the emulated drain latency in effect.
func (h *Heap) PersistLatency() time.Duration { return h.latency }

// Tracking reports whether persistence tracking (and therefore crash
// injection) is enabled.
func (h *Heap) Tracking() bool { return h.cfg.TrackPersistence }

// Check panics on out-of-range or nil addresses; all callers in this module
// compute addresses from carved regions, so a bad address is a bug. It is
// exported for htm.Tx.Store, which checks a word as it buffers it so that
// StoreLine, at commit, has nothing left to refuse. The panic value formats
// itself only when printed: a fmt call here would put Check — and with it
// Load, which runs ≈ 23 times per GET — over the inliner's budget.
func (h *Heap) Check(addr Addr) {
	if addr == NilAddr || int(addr) >= len(h.visible) {
		panic(addrError{addr, len(h.visible)})
	}
}

// addrError is the panic value of a failed Check.
type addrError struct {
	addr  Addr
	words int
}

func (e addrError) Error() string {
	return fmt.Sprintf("nvm: address %d out of range [1, %d)", e.addr, e.words)
}

// Load returns the visible value of the word at addr.
func (h *Heap) Load(addr Addr) uint64 {
	h.Check(addr)
	return h.visible[addr].Load()
}

// Store sets the visible value of the word at addr. The new value does not
// reach the media image until the word is flushed and fenced, evicted by a
// crash policy, or the line is persisted by Persist.
func (h *Heap) Store(addr Addr, val uint64) {
	h.Check(addr)
	h.visible[addr].Store(val)
	if h.cfg.TrackPersistence {
		// Order matters: the visible value must be in place before the word
		// is marked, so a concurrent fence completing an older flush of this
		// line either cleared the mark before it was set (and the word stays
		// marked, unpersisted as far as anyone may assume) or clears it and
		// then reads the new value into media.
		h.mark(LineOf(addr), wordBit(addr))
	}
}

// mark records that the words of line named by mask are not known to be in
// media. No caller can name word 0 or a word past the heap's end (Check
// rejects both), so those bits are never set and nothing below completes or
// resurrects them.
func (h *Heap) mark(line uint64, mask uint32) {
	h.dirty[line].Or(mask)
}

// StoreLine stores vals[k] to word k of line for every bit k of mask, as a
// committing hardware transaction publishes one entry of its write set, and
// marks the words once, after the last of them is visible: the mark may trail
// the visible word by any amount (see Store). The lowest and the highest word
// named are checked before any is stored.
func (h *Heap) StoreLine(line uint64, mask uint8, vals *[WordsPerLine]uint64) {
	if mask == 0 {
		return
	}
	base := Addr(line * WordsPerLine)
	h.Check(base + Addr(bits.TrailingZeros8(mask)))
	h.Check(base + Addr(bits.Len8(mask)-1))
	for m := mask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros8(m)
		h.visible[base+Addr(k)].Store(vals[k])
	}
	if h.cfg.TrackPersistence {
		h.mark(line, uint32(mask))
	}
}

// CompareAndSwap atomically replaces the visible value at addr with new if it
// currently equals old, reporting whether the swap happened. It is used for
// non-transactional synchronization words such as the single global lock.
func (h *Heap) CompareAndSwap(addr Addr, old, new uint64) bool {
	h.Check(addr)
	ok := h.visible[addr].CompareAndSwap(old, new)
	if ok && h.cfg.TrackPersistence {
		h.mark(LineOf(addr), wordBit(addr))
	}
	return ok
}

// Carve reserves a contiguous, cache-line-aligned region of the heap and
// returns its base address. Carving is how the engines lay out their
// persistent roots, logs, and allocator arenas; it is not transactional and
// is expected to happen during initialization.
func (h *Heap) Carve(words int) (Addr, error) {
	if words <= 0 {
		return NilAddr, fmt.Errorf("nvm: cannot carve %d words", words)
	}
	h.carveMu.Lock()
	defer h.carveMu.Unlock()
	base := h.nextCarve
	// Round the region up to a whole number of cache lines so that separately
	// carved regions never share a line (avoids false conflicts between
	// unrelated engine metadata).
	lines := (words + WordsPerLine - 1) / WordsPerLine
	end := base + Addr(lines*WordsPerLine)
	if int(end) > len(h.visible) {
		return NilAddr, fmt.Errorf("nvm: heap exhausted: want %d words, %d remain", words, len(h.visible)-int(base))
	}
	h.nextCarve = end
	return base, nil
}

// MustCarve is like Carve but panics on failure. It is intended for
// initialization code and tests where exhaustion indicates a configuration
// bug.
func (h *Heap) MustCarve(words int) Addr {
	base, err := h.Carve(words)
	if err != nil {
		panic(err)
	}
	return base
}

// CarvedWords reports how many words have been handed out by Carve, including
// the reserved first line.
func (h *Heap) CarvedWords() int {
	h.carveMu.Lock()
	defer h.carveMu.Unlock()
	return int(h.nextCarve)
}

// completeLine makes one flushed line durable: of the words that were marked
// when the line was flushed (mask), it clears those still marked and writes
// their current visible values to the media image, emulating the line's
// write-back completing at the fence — which absorbs stores issued after the
// flush, exactly as a real write-back carries whatever the line holds when it
// drains. A word of mask found already clear was persisted by another
// completer with a value at least as new as the flush-time one.
//
// The protocol is claim-then-write: the marks are cleared, in one atomic And,
// *before* the media words are written, so each visible read is ordered
// after every store whose mark preceded the clear. (Writing media first would
// be racy: a store between the visible read and the clear would leave the
// word unmarked with a stale media value.) A store landing between the claim
// and the media write re-marks the word, which is the conservative outcome.
//
// The sharded lock serializes completers per cache line: without it, a
// slower completer could write an older visible value into media after a
// faster one already claimed a newer store's mark. Store and Flush take no
// locks.
func (h *Heap) completeLine(line uint64, mask uint32) {
	sh := &h.persistShards[line&(numPersistShards-1)]
	sh.Lock()
	claimed := h.dirty[line].And(^mask) & mask
	base := line * WordsPerLine
	for ; claimed != 0; claimed &= claimed - 1 {
		w := base + uint64(bits.TrailingZeros32(claimed))
		h.media[w].Store(h.visible[w].Load())
	}
	sh.Unlock()
}

// drainWait charges the emulated NVM round-trip latency. Following the
// original artifact it busy-waits rather than sleeping, since the latencies
// involved (hundreds of nanoseconds) are far below scheduler granularity.
func (h *Heap) drainWait() {
	if h.latency <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < h.latency {
	}
}

// Stats is a snapshot of persist-operation counters.
type Stats struct {
	Flushes uint64 // CLWB-equivalent cache-line write-backs issued
	Drains  uint64 // SFENCE-equivalent drains (each charges PersistLatency)
	Fences  uint64 // fences with drain semantics but no latency charge (HTM commits)
	Crashes uint64 // injected crashes
}

// Stats returns a snapshot of the heap's persist-operation counters.
func (h *Heap) Stats() Stats {
	return Stats{
		Flushes: h.flushes.Load(),
		Drains:  h.drains.Load(),
		Fences:  h.fences.Load(),
		Crashes: h.crashes.Load(),
	}
}
