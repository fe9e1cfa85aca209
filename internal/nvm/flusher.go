package nvm

// Flusher issues flush (CLWB), drain (SFENCE + wait), and fence operations on
// behalf of one thread. The distinction matters for the persistence
// guarantee: a flush is only guaranteed to have completed once the *same*
// thread drains or executes an operation with fence semantics (such as
// committing a hardware transaction). Flushers are not safe for concurrent
// use; each worker thread owns one.
type Flusher struct {
	heap *Heap
	// pending holds one record per line flushed since the last drain/fence
	// that had a marked word at the time: the line index shifted left by
	// WordsPerLine, or'd with the line's dirty mask as of the flush. Only used
	// when persistence tracking is enabled. It is a reused slice rather than
	// a set: a line flushed twice before the fence appears twice, and
	// completing a word twice is harmless.
	pending []uint64
}

// NewFlusher returns a flush/drain handle for one thread.
func (h *Heap) NewFlusher() *Flusher {
	return &Flusher{heap: h}
}

// Flush issues a cache-line write-back (CLWB) for the line containing addr.
// The write-back is asynchronous: it is only guaranteed to have reached the
// media image after a subsequent Drain or Fence on this Flusher.
func (f *Flusher) Flush(addr Addr) {
	h := f.heap
	h.Check(addr)
	h.flushes.Add(1)
	if !h.cfg.TrackPersistence {
		return
	}
	// The words this Flusher's next fence must find in media are the ones
	// marked now. A word stored after this load is not the flush's to
	// complete (the fence may still absorb its value; see Heap.completeLine).
	line := LineOf(addr)
	if mask := h.dirty[line].Load(); mask != 0 {
		f.pending = append(f.pending, line<<WordsPerLine|uint64(mask))
	}
}

// FlushRange flushes every cache line overlapping [addr, addr+words).
func (f *Flusher) FlushRange(addr Addr, words int) {
	if words <= 0 {
		return
	}
	first := LineOf(addr)
	last := LineOf(addr + Addr(words) - 1)
	for line := first; line <= last; line++ {
		// Name each line by its base, but the first by addr itself: line 0's
		// base is NilAddr, which Flush rejects.
		f.Flush(max(addr, Addr(line*WordsPerLine)))
	}
}

// Drain waits for all flushes issued by this Flusher to complete, charging
// the emulated NVM round-trip latency (the paper's 300 ns busy wait).
func (f *Flusher) Drain() {
	h := f.heap
	h.drains.Add(1)
	h.drainWait()
	f.complete()
}

// Fence completes this Flusher's outstanding flushes with store-fence
// semantics but without charging the NVM round-trip latency. It models the
// SFENCE semantics of committing a hardware transaction, which Crafty relies
// on instead of issuing explicit drains on its fast path (Section 4.1).
func (f *Flusher) Fence() {
	f.heap.fences.Add(1)
	f.complete()
}

// Persist is the convenience composition flush-then-drain for a single range,
// as used by the classic undo/redo logging engines.
func (f *Flusher) Persist(addr Addr, words int) {
	f.FlushRange(addr, words)
	f.Drain()
}

// complete applies every pending flush to the media image; see
// Heap.completeLine for the claim-then-write protocol and its memory-ordering
// argument.
func (f *Flusher) complete() {
	for _, p := range f.pending {
		f.heap.completeLine(p>>WordsPerLine, uint32(p&(1<<WordsPerLine-1)))
	}
	f.pending = f.pending[:0]
}
