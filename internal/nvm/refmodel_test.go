package nvm

import (
	"sync"
	"sync/atomic"
)

// This file keeps the persistence model the per-line dirty mask replaced — one
// three-state atomic per word, one pending entry and one lock round trip per
// flushed word — as the reference TestDifferentialAgainstPerWordModel compares
// the shipped Heap against. It is the old code verbatim apart from the ref
// prefix; nothing outside the tests reaches it.

const (
	wordClean    uint32 = iota // media == visible
	wordDirty                  // stored, not flushed
	wordInFlight               // flushed, not yet fenced
)

type refHeap struct {
	visible []atomic.Uint64
	media   []atomic.Uint64
	state   []atomic.Uint32

	persistShards [numPersistShards]sync.Mutex
}

func newRefHeap(words int) *refHeap {
	return &refHeap{
		visible: make([]atomic.Uint64, words),
		media:   make([]atomic.Uint64, words),
		state:   make([]atomic.Uint32, words),
	}
}

func (h *refHeap) Store(addr Addr, val uint64) {
	h.visible[addr].Store(val)
	h.state[addr].Store(wordDirty)
}

func (h *refHeap) CompareAndSwap(addr Addr, old, new uint64) bool {
	ok := h.visible[addr].CompareAndSwap(old, new)
	if ok {
		h.state[addr].Store(wordDirty)
	}
	return ok
}

func (h *refHeap) completeWord(w Addr) {
	sh := &h.persistShards[LineOf(w)&(numPersistShards-1)]
	sh.Lock()
	for {
		s := h.state[w].Load()
		if s == wordClean {
			break
		}
		if h.state[w].CompareAndSwap(s, wordClean) {
			h.media[w].Store(h.visible[w].Load())
			break
		}
	}
	sh.Unlock()
}

func (h *refHeap) Crash(policy CrashPolicy) {
	for w := range h.state {
		addr := Addr(w)
		if addr == NilAddr {
			continue
		}
		if h.state[w].Load() != wordClean && policy.Persist(addr) {
			h.media[w].Store(h.visible[addr].Load())
		}
		h.state[w].Store(wordClean)
		h.visible[addr].Store(h.media[w].Load())
	}
}

type refFlusher struct {
	heap    *refHeap
	pending []Addr
}

func (h *refHeap) NewFlusher() *refFlusher { return &refFlusher{heap: h} }

func (f *refFlusher) Flush(addr Addr) {
	h := f.heap
	base := LineBase(addr)
	for w := base; w < base+WordsPerLine && int(w) < len(h.visible); w++ {
		if w == NilAddr {
			continue
		}
		s := h.state[w].Load()
		if s == wordClean {
			continue
		}
		if s == wordDirty {
			h.state[w].CompareAndSwap(wordDirty, wordInFlight)
		}
		f.pending = append(f.pending, w)
	}
}

func (f *refFlusher) FlushRange(addr Addr, words int) {
	if words <= 0 {
		return
	}
	first := LineOf(addr)
	last := LineOf(addr + Addr(words) - 1)
	for line := first; line <= last; line++ {
		f.Flush(Addr(line * WordsPerLine))
	}
}

// Fence and Drain differ only in the latency charge and the counter, neither
// of which the reference models.
func (f *refFlusher) Fence() {
	for _, w := range f.pending {
		f.heap.completeWord(w)
	}
	f.pending = f.pending[:0]
}

func (f *refFlusher) Drain() { f.Fence() }
