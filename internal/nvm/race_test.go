package nvm

import (
	"sync"
	"testing"
)

// TestTrackedStoreFlushFenceStress hammers the lock-free persistence-tracking
// masks from many goroutines — concurrent stores, flushes, and fences over
// overlapping lines — and then checks the fundamental invariant of the
// tracked model after quiescence: a fence on the flusher that flushed a word
// makes it durable, so every word that went through a final
// store-flush-fence cycle must survive a PersistNone crash with its final
// value. Run it under -race to exercise the atomics' orderings.
func TestTrackedStoreFlushFenceStress(t *testing.T) {
	const (
		goroutines = 8
		lines      = 16 // shared region: goroutines interleave on these lines
		iters      = 2000
	)
	h := NewHeap(Config{Words: 1 << 12, PersistLatency: NoLatency, TrackPersistence: true})
	base := Addr(WordsPerLine)

	// Phase 1: chaos. Everyone stores, flushes, and fences overlapping words;
	// no per-word guarantee is checked here (concurrent re-dirtying makes
	// individual outcomes nondeterministic), only that nothing trips the race
	// detector or corrupts state.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := h.NewFlusher()
			for i := 0; i < iters; i++ {
				w := base + Addr(((g+i)%lines)*WordsPerLine) + Addr(i%WordsPerLine)
				h.Store(w, uint64(g)<<32|uint64(i))
				if i%3 == 0 {
					f.Flush(w)
				}
				if i%7 == 0 {
					f.Fence()
				}
				if i%13 == 0 {
					f.Drain()
				}
			}
			f.Fence()
		}(g)
	}
	// One more goroutine only stores, walking the shared lines as a committing
	// transaction does, several words to a StoreLine under every mask there
	// is: each of its marks lands in a mask word the others are flushing and
	// claiming for their own words of the same line.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var vals [WordsPerLine]uint64
		for i := 0; i < 2*iters; i++ {
			for k := range vals {
				vals[k] = uint64(i)
			}
			h.StoreLine(LineOf(base)+uint64(i%lines), uint8(1+i%255), &vals)
		}
	}()
	wg.Wait()

	// Phase 2: quiescent persistence. With all other threads stopped, one
	// thread's store-flush-fence must be durable — the same guarantee the
	// engines' commit paths rely on.
	f := h.NewFlusher()
	for i := 0; i < lines*WordsPerLine; i++ {
		h.Store(base+Addr(i), uint64(1_000_000+i))
	}
	f.FlushRange(base, lines*WordsPerLine)
	f.Fence()
	h.Crash(PersistNone{})
	for i := 0; i < lines*WordsPerLine; i++ {
		if got := h.Load(base + Addr(i)); got != uint64(1_000_000+i) {
			t.Fatalf("word %d = %d after crash, want %d (fenced flush not durable)", i, got, 1_000_000+i)
		}
	}
}

// TestTrackedConcurrentFlushersSameLine pins two flushers on the same cache
// line with interleaved stores, checking the per-line completer serialization
// (the sharded lock) never lets a stale value be marked clean: after both
// fence and the heap quiesces, a PersistNone crash must preserve the last
// value that was flushed and fenced.
func TestTrackedConcurrentFlushersSameLine(t *testing.T) {
	const iters = 5000
	h := NewHeap(Config{Words: 256, PersistLatency: NoLatency, TrackPersistence: true})
	w := Addr(WordsPerLine) // one shared word
	var wg sync.WaitGroup
	// A bystander stores to a different word of the same line and never
	// flushes it. Its mark shares the mask the flushers load and claim from:
	// a claim that takes the mark along must write the word's media too, and
	// its marks must not disturb theirs.
	neighbour := w + 3
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 4*iters; i++ {
			h.Store(neighbour, uint64(i))
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := h.NewFlusher()
			for i := 0; i < iters; i++ {
				h.Store(w, uint64(g)*uint64(iters)+uint64(i))
				f.Flush(w)
				f.Fence()
			}
		}(g)
	}
	wg.Wait()

	// Quiesced: the last-finishing goroutine's final fence ran with no
	// concurrent stores to the word left, so its claim must have cleared the
	// word's mark and written media the final visible value. A PersistNone
	// crash therefore preserves it exactly. The neighbour was never flushed
	// on purpose, only carried along by flushes of its line, so either may
	// have happened to its final value; what must hold is that it survives
	// the crash exactly when media already held it — an unmarked word with
	// stale media would survive without.
	final := h.Load(w)
	lastNeighbour := h.Load(neighbour)
	neighbourInMedia := h.MediaLoad(neighbour) == lastNeighbour
	h.Crash(PersistNone{})
	if got := h.Load(w); got != final {
		t.Fatalf("after quiescent fence and crash the word is %d, want %d (stale media with a cleared mark)", got, final)
	}
	if got := h.Load(neighbour); neighbourInMedia != (got == lastNeighbour) {
		t.Fatalf("neighbour word is %d after the crash, its media held the final value %d: %v", got, lastNeighbour, neighbourInMedia)
	}
}
