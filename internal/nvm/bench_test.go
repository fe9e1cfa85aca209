package nvm

import (
	"sync/atomic"
	"testing"
)

// BenchmarkTrackedStoreParallel measures concurrent Store throughput on a
// persistence-tracked heap, with each worker hammering its own cache lines.
// A tracked store is two atomic operations and no lock — the visible word,
// then one Or into its line's dirty mask — so workers in disjoint regions
// share nothing (sixteen adjacent lines' masks sit in one hardware cache
// line; a region here is 64 lines). Under a global store mutex this benchmark
// was a scalability cliff.
func BenchmarkTrackedStoreParallel(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 20, PersistLatency: NoLatency, TrackPersistence: true})
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each worker owns a disjoint 64-line region.
		id := next.Add(1) - 1
		base := Addr(WordsPerLine + id*64*WordsPerLine)
		if int(base)+64*WordsPerLine > h.Words() {
			b.Fatal("heap too small for worker count")
		}
		i := uint64(0)
		for pb.Next() {
			h.Store(base+Addr(i%uint64(64*WordsPerLine)), i)
			i++
		}
	})
}

// BenchmarkTrackedStoreFlushFence measures the full single-thread persist
// cycle on a tracked heap: store a line's worth of words, flush the line,
// fence.
func BenchmarkTrackedStoreFlushFence(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16, PersistLatency: NoLatency, TrackPersistence: true})
	f := h.NewFlusher()
	base := Addr(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < WordsPerLine; w++ {
			h.Store(base+Addr(w), uint64(i))
		}
		f.Flush(base)
		f.Fence()
	}
}

// BenchmarkUntrackedStore is the control: the tracking-off store path used by
// throughput experiments.
func BenchmarkUntrackedStore(b *testing.B) {
	h := NewHeap(Config{Words: 1 << 16, PersistLatency: NoLatency})
	base := Addr(WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Store(base+Addr(uint64(i)%uint64(64)), uint64(i))
	}
}
