package alloc

import (
	"cmp"
	"slices"
	"testing"

	"crafty/internal/nvm"
)

// newBenchArena mirrors the engines' throughput configuration: no latency
// charge, no persistence tracking, zero fill off (as the kv store runs).
func newBenchArena(b *testing.B, words int) *txArena {
	b.Helper()
	a := newArena(b, words)
	a.SetZeroFill(false)
	return a
}

// BenchmarkAllocFree measures the steady-state transactional alloc/free pair
// (exact-class free-list reuse), the path every kv update and delete takes.
// The persistent header writes ride the flusher; the fence is amortized once
// per "transaction" as in the engines.
func BenchmarkAllocFree(b *testing.B) {
	a := newBenchArena(b, 1<<16)
	l, tx, f := a.l, a, a.f
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Begin()
		addr := l.Alloc(24, tx)
		l.Free(addr, tx)
		l.Commit()
		f.Fence()
	}
}

// BenchmarkAllocFreeMixedSizes churns blocks of varying size classes so
// class misses are served by splitting larger free blocks — the fragmentation
// path mixed-size YCSB value churn exercises.
func BenchmarkAllocFreeMixedSizes(b *testing.B) {
	a := newBenchArena(b, 1<<16)
	l, tx, f := a.l, a, a.f
	sizes := [4]int{8, 24, 64, 16}
	var scratch [4]nvm.Addr
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Begin()
		for j, s := range sizes {
			scratch[j] = l.Alloc(s, tx)
		}
		for _, addr := range scratch {
			l.Free(addr, tx)
		}
		l.Commit()
		f.Fence()
	}
}

// BenchmarkArenaRecover measures the header scavenge over an arena holding
// 1k blocks with holes, the cost core.Open pays when reattaching to a heap.
func BenchmarkArenaRecover(b *testing.B) {
	a := newBenchArena(b, 1<<18)
	var blocks []nvm.Addr
	for i := 0; i < 1024; i++ {
		blocks = append(blocks, a.alloc(8+8*(i%4)))
	}
	for i := 0; i < len(blocks); i += 3 {
		a.free(blocks[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Recover(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArenaReconcile measures the reconciling recovery the kv store's
// full reopen runs: 64k live blocks (every fifth of 80k freed) on a tracked
// heap, each round after the header scavenge that core.Open runs first.
func BenchmarkArenaReconcile(b *testing.B) {
	a := newHeapArena(b, 1<<21, true)
	a.SetZeroFill(false)
	var live []Block
	var dead []nvm.Addr
	for i := 0; i < 80_000; i++ {
		words := 8 + 8*(i%2)
		addr := a.alloc(words)
		if i%5 == 0 {
			dead = append(dead, addr)
		} else {
			live = append(live, Block{Addr: addr, Words: words})
		}
	}
	a.free(dead...)
	slices.SortFunc(live, func(x, y Block) int { return cmp.Compare(x.Addr, y.Addr) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := a.Recover(nil); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := a.Recover(live); err != nil {
			b.Fatal(err)
		}
	}
}
