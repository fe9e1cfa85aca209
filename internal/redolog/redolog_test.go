package redolog_test

import (
	"testing"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/ptmtest"
	"crafty/internal/redolog"
)

func TestConformance(t *testing.T) {
	ptmtest.Run(t, func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error) {
		return redolog.NewEngine(heap, redolog.Config{ArenaWords: arenaWords})
	})
}

func TestPersistPerTransaction(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency})
	eng, err := redolog.NewEngine(heap, redolog.Config{LogWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	data := heap.MustCarve(64)
	th := eng.Register()
	drainsBefore := heap.Stats().Drains
	if err := th.Atomic(func(tx ptm.Tx) error {
		for i := 0; i < 5; i++ {
			tx.Store(data+nvm.Addr(i), uint64(i))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Figure 1(c): the persist cost is amortized — one drain for the log,
	// one for the in-place writes — regardless of the number of writes.
	if got := heap.Stats().Drains - drainsBefore; got != 2 {
		t.Fatalf("drains = %d, want 2 (amortized persist ordering)", got)
	}
}

func TestReadsSeeBufferedWrites(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency})
	eng, err := redolog.NewEngine(heap, redolog.Config{LogWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	data := heap.MustCarve(8)
	heap.Store(data, 10)
	th := eng.Register()
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 20)
		if tx.Load(data) != 20 {
			t.Errorf("read did not see buffered write")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
