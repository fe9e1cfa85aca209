package undolog_test

import (
	"testing"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/ptmtest"
	"crafty/internal/undolog"
)

func TestConformance(t *testing.T) {
	ptmtest.Run(t, func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error) {
		return undolog.NewEngine(heap, undolog.Config{ArenaWords: arenaWords})
	})
}

func TestPersistPerWrite(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency})
	eng, err := undolog.NewEngine(heap, undolog.Config{LogWords: 1 << 12})
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
	// Figure 1(b): one drain per write plus one for the COMMITTED marker.
	if got := heap.Stats().Drains - drainsBefore; got != 6 {
		t.Fatalf("drains = %d, want 6 (per-write persist ordering)", got)
	}
}
