package nondurable_test

import (
	"testing"

	"crafty/internal/htm"
	"crafty/internal/nondurable"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/ptmtest"
)

func TestConformance(t *testing.T) {
	ptmtest.Run(t, func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error) {
		return nondurable.NewEngine(heap, nondurable.Config{ArenaWords: arenaWords})
	})
}

func TestSGLFallbackConformance(t *testing.T) {
	// With every hardware transaction spuriously aborting, all transactions
	// must complete through the single-global-lock fallback and still be
	// atomic.
	ptmtest.Run(t, func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error) {
		return nondurable.NewEngine(heap, nondurable.Config{
			ArenaWords: arenaWords,
			MaxRetries: 1,
			HTM:        htm.Config{SpuriousAbortProb: 1.0},
		})
	})
}

func TestName(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 12, PersistLatency: nvm.NoLatency})
	eng, err := nondurable.NewEngine(heap, nondurable.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "Non-durable" {
		t.Fatalf("Name() = %q", eng.Name())
	}
}
