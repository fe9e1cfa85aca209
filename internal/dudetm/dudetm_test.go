package dudetm_test

import (
	"testing"

	"crafty/internal/dudetm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/ptmtest"
)

func TestConformance(t *testing.T) {
	ptmtest.Run(t, func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error) {
		return dudetm.NewEngine(heap, dudetm.Config{ArenaWords: arenaWords})
	})
}

func TestName(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 14, PersistLatency: nvm.NoLatency})
	eng, err := dudetm.NewEngine(heap, dudetm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Name() != "DudeTM" {
		t.Fatalf("Name() = %q", eng.Name())
	}
}
