package nvhtm_test

import (
	"testing"

	"crafty/internal/nvhtm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/ptmtest"
)

func TestConformance(t *testing.T) {
	ptmtest.Run(t, func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error) {
		return nvhtm.NewEngine(heap, nvhtm.Config{ArenaWords: arenaWords})
	})
}

func TestCheckpointerApplies(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency})
	eng, err := nvhtm.NewEngine(heap, nvhtm.Config{ApplierBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := heap.MustCarve(8)
	th := eng.Register()
	const n = 50
	for i := 0; i < n; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(data, tx.Load(data)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if got := eng.AppliedTxns(); got != n {
		t.Fatalf("checkpointer applied %d transactions, want %d", got, n)
	}
	if heap.Load(data) != n {
		t.Fatalf("counter = %d, want %d", heap.Load(data), n)
	}
}

func TestName(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 14, PersistLatency: nvm.NoLatency})
	eng, err := nvhtm.NewEngine(heap, nvhtm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Name() != "NV-HTM" {
		t.Fatalf("Name() = %q", eng.Name())
	}
}
