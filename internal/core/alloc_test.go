package core

import (
	"testing"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// TestAtomicSteadyStateAllocs gates the allocation-free persistent
// transaction path: a small committed Crafty transaction (Log + Redo phases,
// both hardware transactions, plus undo/redo log maintenance and flushes)
// must not allocate once the thread's reusable state is warm. Tracking is off,
// as in throughput experiments.
func TestAtomicSteadyStateAllocs(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency})
	eng, err := NewEngine(heap, Config{LogEntries: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	data := heap.MustCarve(8 * nvm.WordsPerLine)
	th, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	body := func(tx ptm.Tx) error {
		for w := 0; w < 4; w++ {
			a := data + nvm.Addr(w*nvm.WordsPerLine)
			tx.Store(a, tx.Load(a)+1)
		}
		return nil
	}
	for i := 0; i < 20; i++ {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state committed persistent transaction allocated %v times per run, want 0", allocs)
	}
	if s := th.Stats(); s.Persistent[ptm.OutcomeRedo] == 0 {
		t.Fatalf("expected Redo commits in the uncontended run, got %+v", s.Persistent)
	}
}

// TestAtomicReadOnlySteadyStateAllocs does the same for the read-only fast
// path, which skips the Redo and Validate phases entirely.
func TestAtomicReadOnlySteadyStateAllocs(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency})
	eng, err := NewEngine(heap, Config{LogEntries: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	data := heap.MustCarve(8)
	heap.Store(data, 99)
	th, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	var sink uint64
	body := func(tx ptm.Tx) error {
		//crafty:txsafe sink only defeats dead-code elimination; its value is never asserted
		sink += tx.Load(data)
		return nil
	}
	for i := 0; i < 20; i++ {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state read-only transaction allocated %v times per run, want 0", allocs)
	}
	_ = sink
}

// TestAtomicAllocFreeSteadyStateAllocs extends the allocation-free gate to
// transactions that allocate and free arena blocks: the allocator's
// persistent block-header writes (and their flushes, which ride the thread's
// existing persist batching) must add zero Go allocations to the hot path.
func TestAtomicAllocFreeSteadyStateAllocs(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency})
	eng, err := NewEngine(heap, Config{LogEntries: 1 << 12, ArenaWords: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	th, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	body := func(tx ptm.Tx) error {
		b := tx.Alloc(16)
		tx.Store(b, 42)
		tx.Store(b+8, 43)
		tx.Free(b)
		return nil
	}
	for i := 0; i < 20; i++ {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state alloc/free transaction allocated %v times per run, want 0", allocs)
	}
	if live := eng.Arena().Stats().Live; live != 0 {
		t.Fatalf("committed alloc/free transactions leaked %d blocks", live)
	}
}

// TestReopenRecoversArenaState proves the engine-level allocator recovery
// hook: after a crash, core.Open rebuilds the arena's free lists and size
// map from the persistent block headers — freed space stays reusable with no
// kv-style reachability information needed. (Adversarial persistence
// policies are exercised in internal/alloc and the kv crash tests; here the
// optimistic policy isolates the reattach path.)
func TestReopenRecoversArenaState(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{
		Words:            1 << 18,
		PersistLatency:   nvm.NoLatency,
		TrackPersistence: true,
	})
	cfg := Config{LogEntries: 1 << 12, ArenaWords: 1 << 14}
	eng, err := NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := eng.Layout()
	th, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	var keep, hole nvm.Addr
	if err := th.Atomic(func(tx ptm.Tx) error {
		keep = tx.Alloc(16)
		hole = tx.Alloc(24)
		tx.Store(keep, 7)
		tx.Store(hole, 8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Free(hole)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Quiesce the log: the free's header flip is undo-logged, so without a
	// covering sequence the suffix rollback would undo the free itself (the
	// newest persisted sequence per thread is always rolled back).
	if err := th.SyncDurable(); err != nil {
		t.Fatal(err)
	}
	usedBefore := eng.Arena().Stats().UsedWords

	heap.Crash(nvm.PersistAll{})
	report, err := Recover(heap, layout)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := Open(heap, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	eng2.AdvanceClock(report.MaxTimestamp)

	st := eng2.Arena().Stats()
	if st.Live != 1 || st.LiveWords != 16 {
		t.Fatalf("recovered arena: %d live blocks (%d words), want 1 (16)", st.Live, st.LiveWords)
	}
	if st.FreeWords != 24 || st.UsedWords != usedBefore {
		t.Fatalf("recovered arena: free %d used %d, want free 24 used %d", st.FreeWords, st.UsedWords, usedBefore)
	}
	// The freed hole is immediately reusable through a new transaction.
	th2, err := eng2.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	if err := th2.Atomic(func(tx ptm.Tx) error {
		if got := tx.Alloc(24); got != hole {
			t.Errorf("recovered hole not reused: got %d, want %d", got, hole)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = keep
}
