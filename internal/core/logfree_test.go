package core

import (
	"testing"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// fillFreshBlock allocates a words-word block, fills it with base+i, links
// it from root and returns it, all in one transaction on th.
func fillFreshBlock(t *testing.T, th *Thread, root nvm.Addr, words int, base uint64) nvm.Addr {
	t.Helper()
	var block nvm.Addr
	if err := th.Atomic(func(tx ptm.Tx) error {
		block = tx.Alloc(words)
		for i := 0; i < words; i++ {
			tx.Store(block+nvm.Addr(i), base+uint64(i))
		}
		tx.Store(root, uint64(block))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return block
}

// TestLogFreeStoresOnlyToFrontierBlocks checks which stores skip the undo
// log: the words of a block carved from the arena frontier in the same
// transaction do, and a block taken back from the free lists logs every
// word, as does every store outside the arena. Writes counts both kinds.
func TestLogFreeStoresOnlyToFrontierBlocks(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 1024, ArenaWords: 1 << 12})
	root := heap.MustCarve(8)
	th, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string, body func(tx ptm.Tx) error, wantWrites, wantLogFree uint64) {
		t.Helper()
		w0, f0 := th.Stats().Writes, eng.Metrics().LogFreeWrites.Value()
		if err := th.Atomic(body); err != nil {
			t.Fatal(err)
		}
		if w, f := th.Stats().Writes-w0, eng.Metrics().LogFreeWrites.Value()-f0; w != wantWrites || f != wantLogFree {
			t.Fatalf("%s: %d writes, %d log-free; want %d and %d", what, w, f, wantWrites, wantLogFree)
		}
	}
	fill := func(tx ptm.Tx) error {
		b := tx.Alloc(8)
		for i := 0; i < 8; i++ {
			tx.Store(b+nvm.Addr(i), uint64(100+i))
		}
		tx.Store(root, uint64(b))
		return nil
	}
	// The header flip and the root are logged; the eight words are not.
	step("frontier block", fill, 10, 8)
	used := eng.Arena().Stats().UsedWords
	step("free", func(tx ptm.Tx) error {
		tx.Free(nvm.Addr(tx.Load(root)))
		tx.Store(root, 0)
		return nil
	}, 2, 0)
	// The same class again comes off the free list: everything is logged.
	step("reused block", fill, 10, 0)
	if got := eng.Arena().Stats().UsedWords; got != used {
		t.Fatalf("reuse moved the frontier from %d to %d words", used, got)
	}
	b := nvm.Addr(heap.Load(root))
	for i := 0; i < 8; i++ {
		if got := heap.Load(b + nvm.Addr(i)); got != uint64(100+i) {
			t.Fatalf("word %d of the reused block = %d, want %d", i, got, 100+i)
		}
	}
}

// TestForcedEmptyFlushesFreshBlock crashes after another thread forced an
// empty sequence into an idle thread's log, losing every word no drain
// completed. The forced marker makes the idle thread's last transaction
// permanent, so the forcer must have persisted the transaction's frontier
// block as well as its logged words, though the log does not name the block.
func TestForcedEmptyFlushesFreshBlock(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 1024, ArenaWords: 1 << 12})
	root := heap.MustCarve(8)
	persistWord(heap, root)
	idle, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	forcer, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	const words = 24 // three lines
	block := fillFreshBlock(t, idle, root, words, 500)
	if !idle.forceEmpty(forcer.flusher, eng.hw.TimestampNow()) {
		t.Fatal("forceEmpty declined an idle thread")
	}

	heap.Crash(nvm.PersistNone{})
	if _, err := Recover(heap, eng.Layout()); err != nil {
		t.Fatal(err)
	}
	if got := nvm.Addr(heap.Load(root)); got != block {
		t.Fatalf("root = %d after recovery, want the committed block %d", got, block)
	}
	for i := 0; i < words; i++ {
		if got := heap.Load(block + nvm.Addr(i)); got != 500+uint64(i) {
			t.Fatalf("word %d of the committed block = %d, want %d", i, got, 500+i)
		}
	}
}

// TestFreshBlocksUnderConcurrentForcing runs workers that each publish a
// freshly filled block per transaction and free the one before, with a lag
// bound small enough that their commits keep forcing empty sequences into
// each other's logs: the forcers read a worker's fresh-block list while the
// worker rewrites it in its next Log phase. After a crash, every block a
// worker's root names must hold what the transaction that published it
// wrote.
func TestFreshBlocksUnderConcurrentForcing(t *testing.T) {
	const workers, perThread, words = 3, 300, 16
	eng, heap := testEngine(t, 1<<20, Config{LogEntries: 1024, ArenaWords: 1 << 16, MaxLag: 4})
	roots := heap.MustCarve(workers * 2 * nvm.WordsPerLine)
	root := func(g int) nvm.Addr { return roots + nvm.Addr(g*2*nvm.WordsPerLine) }
	for g := 0; g < workers; g++ {
		persistWord(heap, root(g))
		persistWord(heap, root(g)+1)
	}
	var txn [workers]uint64
	runWorkers(t, eng, workers, perThread, func(g int, tx ptm.Tx) error {
		//crafty:txsafe the counter only derives distinct tags; a retried body may skip one
		txn[g]++
		tag := uint64(g)<<32 | txn[g]<<8
		b := tx.Alloc(words)
		for i := 0; i < words; i++ {
			tx.Store(b+nvm.Addr(i), tag+uint64(i))
		}
		if old := nvm.Addr(tx.Load(root(g))); old != nvm.NilAddr {
			tx.Free(old)
		}
		tx.Store(root(g), uint64(b))
		tx.Store(root(g)+1, tag)
		return nil
	})
	if eng.Metrics().ForcedEmpties.Value() == 0 {
		t.Fatal("no thread forced another's log; the test exercises nothing")
	}

	heap.Crash(nvm.NewRandomPolicy(7, 0.5))
	if _, err := Recover(heap, eng.Layout()); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < workers; g++ {
		b, tag := nvm.Addr(heap.Load(root(g))), heap.Load(root(g)+1)
		if b == nvm.NilAddr {
			continue
		}
		for i := 0; i < words; i++ {
			if got := heap.Load(b + nvm.Addr(i)); got != tag+uint64(i) {
				t.Fatalf("worker %d: word %d of its published block = %#x, want %#x", g, i, got, tag+uint64(i))
			}
		}
	}
}
