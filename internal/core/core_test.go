package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"crafty/internal/htm"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// testEngine builds a Crafty engine over a persistence-tracked, zero-latency
// heap, returning both.
func testEngine(t testing.TB, heapWords int, cfg Config) (*Engine, *nvm.Heap) {
	t.Helper()
	heap := nvm.NewHeap(nvm.Config{Words: heapWords, PersistLatency: nvm.NoLatency, TrackPersistence: true})
	eng, err := NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, heap
}

func TestSingleTransactionCommitsViaRedo(t *testing.T) {
	eng, heap := testEngine(t, 1<<16, Config{LogEntries: 256})
	data := heap.MustCarve(16)
	th := eng.Register()

	err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 41)
		tx.Store(data, tx.Load(data)+1)
		tx.Store(data+1, 7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := heap.Load(data); got != 42 {
		t.Fatalf("data word = %d, want 42", got)
	}
	if got := heap.Load(data + 1); got != 7 {
		t.Fatalf("second word = %d, want 7", got)
	}
	s := th.Stats()
	if s.Persistent[ptm.OutcomeRedo] != 1 {
		t.Fatalf("expected one Redo-committed transaction, got %+v", s.Persistent)
	}
	if s.Writes != 3 {
		t.Fatalf("writes counted = %d, want 3 (one per store, including the double write)", s.Writes)
	}
}

func TestReadOnlyTransactionSkipsRedoAndValidate(t *testing.T) {
	eng, heap := testEngine(t, 1<<16, Config{LogEntries: 256})
	data := heap.MustCarve(8)
	heap.Store(data, 99)
	th := eng.Register()
	flushesBefore := heap.Stats().Flushes

	var got uint64
	if err := th.Atomic(func(tx ptm.Tx) error {
		got = tx.Load(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("read %d, want 99", got)
	}
	s := th.Stats()
	if s.Persistent[ptm.OutcomeReadOnly] != 1 {
		t.Fatalf("expected a read-only outcome, got %+v", s.Persistent)
	}
	if flushes := heap.Stats().Flushes - flushesBefore; flushes != 0 {
		t.Fatalf("read-only transaction issued %d flushes, want 0", flushes)
	}
}

func TestBodyErrorAbandonsTransaction(t *testing.T) {
	eng, heap := testEngine(t, 1<<16, Config{LogEntries: 256})
	data := heap.MustCarve(8)
	th := eng.Register()

	boom := errors.New("boom")
	err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 1)
		return boom
	})
	if !errors.Is(err, ptm.ErrAborted) || !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap ErrAborted and the body error", err)
	}
	if got := heap.Load(data); got != 0 {
		t.Fatalf("abandoned transaction's write is visible: %d", got)
	}
	if s := th.Stats(); s.UserAborts != 1 || s.Txns() != 0 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestSequentialTransactionsAccumulate(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 1024})
	data := heap.MustCarve(8)
	th := eng.Register()
	const n = 500
	for i := 0; i < n; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(data, tx.Load(data)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := heap.Load(data); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
}

// runWorkers runs perThread transactions of body on each of workers
// goroutines, each with its own registered thread, returning how many each
// committed.
func runWorkers(t *testing.T, eng *Engine, workers, perThread int, body func(g int, tx ptm.Tx) error) []int {
	t.Helper()
	var wg sync.WaitGroup
	committed := make([]int, workers)
	for g := range workers {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			for i := 0; i < perThread; i++ {
				if err := th.Atomic(func(tx ptm.Tx) error { return body(g, tx) }); err != nil {
					t.Errorf("thread %d: %v", g, err)
					return
				}
				committed[g]++
			}
		}(g)
	}
	wg.Wait()
	return committed
}

// runCounterWorkload hammers a shared counter and a set of disjoint
// per-thread counters from several goroutines, returning the number of
// committed increments of the shared counter.
func runCounterWorkload(t *testing.T, eng *Engine, shared nvm.Addr, private []nvm.Addr, perThread int) int {
	t.Helper()
	committed := runWorkers(t, eng, len(private), perThread, func(g int, tx ptm.Tx) error {
		tx.Store(shared, tx.Load(shared)+1)
		tx.Store(private[g], tx.Load(private[g])+1)
		return nil
	})
	total := 0
	for _, c := range committed {
		total += c
	}
	return total
}

func testNoLostUpdates(t *testing.T, cfg Config) {
	eng, heap := testEngine(t, 1<<20, cfg)
	shared := heap.MustCarve(8)
	const goroutines = 6
	const perThread = 400
	private := make([]nvm.Addr, goroutines)
	for i := range private {
		private[i] = heap.MustCarve(8)
	}
	total := runCounterWorkload(t, eng, shared, private, perThread)
	if got := heap.Load(shared); got != uint64(total) {
		t.Fatalf("shared counter = %d, want %d", got, total)
	}
	for i, addr := range private {
		if got := heap.Load(addr); got != perThread {
			t.Fatalf("private counter %d = %d, want %d", i, got, perThread)
		}
	}
}

func TestNoLostUpdatesCrafty(t *testing.T) {
	testNoLostUpdates(t, Config{LogEntries: 4096})
}

func TestNoLostUpdatesCraftyNoRedo(t *testing.T) {
	testNoLostUpdates(t, Config{LogEntries: 4096, DisableRedo: true})
}

func TestNoLostUpdatesCraftyNoValidate(t *testing.T) {
	testNoLostUpdates(t, Config{LogEntries: 4096, DisableValidate: true})
}

func TestNoLostUpdatesWithSmallLogWraparound(t *testing.T) {
	// A log of 64 entries wraps every ~21 transactions, exercising the
	// Section 5.2 reuse checks and cross-thread forcing under contention.
	testNoLostUpdates(t, Config{LogEntries: 64})
}

// yieldBetweenLogAndRedo hands the processor away in the window between
// every transaction's Log and Redo phases for the rest of the test, so that
// even on one processor a sibling worker commits inside it.
func yieldBetweenLogAndRedo(t *testing.T) {
	betweenLogAndRedo = runtime.Gosched
	t.Cleanup(func() { betweenLogAndRedo = nil })
}

// TestContendedTransactionsUseValidatePhase reaches the Validate phase
// through the test seam: with a yield between Log and Redo, a worker's Redo
// check finds that a sibling committed in between on any processor count.
// The workers increment disjoint counters, so every such Validate succeeds;
// a shared counter would fail it and restart the transaction, whose next Log
// phase then orders after the sibling's commit and goes through Redo.
func TestContendedTransactionsUseValidatePhase(t *testing.T) {
	yieldBetweenLogAndRedo(t)
	eng, heap := testEngine(t, 1<<20, Config{LogEntries: 4096})
	private := make([]nvm.Addr, 8)
	for i := range private {
		private[i] = heap.MustCarve(8)
	}
	runWorkers(t, eng, len(private), 300, func(g int, tx ptm.Tx) error {
		tx.Store(private[g], tx.Load(private[g])+1)
		return nil
	})
	for i, addr := range private {
		if got := heap.Load(addr); got != 300 {
			t.Fatalf("counter %d = %d, want 300", i, got)
		}
	}
	s := eng.Stats()
	if s.Persistent[ptm.OutcomeValidate] == 0 {
		t.Fatalf("contended workload never used the Validate phase: %+v", s.Persistent)
	}
	if s.Persistent[ptm.OutcomeRedo] == 0 {
		t.Fatalf("contended workload never used the Redo phase: %+v", s.Persistent)
	}
}

// TestContendedTransactionsCommitThroughRedo pins what the server's workers
// rely on: with nothing between the Log and Redo phases, two threads
// incrementing one shared counter on one processor almost never see each
// other commit inside that window, so Redo — not Validate — is how they
// commit. Only a preemption landing in the window sends a transaction to
// Validate.
func TestContendedTransactionsCommitThroughRedo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eng, heap := testEngine(t, 1<<20, Config{LogEntries: 4096})
	shared := heap.MustCarve(8)
	private := []nvm.Addr{heap.MustCarve(8), heap.MustCarve(8)}
	runCounterWorkload(t, eng, shared, private, 2000)
	s := eng.Stats()
	if got := heap.Load(shared); got != 4000 {
		t.Fatalf("shared counter = %d, want 4000", got)
	}
	redo, all := s.Persistent[ptm.OutcomeRedo], s.Txns()
	if redo*100 < all*99 {
		t.Fatalf("%d of %d transactions committed through Redo, want ≥ 99%%: %+v", redo, all, s.Persistent)
	}
	t.Logf("%d of %d transactions committed through Redo", redo, all)
}

// commitOnce sets the betweenLogAndRedo seam, for the rest of the test, to
// run commit the first time the window opens and to do nothing after, so
// that the commit's own passage through the window does not recurse.
func commitOnce(t *testing.T, commit func()) {
	fired := false
	betweenLogAndRedo = func() {
		if !fired {
			fired = true
			commit()
		}
	}
	t.Cleanup(func() { betweenLogAndRedo = nil })
}

// increment commits one increment of addr on th.
func increment(th ptm.Thread, addr nvm.Addr) error {
	return th.Atomic(func(tx ptm.Tx) error {
		tx.Store(addr, tx.Load(addr)+1)
		return nil
	})
}

// outcomes returns th's committed transactions by outcome, failing the test
// unless exactly one committed.
func outcomes(t *testing.T, th ptm.Thread) [ptm.NumOutcomes]uint64 {
	t.Helper()
	s := th.Stats()
	if s.Txns() != 1 {
		t.Fatalf("%d transactions committed, want 1: %v", s.Txns(), s.Persistent)
	}
	return s.Persistent
}

// TestRedoWindowOpensAtLogCommit pins where the Redo phase's window begins:
// a commit made while T1's body runs, before T1's Log phase commits, is
// serialized before T1's reads and must not fail T1's Redo check.
func TestRedoWindowOpensAtLogCommit(t *testing.T) {
	eng, heap := testEngine(t, 1<<16, Config{LogEntries: 256})
	mine, other := heap.MustCarve(8), heap.MustCarve(8)
	t1, t2 := eng.Register(), eng.Register()
	first := true
	var otherErr error
	//crafty:txsafe the body waits for T2's commit on its first execution only, guarded by first
	if err := t1.Atomic(func(tx ptm.Tx) error {
		if first {
			first = false
			done := make(chan struct{})
			go func() {
				defer close(done)
				otherErr = increment(t2, other)
			}()
			<-done
		}
		tx.Store(mine, tx.Load(mine)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if otherErr != nil {
		t.Fatal(otherErr)
	}
	if got := outcomes(t, t1); got[ptm.OutcomeRedo] != 1 {
		t.Fatalf("T1 outcomes %v, want one Redo commit", got)
	}
	if heap.Load(mine) != 1 || heap.Load(other) != 1 {
		t.Fatalf("counters %d, %d, want 1, 1", heap.Load(mine), heap.Load(other))
	}
}

// TestRedoWindowCommitInside pins what a commit between T1's Log and Redo
// phases does to T1. A disjoint one fails T1's Redo check although it wrote
// nothing T1 read, and Validate commits T1. A conflicting one fails Validate
// too, and the restarted transaction, whose Log phase now orders after that
// commit, goes through Redo.
func TestRedoWindowCommitInside(t *testing.T) {
	for _, tc := range []struct {
		name     string
		conflict bool
		want     ptm.Outcome
	}{
		{"disjoint", false, ptm.OutcomeValidate},
		{"conflicting", true, ptm.OutcomeRedo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, heap := testEngine(t, 1<<16, Config{LogEntries: 256})
			mine, other := heap.MustCarve(8), heap.MustCarve(8)
			want := uint64(1)
			if tc.conflict {
				other, want = mine, 2
			}
			t1, t2 := eng.Register(), eng.Register()
			var otherErr error
			commitOnce(t, func() { otherErr = increment(t2, other) })
			if err := increment(t1, mine); err != nil {
				t.Fatal(err)
			}
			if otherErr != nil {
				t.Fatal(otherErr)
			}
			if got := outcomes(t, t1); got[tc.want] != 1 {
				t.Fatalf("T1 outcomes %v, want one %v commit", got, tc.want)
			}
			if heap.Load(mine) != want || heap.Load(other) != want {
				t.Fatalf("counters %d, %d, want %d", heap.Load(mine), heap.Load(other), want)
			}
		})
	}
}

func TestBankInvariantUnderContention(t *testing.T) {
	eng, heap := testEngine(t, 1<<20, Config{LogEntries: 4096})
	const accounts = 16
	const initial = 1000
	base := heap.MustCarve(accounts * nvm.WordsPerLine)
	addrOf := func(i int) nvm.Addr { return base + nvm.Addr(i*nvm.WordsPerLine) }
	for i := 0; i < accounts; i++ {
		heap.Store(addrOf(i), initial)
	}

	const goroutines = 6
	const transfers = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			for i := 0; i < transfers; i++ {
				from := (g + i) % accounts
				to := (g*7 + i*3 + 1) % accounts
				if from == to {
					to = (to + 1) % accounts
				}
				err := th.Atomic(func(tx ptm.Tx) error {
					amount := uint64(1 + i%5)
					tx.Store(addrOf(from), tx.Load(addrOf(from))-amount)
					tx.Store(addrOf(to), tx.Load(addrOf(to))+amount)
					return nil
				})
				if err != nil {
					t.Errorf("transfer failed: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	for i := 0; i < accounts; i++ {
		total += heap.Load(addrOf(i))
	}
	if total != accounts*initial {
		t.Fatalf("total balance = %d, want %d (money created or destroyed)", total, accounts*initial)
	}
}

func TestSGLFallbackUnderPersistentAborts(t *testing.T) {
	// With a 100% spurious abort rate no hardware transaction ever commits,
	// so every persistent transaction must complete through the single
	// global lock — including its k=1, no-HTM floor.
	eng, heap := testEngine(t, 1<<18, Config{
		LogEntries: 1024,
		MaxRetries: 2,
		HTM:        htm.Config{SpuriousAbortProb: 1.0},
	})
	data := heap.MustCarve(64)
	th := eng.Register()
	const n = 20
	for i := 0; i < n; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			for w := 0; w < 5; w++ {
				a := data + nvm.Addr(w)
				tx.Store(a, tx.Load(a)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 5; w++ {
		if got := heap.Load(data + nvm.Addr(w)); got != n {
			t.Fatalf("word %d = %d, want %d", w, got, n)
		}
	}
	s := th.Stats()
	if s.Persistent[ptm.OutcomeSGL] != n {
		t.Fatalf("expected all %d transactions to complete under the SGL, got %+v", n, s.Persistent)
	}
	if s.HTM.Aborts[htm.CauseZero] == 0 {
		t.Fatal("expected spurious aborts to be recorded")
	}
}

func TestSGLFallbackMultithreaded(t *testing.T) {
	eng, heap := testEngine(t, 1<<20, Config{
		LogEntries: 2048,
		MaxRetries: 1,
		HTM:        htm.Config{SpuriousAbortProb: 0.5},
	})
	shared := heap.MustCarve(8)
	private := make([]nvm.Addr, 4)
	for i := range private {
		private[i] = heap.MustCarve(8)
	}
	total := runCounterWorkload(t, eng, shared, private, 200)
	if got := heap.Load(shared); got != uint64(total) {
		t.Fatalf("shared counter = %d, want %d", got, total)
	}
	if eng.Stats().Persistent[ptm.OutcomeSGL] == 0 {
		t.Fatal("expected at least one SGL fallback with a 50% abort rate")
	}
}

func TestThreadUnsafeMode(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{
		Mode:         ThreadUnsafe,
		LogEntries:   1024,
		InitialChunk: 4,
	})
	data := heap.MustCarve(256)
	th := eng.Register()
	const n = 50
	for i := 0; i < n; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			for w := 0; w < 10; w++ {
				a := data + nvm.Addr(w*nvm.WordsPerLine/2)
				tx.Store(a, tx.Load(a)+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 10; w++ {
		if got := heap.Load(data + nvm.Addr(w*nvm.WordsPerLine/2)); got != n {
			t.Fatalf("word %d = %d, want %d", w, got, n)
		}
	}
	s := th.Stats()
	if s.Persistent[ptm.OutcomeSGL] != n {
		t.Fatalf("thread-unsafe transactions not counted as chunked outcomes: %+v", s.Persistent)
	}
	// With chunks of 4 writes, a 10-write transaction needs 3 chunk drains
	// plus the COMMITTED drain; the drain count proves amortization happened
	// (rather than one drain per write).
	drains := heap.Stats().Drains
	if drains == 0 || drains > uint64(n*5) {
		t.Fatalf("unexpected drain count %d for chunked execution", drains)
	}
}

func TestThreadUnsafeModeFallsBackToSingleWrites(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{
		Mode:         ThreadUnsafe,
		LogEntries:   1024,
		InitialChunk: 8,
		HTM:          htm.Config{SpuriousAbortProb: 1.0}, // chunk HTM always aborts -> k degrades to 1
	})
	data := heap.MustCarve(64)
	th := eng.Register()
	if err := th.Atomic(func(tx ptm.Tx) error {
		for w := 0; w < 6; w++ {
			tx.Store(data+nvm.Addr(w), uint64(w)+1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6; w++ {
		if got := heap.Load(data + nvm.Addr(w)); got != uint64(w)+1 {
			t.Fatalf("word %d = %d, want %d", w, got, w+1)
		}
	}
}

func TestAllocAndFreeInsideTransactions(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 1024, ArenaWords: 1 << 12})
	root := heap.MustCarve(8)
	th := eng.Register()

	// Allocate a node and link it from the root.
	if err := th.Atomic(func(tx ptm.Tx) error {
		node := tx.Alloc(4)
		tx.Store(node, 1234)
		tx.Store(root, uint64(node))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	node := nvm.Addr(heap.Load(root))
	if node == nvm.NilAddr || heap.Load(node) != 1234 {
		t.Fatalf("allocated node not linked or not initialized: addr=%d", node)
	}
	if eng.Arena().Stats().Live != 1 {
		t.Fatalf("arena live blocks = %d, want 1", eng.Arena().Stats().Live)
	}

	// Free it again in a second transaction.
	if err := th.Atomic(func(tx ptm.Tx) error {
		old := nvm.Addr(tx.Load(root))
		tx.Free(old)
		tx.Store(root, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if eng.Arena().Stats().Live != 0 {
		t.Fatalf("arena live blocks = %d after free, want 0", eng.Arena().Stats().Live)
	}
}

func TestAbandonedTransactionReleasesAllocations(t *testing.T) {
	eng, _ := testEngine(t, 1<<18, Config{LogEntries: 1024, ArenaWords: 1 << 12})
	th := eng.Register()
	err := th.Atomic(func(tx ptm.Tx) error {
		tx.Alloc(8)
		return fmt.Errorf("never mind")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if eng.Arena().Stats().Live != 0 {
		t.Fatalf("abandoned transaction leaked %d blocks", eng.Arena().Stats().Live)
	}
}

func TestAllocationsSurviveValidateReplayUnderContention(t *testing.T) {
	eng, heap := testEngine(t, 1<<20, Config{LogEntries: 4096, ArenaWords: 1 << 16})
	shared := heap.MustCarve(8)
	listHead := heap.MustCarve(8)

	const goroutines = 4
	const perThread = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			for i := 0; i < perThread; i++ {
				err := th.Atomic(func(tx ptm.Tx) error {
					// Contend on a shared counter to force Validate phases,
					// while also allocating a list node per transaction.
					tx.Store(shared, tx.Load(shared)+1)
					node := tx.Alloc(2)
					tx.Store(node, uint64(g)<<32|uint64(i))
					tx.Store(node+1, tx.Load(listHead))
					tx.Store(listHead, uint64(node))
					return nil
				})
				if err != nil {
					t.Errorf("thread %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := heap.Load(shared); got != goroutines*perThread {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*perThread)
	}
	// Walk the list: it must contain exactly one node per committed
	// transaction, and the arena must have exactly that many live blocks
	// (no leaks from aborted or replayed executions).
	count := 0
	for cur := nvm.Addr(heap.Load(listHead)); cur != nvm.NilAddr; cur = nvm.Addr(heap.Load(cur + 1)) {
		count++
		if count > goroutines*perThread {
			t.Fatal("list longer than the number of committed transactions (duplicate or cyclic nodes)")
		}
	}
	if count != goroutines*perThread {
		t.Fatalf("list has %d nodes, want %d", count, goroutines*perThread)
	}
	if live := eng.Arena().Stats().Live; live != goroutines*perThread {
		t.Fatalf("arena has %d live blocks, want %d (leak from retries)", live, goroutines*perThread)
	}
}

// TestTxTooLargeTyped drives a transaction that overflows a small undo log on
// both capacity paths — the Log phase running out of slots at a freshly
// wrapped log, and the chunked SGL section refusing more entries than half
// the log — and checks the failure is the typed ptm.ErrTxTooLarge (previously
// a panic), publishes nothing, and leaves the thread usable.
func TestTxTooLargeTyped(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 64})
	data := heap.MustCarve(256)
	th := eng.Register()
	err := th.Atomic(func(tx ptm.Tx) error {
		for w := 0; w < 200; w++ {
			tx.Store(data+nvm.Addr(w), 5)
		}
		return nil
	})
	if !errors.Is(err, ptm.ErrTxTooLarge) {
		t.Fatalf("oversized transaction: %v, want ErrTxTooLarge", err)
	}
	if errors.Is(err, ptm.ErrAborted) {
		t.Fatalf("capacity failure must not masquerade as a body abort: %v", err)
	}
	for w := 0; w < 200; w++ {
		if got := heap.Load(data + nvm.Addr(w)); got != 0 {
			t.Fatalf("word %d = %d published by rejected transaction", w, got)
		}
	}
	// Budget-sized transactions keep committing on the same thread.
	budget := eng.TxWriteBudget()
	if budget < 1 || budget > 64/4 {
		t.Fatalf("TxWriteBudget() = %d, want within the 64-entry log's quarter", budget)
	}
	if err := th.Atomic(func(tx ptm.Tx) error {
		for w := 0; w < budget; w++ {
			tx.Store(data+nvm.Addr(w), uint64(w)+1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := heap.Load(data); got != 1 {
		t.Fatalf("post-rejection commit lost: %d", got)
	}
}

func TestRegisterExhaustsDirectory(t *testing.T) {
	eng, _ := testEngine(t, 1<<18, Config{LogEntries: 64, MaxThreads: 2})
	if _, err := eng.RegisterThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterThread(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterThread(); err == nil {
		t.Fatal("expected directory-full error for third thread")
	}
}

func TestEngineNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "Crafty"},
		{Config{DisableRedo: true}, "Crafty-NoRedo"},
		{Config{DisableValidate: true}, "Crafty-NoValidate"},
	}
	for _, c := range cases {
		eng, _ := testEngine(t, 1<<16, c.cfg)
		if eng.Name() != c.want {
			t.Errorf("Name() = %q, want %q", eng.Name(), c.want)
		}
	}
}

func TestCloseRejectsNewThreads(t *testing.T) {
	eng, _ := testEngine(t, 1<<16, Config{LogEntries: 64})
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RegisterThread(); err == nil {
		t.Fatal("expected error registering on a closed engine")
	}
}

func TestWritesPerTxnStatistic(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 1024})
	data := heap.MustCarve(64)
	th := eng.Register()
	for i := 0; i < 10; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			for w := 0; w < 4; w++ {
				tx.Store(data+nvm.Addr(w), uint64(i))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := th.Stats().WritesPerTxn(); got != 4.0 {
		t.Fatalf("writes per transaction = %v, want 4", got)
	}
}
