// Package ptmtest provides a reusable conformance suite that every persistent
// transaction engine in this repository (Crafty, its variants, and all
// baselines) must pass: basic read/write visibility, user aborts,
// multi-threaded atomicity (no lost updates, conserved bank balances), and
// allocation hygiene. Engine packages call Run from their tests.
package ptmtest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"crafty/internal/alloc"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Factory builds a fresh engine over the given heap with an allocation arena
// of arenaWords words (Config.ArenaWords); zero builds it without one.
type Factory func(heap *nvm.Heap, arenaWords int) (ptm.Engine, error)

// Run executes the full conformance suite against engines built by factory.
func Run(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("ReadWriteVisibility", func(t *testing.T) { testReadWrite(t, factory) })
	t.Run("ReadYourOwnWrites", func(t *testing.T) { testReadOwnWrites(t, factory) })
	t.Run("UserAbort", func(t *testing.T) { testUserAbort(t, factory) })
	t.Run("SequentialCounter", func(t *testing.T) { testSequentialCounter(t, factory) })
	t.Run("NoLostUpdates", func(t *testing.T) { testNoLostUpdates(t, factory) })
	t.Run("BankConservation", func(t *testing.T) { testBankConservation(t, factory) })
	t.Run("AllocLifecycle", func(t *testing.T) { testAlloc(t, factory) })
	t.Run("NoArena", func(t *testing.T) { testNoArena(t, factory) })
	t.Run("StatsCount", func(t *testing.T) { testStats(t, factory) })
	t.Run("AtomicReadSeesCommitted", func(t *testing.T) { testAtomicReadSeesCommitted(t, factory) })
	t.Run("AtomicReadRejectsMutation", func(t *testing.T) { testAtomicReadRejectsMutation(t, factory) })
	t.Run("AtomicReadAbort", func(t *testing.T) { testAtomicReadAbort(t, factory) })
	t.Run("AtomicReadSnapshotIsolation", func(t *testing.T) { testAtomicReadSnapshotIsolation(t, factory) })
	t.Run("AtomicReadUnderLockFallback", func(t *testing.T) { testAtomicReadUnderLockFallback(t, factory) })
	t.Run("WriteBudgetHonored", func(t *testing.T) { testWriteBudget(t, factory) })
	t.Run("OversizedTxRejectedTyped", func(t *testing.T) { testOversizedTx(t, factory) })
}

func newHeap(t *testing.T) *nvm.Heap {
	t.Helper()
	return nvm.NewHeap(nvm.Config{Words: 1 << 20, PersistLatency: nvm.NoLatency})
}

func build(t *testing.T, factory Factory) (ptm.Engine, *nvm.Heap) {
	t.Helper()
	return buildWithArena(t, factory, 1<<16)
}

func buildWithArena(t *testing.T, factory Factory, arenaWords int) (ptm.Engine, *nvm.Heap) {
	t.Helper()
	heap := newHeap(t)
	eng, err := factory(heap, arenaWords)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, heap
}

func testReadWrite(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(16)
	th := eng.Register()
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 11)
		tx.Store(data+8, 22)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var a, b uint64
	if err := th.Atomic(func(tx ptm.Tx) error {
		a, b = tx.Load(data), tx.Load(data+8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if a != 11 || b != 22 {
		t.Fatalf("read back %d, %d; want 11, 22", a, b)
	}
}

func testReadOwnWrites(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(8)
	th := eng.Register()
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 5)
		if got := tx.Load(data); got != 5 {
			return fmt.Errorf("read own write: got %d", got)
		}
		tx.Store(data, tx.Load(data)+1)
		if got := tx.Load(data); got != 6 {
			return fmt.Errorf("read second write: got %d", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := heap.Load(data); got != 6 {
		t.Fatalf("final value %d, want 6", got)
	}
}

func testUserAbort(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(8)
	th := eng.Register()
	boom := errors.New("boom")
	err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 99)
		return boom
	})
	if !errors.Is(err, ptm.ErrAborted) || !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap ErrAborted and the body error", err)
	}
	var got uint64
	if err := th.Atomic(func(tx ptm.Tx) error {
		got = tx.Load(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("aborted write visible: %d", got)
	}
}

func testSequentialCounter(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(8)
	th := eng.Register()
	const n = 300
	for i := 0; i < n; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(data, tx.Load(data)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	var got uint64
	if err := th.AtomicRead(func(tx ptm.Tx) error { got = tx.Load(data); return nil }); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
}

func testNoLostUpdates(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	shared := heap.MustCarve(8)
	const goroutines = 4
	const perThread = 250
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			for i := 0; i < perThread; i++ {
				if err := th.Atomic(func(tx ptm.Tx) error {
					tx.Store(shared, tx.Load(shared)+1)
					return nil
				}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("thread %d: %v", g, err)
		}
	}
	if got := heap.Load(shared); got != goroutines*perThread {
		t.Fatalf("counter = %d, want %d (lost updates)", got, goroutines*perThread)
	}
}

func testBankConservation(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	const accounts = 8
	const initial = 1000
	base := heap.MustCarve(accounts * nvm.WordsPerLine)
	addrOf := func(i int) nvm.Addr { return base + nvm.Addr(i*nvm.WordsPerLine) }
	for i := 0; i < accounts; i++ {
		heap.Store(addrOf(i), initial)
	}
	const goroutines = 4
	const transfers = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			for i := 0; i < transfers; i++ {
				from := (g + i) % accounts
				to := (from + 1 + i%3) % accounts
				err := th.Atomic(func(tx ptm.Tx) error {
					amt := uint64(1 + i%4)
					tx.Store(addrOf(from), tx.Load(addrOf(from))-amt)
					tx.Store(addrOf(to), tx.Load(addrOf(to))+amt)
					return nil
				})
				if err != nil {
					t.Errorf("transfer %d/%d: %v", g, i, err)
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
		t.Fatalf("total balance %d, want %d", total, accounts*initial)
	}
}

func testAlloc(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	root := heap.MustCarve(8)
	th := eng.Register()
	if err := th.Atomic(func(tx ptm.Tx) error {
		node := tx.Alloc(4)
		tx.Store(node, 777)
		tx.Store(root, uint64(node))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	node := nvm.Addr(heap.Load(root))
	if node == nvm.NilAddr || heap.Load(node) != 777 {
		t.Fatalf("allocation not visible: node=%d", node)
	}
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Free(nvm.Addr(tx.Load(root)))
		tx.Store(root, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// testNoArena checks an engine built with ArenaWords == 0: transactions that
// do not allocate commit normally, and Tx.Alloc and Tx.Free fail the same way
// under every engine — a panic with alloc.ErrNoArena out of Atomic — leaving
// the thread usable.
func testNoArena(t *testing.T, factory Factory) {
	eng, heap := buildWithArena(t, factory, 0)
	data := heap.MustCarve(8)
	th := eng.Register()
	store := func(v uint64) {
		t.Helper()
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(data, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var got uint64
		if err := th.AtomicRead(func(tx ptm.Tx) error {
			got = tx.Load(data)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("AtomicRead saw %d, want %d", got, v)
		}
	}
	store(1)
	for name, body := range map[string]func(tx ptm.Tx) error{
		"Alloc": func(tx ptm.Tx) error { tx.Alloc(4); return nil },
		"Free":  func(tx ptm.Tx) error { tx.Free(data); return nil },
	} {
		r := func() (r any) {
			defer func() { r = recover() }()
			return th.Atomic(body)
		}()
		if r != alloc.ErrNoArena {
			t.Fatalf("Tx.%s without an arena: Atomic ended with %v, want a panic with alloc.ErrNoArena", name, r)
		}
	}
	store(2)
}

// testAtomicReadSeesCommitted checks that a read-only transaction observes
// every previously committed write, interleaved with further mutations.
func testAtomicReadSeesCommitted(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(16)
	th := eng.Register()
	for i := uint64(1); i <= 50; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(data, i)
			tx.Store(data+8, 2*i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		var a, b uint64
		if err := th.AtomicRead(func(tx ptm.Tx) error {
			a, b = tx.Load(data), tx.Load(data+8)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if a != i || b != 2*i {
			t.Fatalf("read-only txn saw (%d, %d) after committing (%d, %d)", a, b, i, 2*i)
		}
	}
}

// testAtomicReadRejectsMutation checks that Store, Alloc, and Free each fail
// a read-only body immediately with ptm.ErrReadOnlyTx, without corrupting
// any persistent state and without wedging the thread.
func testAtomicReadRejectsMutation(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(8)
	th := eng.Register()
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 41)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	mutations := map[string]func(tx ptm.Tx){
		"Store": func(tx ptm.Tx) { tx.Store(data, 999) },
		"Alloc": func(tx ptm.Tx) { tx.Alloc(4) },
		"Free":  func(tx ptm.Tx) { tx.Free(data) },
	}
	for name, mutate := range mutations {
		reached := false
		err := th.AtomicRead(func(tx ptm.Tx) error {
			_ = tx.Load(data)
			mutate(tx)
			reached = true // must be unreachable: the mutation fails fast
			return nil
		})
		if !errors.Is(err, ptm.ErrReadOnlyTx) {
			t.Fatalf("%s in read-only body: error %v, want ErrReadOnlyTx", name, err)
		}
		if reached {
			t.Fatalf("%s in read-only body did not stop the body", name)
		}
	}
	if got := heap.Load(data); got != 41 {
		t.Fatalf("state corrupted through read-only path: %d, want 41", got)
	}
	// The thread must remain usable for both kinds of transactions.
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, tx.Load(data)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := th.AtomicRead(func(tx ptm.Tx) error {
		got = tx.Load(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("after rejected mutations: read %d, want 42", got)
	}
}

// testAtomicReadAbort checks that a body error abandons the read-only
// transaction with the same wrapping semantics as Atomic.
func testAtomicReadAbort(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(8)
	th := eng.Register()
	boom := errors.New("boom")
	err := th.AtomicRead(func(tx ptm.Tx) error {
		_ = tx.Load(data)
		return boom
	})
	if !errors.Is(err, ptm.ErrAborted) || !errors.Is(err, boom) {
		t.Fatalf("error %v does not wrap ErrAborted and the body error", err)
	}
}

// testAtomicReadSnapshotIsolation runs read-only transactions against
// concurrent writers that maintain a two-word invariant (the words live on
// different cache lines, so a non-atomic reader could observe them torn): a
// read-only transaction must never see a writer's in-flight state.
func testAtomicReadSnapshotIsolation(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	x := heap.MustCarve(2 * nvm.WordsPerLine)
	y := x + nvm.WordsPerLine
	const writers = 2
	const readers = 2
	const perThread = 200
	var wg sync.WaitGroup
	errs := make([]error, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			for i := 0; i < perThread; i++ {
				if err := th.Atomic(func(tx ptm.Tx) error {
					v := tx.Load(x) + 1
					tx.Store(x, v)
					tx.Store(y, v)
					return nil
				}); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			prev := uint64(0)
			for i := 0; i < perThread; i++ {
				var a, b uint64
				if err := th.AtomicRead(func(tx ptm.Tx) error {
					a, b = tx.Load(x), tx.Load(y)
					return nil
				}); err != nil {
					errs[writers+g] = err
					return
				}
				if a != b {
					errs[writers+g] = fmt.Errorf("torn read: x=%d y=%d", a, b)
					return
				}
				if a < prev {
					errs[writers+g] = fmt.Errorf("counter went backwards: %d after %d", a, prev)
					return
				}
				prev = a
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := heap.Load(x); got != heap.Load(y) {
		t.Fatalf("final state torn: x=%d y=%d", got, heap.Load(y))
	}
}

// testAtomicReadUnderLockFallback runs readers against a writer that cannot
// commit in hardware: each write transaction dirties more cache lines than
// the emulated HTM's write capacity (512), so on the lock-eliding engines it
// exhausts its retries and completes under the single global lock, over and
// over, while read-only transactions check the lock word, abort on it, wait
// for it, and retry. One wide reader does the same from the read side: its
// read set exceeds the read capacity (8192 lines), so every one of its reads
// ends on the locked direct-read arm. On the lock-based engines the same
// bodies exercise the shared/exclusive lock. Every snapshot must be
// consistent (the writer keeps all its words equal), no read may fail, and
// each reader's ReadOnly + SGL outcomes must equal the reads it issued.
func testAtomicReadUnderLockFallback(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	const (
		writtenLines = 520  // > htm.Config.MaxWriteLines default
		wideLines    = 8200 // > htm.Config.MaxReadLines default
		writes       = 16
		minReads     = 40
		wideReads    = 3
	)
	// The writer's lines are the head of the wide reader's region; the rest
	// is never written and reads as zero.
	base := heap.MustCarve(wideLines * nvm.WordsPerLine)
	word := func(line int) nvm.Addr { return base + nvm.Addr(line*nvm.WordsPerLine) }

	var wg sync.WaitGroup
	var writerDone atomic.Bool
	start := make(chan struct{})
	errs := make([]error, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		th := eng.Register()
		<-start
		for i := 0; i < writes; i++ {
			if err := th.Atomic(func(tx ptm.Tx) error {
				v := tx.Load(word(0)) + 1
				for l := 0; l < writtenLines; l++ {
					tx.Store(word(l), v)
				}
				return nil
			}); err != nil {
				errs[0] = err
				return
			}
		}
	}()
	// reader issues at least n reads of the first lines lines, and keeps
	// going while the writer runs when untilWriterDone is set.
	reader := func(g, n, lines int, untilWriterDone bool) {
		defer wg.Done()
		th := eng.Register()
		<-start
		prev, issued := uint64(0), 0
		for ; issued < n || (untilWriterDone && !writerDone.Load()); issued++ {
			var first, torn uint64
			if err := th.AtomicRead(func(tx ptm.Tx) error {
				first, torn = tx.Load(word(0)), 0
				for l := 1; l < lines; l++ {
					if v := tx.Load(word(l)); l < writtenLines && v != first {
						torn = v
					}
				}
				return nil
			}); err != nil {
				errs[g] = fmt.Errorf("read %d: %w", issued, err)
				return
			}
			if torn != 0 {
				errs[g] = fmt.Errorf("torn snapshot: line 0 = %d, another line = %d", first, torn)
				return
			}
			if first < prev {
				errs[g] = fmt.Errorf("counter went backwards: %d after %d", first, prev)
				return
			}
			prev = first
			runtime.Gosched()
		}
		st := th.Stats()
		ro, sgl := st.Persistent[ptm.OutcomeReadOnly], st.Persistent[ptm.OutcomeSGL]
		if ro+sgl != uint64(issued) {
			errs[g] = fmt.Errorf("ReadOnly %d + SGL %d outcomes, want %d reads", ro, sgl, issued)
		}
		// A thread that ran hardware transactions at all cannot have fit a
		// wide read in one: each must have ended under the lock.
		if lines == wideLines && st.HTM.Total() > 0 && sgl != uint64(issued) {
			errs[g] = fmt.Errorf("wide reads: %d of %d ended under the lock", sgl, issued)
		}
	}
	wg.Add(3)
	go reader(1, minReads, writtenLines, true)
	go reader(2, minReads, writtenLines, true)
	go reader(3, wideReads, wideLines, false)
	close(start)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := heap.Load(word(0)); got != writes {
		t.Fatalf("line 0 = %d after %d write transactions", got, writes)
	}
}

// testWriteBudget checks that every engine advertises a positive
// per-transaction write budget and that a transaction performing exactly that
// many writes commits — the contract batching layers (kv.Store.Apply, the
// craftykv scheduler) size their groups against.
func testWriteBudget(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	b, ok := eng.(ptm.WriteBudgeter)
	if !ok {
		t.Fatalf("engine %s does not implement ptm.WriteBudgeter", eng.Name())
	}
	budget := b.TxWriteBudget()
	if budget < 1 {
		t.Fatalf("TxWriteBudget() = %d, want >= 1", budget)
	}
	// Cap the exercised size so engines with log-bound budgets (tens of
	// thousands of writes) keep the suite fast; the full budget still holds
	// by the engines' capacity arithmetic.
	writes := budget
	if writes > 4096 {
		writes = 4096
	}
	data := heap.MustCarve(writes)
	th := eng.Register()
	if err := th.Atomic(func(tx ptm.Tx) error {
		for w := 0; w < writes; w++ {
			tx.Store(data+nvm.Addr(w), uint64(w)+1)
		}
		return nil
	}); err != nil {
		t.Fatalf("budget-sized transaction (%d of %d writes): %v", writes, budget, err)
	}
	for w := 0; w < writes; w++ {
		if got := heap.Load(data + nvm.Addr(w)); got != uint64(w)+1 {
			t.Fatalf("word %d = %d after budget-sized commit", w, got)
		}
	}
}

// testOversizedTx drives a transaction far past the advertised budget: the
// engine must either commit it whole (engines with a fallback path that
// handles any size) or reject it with ptm.ErrTxTooLarge — and in the
// rejecting case publish none of its writes and remain fully usable.
func testOversizedTx(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	b, ok := eng.(ptm.WriteBudgeter)
	if !ok {
		t.Fatalf("engine %s does not implement ptm.WriteBudgeter", eng.Name())
	}
	writes := 4 * b.TxWriteBudget()
	if writes > 200_000 {
		writes = 200_000
	}
	data := heap.MustCarve(writes)
	th := eng.Register()
	err := th.Atomic(func(tx ptm.Tx) error {
		for w := 0; w < writes; w++ {
			tx.Store(data+nvm.Addr(w), 7)
		}
		return nil
	})
	switch {
	case err == nil:
		for w := 0; w < writes; w += 1 + writes/16 {
			if got := heap.Load(data + nvm.Addr(w)); got != 7 {
				t.Fatalf("word %d = %d after oversized commit", w, got)
			}
		}
	case errors.Is(err, ptm.ErrTxTooLarge):
		// All-or-nothing: a typed rejection must publish none of the writes.
		for w := 0; w < writes; w += 1 + writes/64 {
			if got := heap.Load(data + nvm.Addr(w)); got != 0 {
				t.Fatalf("word %d = %d after rejected oversized transaction", w, got)
			}
		}
	default:
		t.Fatalf("oversized transaction: %v, want success or ErrTxTooLarge", err)
	}
	// The thread must remain usable either way.
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(data, 99)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := heap.Load(data); got != 99 {
		t.Fatalf("post-oversized write = %d, want 99", got)
	}
}

func testStats(t *testing.T, factory Factory) {
	eng, heap := build(t, factory)
	data := heap.MustCarve(8)
	th := eng.Register()
	const n = 25
	for i := 0; i < n; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(data, uint64(i))
			tx.Store(data+1, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := eng.Stats()
	if s.Txns() != n {
		t.Fatalf("stats count %d transactions, want %d", s.Txns(), n)
	}
	if s.WritesPerTxn() != 2 {
		t.Fatalf("writes per txn = %v, want 2", s.WritesPerTxn())
	}
}
