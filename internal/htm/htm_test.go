package htm

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"crafty/internal/nvm"
)

func newEngine(t testing.TB, words int, cfg Config) *Engine {
	t.Helper()
	h := nvm.NewHeap(nvm.Config{Words: words, PersistLatency: nvm.NoLatency})
	return NewEngine(h, cfg)
}

// runUntilCommit retries a transaction until it commits; used by tests whose
// subject is not the abort behaviour itself. The bound is in time, not
// attempts, and each retry yields: a sibling descheduled while it holds a
// line's commit lock aborts every attempt until it runs again, which on a
// loaded host outlasted 10,000 back-to-back attempts in about 2% of runs.
func runUntilCommit(t testing.TB, th *Thread, body func(tx *Tx)) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for th.Run(body) != CauseNone {
		if time.Now().After(deadline) {
			t.Fatal("transaction failed to commit for 10 s")
		}
		runtime.Gosched()
	}
}

func TestCommitPublishesWrites(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	cause := th.Run(func(tx *Tx) {
		tx.Store(10, 7)
		tx.Store(20, 8)
	})
	if cause != CauseNone {
		t.Fatalf("commit failed: %v", cause)
	}
	if e.Heap().Load(10) != 7 || e.Heap().Load(20) != 8 {
		t.Fatal("committed writes not visible")
	}
}

func TestAbortedTransactionPublishesNothing(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	cause := th.Run(func(tx *Tx) {
		tx.Store(10, 7)
		tx.Abort()
	})
	if cause != CauseExplicit {
		t.Fatalf("cause = %v, want explicit", cause)
	}
	if e.Heap().Load(10) != 0 {
		t.Fatal("aborted transaction's write became visible")
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	runUntilCommit(t, th, func(tx *Tx) {
		tx.Store(10, 7)
		if got := tx.Load(10); got != 7 {
			t.Errorf("Load after Store inside txn = %d, want 7", got)
		}
		tx.Store(10, 9)
		if got := tx.Load(10); got != 9 {
			t.Errorf("Load after second Store = %d, want 9", got)
		}
	})
	if got := e.Heap().Load(10); got != 9 {
		t.Fatalf("final value = %d, want 9", got)
	}
}

func TestCapacityAbortOnWrites(t *testing.T) {
	e := newEngine(t, 1<<16, Config{MaxWriteLines: 4})
	th := e.NewThread(1)
	cause := th.Run(func(tx *Tx) {
		for i := 0; i < 5; i++ {
			tx.Store(nvm.Addr(8+i*nvm.WordsPerLine), 1)
		}
	})
	if cause != CauseCapacity {
		t.Fatalf("cause = %v, want capacity", cause)
	}
	// Writes to the same line do not consume extra capacity.
	cause = th.Run(func(tx *Tx) {
		for i := 0; i < 32; i++ {
			tx.Store(8, uint64(i))
		}
	})
	if cause != CauseNone {
		t.Fatalf("same-line writes aborted: %v", cause)
	}
}

func TestCapacityAbortOnReads(t *testing.T) {
	e := newEngine(t, 1<<16, Config{MaxReadLines: 4})
	th := e.NewThread(1)
	cause := th.Run(func(tx *Tx) {
		for i := 0; i < 5; i++ {
			tx.Load(nvm.Addr(8 + i*nvm.WordsPerLine))
		}
	})
	if cause != CauseCapacity {
		t.Fatalf("cause = %v, want capacity", cause)
	}
}

func TestZeroAbortInjection(t *testing.T) {
	e := newEngine(t, 1024, Config{SpuriousAbortProb: 1.0})
	th := e.NewThread(1)
	if cause := th.Run(func(tx *Tx) {}); cause != CauseZero {
		t.Fatalf("cause = %v, want zero", cause)
	}
	s := th.Stats()
	if s.Aborts[CauseZero] != 1 || s.Commits != 0 {
		t.Fatalf("unexpected stats %+v", s)
	}
}

func TestConflictDetectedOnOverlappingCommits(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	t1 := e.NewThread(1)
	t2 := e.NewThread(2)

	// t1 reads word 10, then t2 commits a write to it before t1 commits a
	// write elsewhere; t1 must observe a conflict.
	cause := t1.Run(func(tx *Tx) {
		_ = tx.Load(10)
		if c := t2.Run(func(tx2 *Tx) { tx2.Store(10, 99) }); c != CauseNone {
			t.Fatalf("t2 commit failed: %v", c)
		}
		tx.Store(200, 1)
	})
	if cause != CauseConflict {
		t.Fatalf("cause = %v, want conflict", cause)
	}
	if got := e.Heap().Load(200); got != 0 {
		t.Fatal("conflicting transaction's write became visible")
	}
}

func TestFalseSharingWithinLineConflicts(t *testing.T) {
	// Conflict detection is at cache-line granularity: accesses to different
	// words of the same line conflict, exactly as on real hardware.
	e := newEngine(t, 1024, Config{})
	t1 := e.NewThread(1)
	t2 := e.NewThread(2)
	cause := t1.Run(func(tx *Tx) {
		_ = tx.Load(16) // line 2
		if c := t2.Run(func(tx2 *Tx) { tx2.Store(17, 5) }); c != CauseNone {
			t.Fatalf("t2 commit failed: %v", c)
		}
		tx.Store(300, 1)
	})
	if cause != CauseConflict {
		t.Fatalf("cause = %v, want conflict (false sharing)", cause)
	}
}

func TestDisjointTransactionsDoNotConflict(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	t1 := e.NewThread(1)
	t2 := e.NewThread(2)
	cause := t1.Run(func(tx *Tx) {
		_ = tx.Load(16)
		tx.Store(16, 1)
		if c := t2.Run(func(tx2 *Tx) { tx2.Store(64, 5) }); c != CauseNone {
			t.Fatalf("t2 commit failed: %v", c)
		}
	})
	if cause != CauseNone {
		t.Fatalf("disjoint transactions conflicted: %v", cause)
	}
}

func TestNonTxStoreAbortsConflictingTransaction(t *testing.T) {
	// Strong isolation: a non-transactional store to a line a transaction has
	// read must abort the transaction (this is how single-global-lock
	// acquisition kills in-flight elided transactions).
	e := newEngine(t, 1024, Config{})
	t1 := e.NewThread(1)
	cause := t1.Run(func(tx *Tx) {
		_ = tx.Load(40)
		e.NonTxStore(40, 123)
		tx.Store(500, 1)
	})
	if cause != CauseConflict {
		t.Fatalf("cause = %v, want conflict from non-transactional store", cause)
	}
	if got := e.NonTxLoad(40); got != 123 {
		t.Fatalf("non-transactional store lost: %d", got)
	}
}

func TestNonTxCAS(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	if !e.NonTxCAS(33, 0, 1) {
		t.Fatal("CAS from zero failed")
	}
	if e.NonTxCAS(33, 0, 2) {
		t.Fatal("CAS with stale expected value succeeded")
	}
	if got := e.NonTxLoad(33); got != 1 {
		t.Fatalf("value = %d, want 1", got)
	}
}

func TestReadOnlyTransactionCommits(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	e.NonTxStore(10, 42)
	var got uint64
	if cause := th.Run(func(tx *Tx) { got = tx.Load(10) }); cause != CauseNone {
		t.Fatalf("read-only txn aborted: %v", cause)
	}
	if got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
	if s := th.Stats(); s.ExplicitCommit != 1 {
		t.Fatalf("read-only commit not counted: %+v", s)
	}
}

func TestNestedTransactionPanics(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nested transaction on the same thread")
		}
	}()
	th.Run(func(tx *Tx) {
		th.Run(func(tx2 *Tx) {})
	})
}

func TestBodyPanicsPropagate(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("expected body panic to propagate, got %v", r)
		}
	}()
	th.Run(func(tx *Tx) { panic("boom") })
}

// TestFaultInDoomedAttemptAborts: a body that panics after a line it read was
// republished has observed volatile state ahead of its snapshot at worst and
// could not have committed at best; Run reports a conflict, and the panic
// surfaces only from an attempt whose snapshot still holds.
func TestFaultInDoomedAttemptAborts(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	reader, writer := e.NewThread(1), e.NewThread(2)
	cause := reader.Run(func(tx *Tx) {
		tx.Load(8)
		runUntilCommit(t, writer, func(tx *Tx) { tx.Store(8, 1) })
		panic("side table disagrees with the snapshot")
	})
	if cause != CauseConflict {
		t.Fatalf("fault in a doomed attempt returned %v, want %v", cause, CauseConflict)
	}
	if got := reader.Stats().Aborts[CauseConflict]; got != 1 {
		t.Fatalf("conflict aborts = %d, want 1", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	th.Run(func(tx *Tx) { tx.Store(8, 1) })
	th.Run(func(tx *Tx) { tx.Abort() })
	s := th.Stats()
	if s.Commits != 1 || s.Aborts[CauseExplicit] != 1 || s.Total() != 2 {
		t.Fatalf("unexpected stats %+v", s)
	}
	var agg Stats
	agg.Add(s)
	agg.Add(s)
	if agg.Commits != 2 || agg.Total() != 4 {
		t.Fatalf("Add produced %+v", agg)
	}
}

// TestCounterAtomicity hammers a shared counter from several threads; the
// final value must equal the number of successful commits (lost updates are
// impossible if commits are truly atomic).
func TestCounterAtomicity(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	const goroutines = 8
	const perGoroutine = 3000
	counterAddr := nvm.Addr(64)

	var wg sync.WaitGroup
	commitCounts := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := e.NewThread(int64(g))
			for i := 0; i < perGoroutine; i++ {
				for {
					cause := th.Run(func(tx *Tx) {
						tx.Store(counterAddr, tx.Load(counterAddr)+1)
					})
					if cause == CauseNone {
						commitCounts[g]++
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, c := range commitCounts {
		total += c
	}
	if got := e.Heap().Load(counterAddr); got != uint64(total) {
		t.Fatalf("counter = %d, want %d (lost or duplicated updates)", got, total)
	}
}

// TestSnapshotConsistency checks opacity: a transaction that reads two words
// kept equal by all writers must never observe them unequal, even in attempts
// that ultimately abort.
func TestSnapshotConsistency(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	a, b := nvm.Addr(128), nvm.Addr(256) // different cache lines
	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		th := e.NewThread(99)
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			th.Run(func(tx *Tx) {
				tx.Store(a, i)
				tx.Store(b, i)
			})
		}
	}()

	reader := e.NewThread(1)
	for i := 0; i < 5000; i++ {
		reader.Run(func(tx *Tx) {
			va := tx.Load(a)
			vb := tx.Load(b)
			if va != vb {
				t.Errorf("opacity violated: read %d and %d", va, vb)
			}
		})
		if t.Failed() {
			break
		}
	}
	close(stop)
	writerWG.Wait()
}

// The same-line load path (Tx.Load): once a line is admitted, further loads
// from it compare the lock word against the admitted one and nothing else.

// TestSameLineLoadSeesInterveningStore: a strongly isolated store to the line
// between two loads from it must abort the second load, not let it return the
// new word beside the old one.
func TestSameLineLoadSeesInterveningStore(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	reached := false
	cause := th.Run(func(tx *Tx) {
		_ = tx.Load(40)
		e.NonTxStore(41, 123) // same line, another word
		_ = tx.Load(42)
		reached = true
	})
	if cause != CauseConflict || reached {
		t.Fatalf("cause = %v (body ran on: %t), want conflict at the second load", cause, reached)
	}
	if got := th.Stats().Aborts[CauseConflict]; got != 1 {
		t.Fatalf("conflict aborts = %d, want 1", got)
	}
}

// TestSameLineLoadsCountOneReadLine: however often and in whatever order two
// lines are read, they are two lines against MaxReadLines.
func TestSameLineLoadsCountOneReadLine(t *testing.T) {
	e := newEngine(t, 1<<16, Config{MaxReadLines: 2})
	th := e.NewThread(1)
	lineA, lineB := nvm.Addr(8*nvm.WordsPerLine), nvm.Addr(9*nvm.WordsPerLine)
	cause := th.Run(func(tx *Tx) {
		for round := 0; round < 3; round++ {
			for w := 0; w < nvm.WordsPerLine; w++ {
				tx.Load(lineA + nvm.Addr(w))
			}
			for w := 0; w < nvm.WordsPerLine; w++ {
				tx.Load(lineB + nvm.Addr(w))
				tx.Load(lineA + nvm.Addr(w)) // alternate: each load re-admits
			}
		}
	})
	if cause != CauseNone {
		t.Fatalf("two lines read repeatedly: cause = %v, want commit", cause)
	}
	cause = th.Run(func(tx *Tx) {
		tx.Load(lineA)
		tx.Load(lineA + 1)
		tx.Load(lineB)
		tx.Load(lineB + 10*nvm.WordsPerLine)
	})
	if cause != CauseCapacity {
		t.Fatalf("third line: cause = %v, want capacity", cause)
	}
}

// TestSameLineLoadReturnsOwnStore: the write buffer is consulted before the
// remembered line, so a load after the transaction's own store to a word of an
// admitted line returns the buffered value, and the line's other words still
// come from the snapshot.
func TestSameLineLoadReturnsOwnStore(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	e.NonTxStore(40, 5)
	e.NonTxStore(41, 6)
	th := e.NewThread(1)
	runUntilCommit(t, th, func(tx *Tx) {
		if got := tx.Load(40); got != 5 {
			t.Errorf("Load(40) = %d, want 5", got)
		}
		tx.Store(41, 60)
		if got := tx.Load(41); got != 60 {
			t.Errorf("Load(41) after Store = %d, want the buffered 60", got)
		}
		if got := tx.Load(40); got != 5 {
			t.Errorf("Load(40) after Store(41) = %d, want 5", got)
		}
	})
	if got := e.Heap().Load(41); got != 60 {
		t.Fatalf("committed value = %d, want 60", got)
	}
}

// TestSameLineInvariantNeverTorn checks opacity within one line: committers
// keep all eight words of a line equal, and a reader — seven of whose eight
// loads take the same-line path — never sees two different values, even in
// attempts that go on to abort.
func TestSameLineInvariantNeverTorn(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	base := nvm.Addr(16 * nvm.WordsPerLine)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			th := e.NewThread(seed)
			for i := uint64(seed) << 32; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				th.Run(func(tx *Tx) {
					for k := 0; k < nvm.WordsPerLine; k++ {
						tx.Store(base+nvm.Addr(k), i)
					}
				})
			}
		}(int64(w + 1))
	}

	reader := e.NewThread(9)
	for i := 0; i < 20000 && !t.Failed(); i++ {
		reader.Run(func(tx *Tx) {
			first := tx.Load(base)
			for k := 1; k < nvm.WordsPerLine; k++ {
				if v := tx.Load(base + nvm.Addr(k)); v != first {
					t.Errorf("torn line: word 0 = %d, word %d = %d", first, k, v)
				}
			}
		})
	}
	close(stop)
	writers.Wait()
	// Doomed attempts are checked word by word like committed ones, so a run
	// in which the writers never let the reader commit still tested the path.
	t.Logf("reader outcomes: %+v", reader.Stats())
}

// The per-line write set (txset.go): one entry per written line, a mask of
// the words buffered in it, published entry by entry.

// TestLoadOfUnwrittenWordInWrittenLineIsValidated: having written word 0 of a
// line does not make the line's other words the transaction's own. A load of
// word 1 comes from the snapshot and enters the line in the read set, so a
// commit to word 1 in between must abort the transaction, not be overwritten
// by a writer that never saw it.
func TestLoadOfUnwrittenWordInWrittenLineIsValidated(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	t1, t2 := e.NewThread(1), e.NewThread(2)
	line := nvm.Addr(5 * nvm.WordsPerLine)
	cause := t1.Run(func(tx *Tx) {
		tx.Store(line, 1)
		seen := tx.Load(line + 1)
		runUntilCommit(t, t2, func(tx *Tx) { tx.Store(line+1, 99) })
		tx.Store(line+2, seen)
	})
	if cause != CauseConflict {
		t.Fatalf("cause = %v, want %v", cause, CauseConflict)
	}
	if got := [3]uint64{e.Heap().Load(line), e.Heap().Load(line + 1), e.Heap().Load(line + 2)}; got != [3]uint64{0, 99, 0} {
		t.Fatalf("line holds %v, want [0 99 0]: the aborted writer published", got)
	}
}

// TestSameLineBlindWritersBothSurvive pins "publish only the masked words":
// two threads write disjoint words of one line and read nothing, so neither
// conflicts with the other's data, and each word must end at its own thread's
// last value. An entry published whole would carry the other word's stale
// buffer over it.
func TestSameLineBlindWritersBothSurvive(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	line := nvm.Addr(7 * nvm.WordsPerLine)
	const commits = 2000
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(word nvm.Addr) {
			defer wg.Done()
			th := e.NewThread(int64(word) + 1)
			for i := uint64(1); i <= commits; i++ {
				runUntilCommit(t, th, func(tx *Tx) { tx.Store(line+word, i<<8|uint64(word)) })
			}
		}(nvm.Addr(w))
	}
	wg.Wait()
	for w := nvm.Addr(0); w < nvm.WordsPerLine; w++ {
		want := uint64(0)
		if w < 2 {
			want = commits<<8 | uint64(w)
		}
		if got := e.Heap().Load(line + w); got != want {
			t.Fatalf("word %d = %#x, want %#x", w, got, want)
		}
	}
}

// TestCapacityCountsDeferredOnlyLines: a line entered only by StoreCommitTS is
// a written line against MaxWriteLines, and the abort fires on the call that
// makes one line too many, whichever kind of store it is.
func TestCapacityCountsDeferredOnlyLines(t *testing.T) {
	e := newEngine(t, 1<<16, Config{MaxWriteLines: 4})
	th := e.NewThread(1)
	lineAddr := func(i int) nvm.Addr { return nvm.Addr((8 + i) * nvm.WordsPerLine) }

	step := 0
	cause := th.Run(func(tx *Tx) {
		for i := 0; i < 4; i++ {
			tx.Store(lineAddr(i), 1)
			tx.StoreCommitTS(lineAddr(i)+1, 0, 0) // a written line: no new capacity
		}
		step = 1
		tx.StoreCommitTS(lineAddr(4), 0, 0)
		step = 2
	})
	if cause != CauseCapacity || step != 1 {
		t.Fatalf("4 plain lines + 1 deferred line: cause = %v at step %d, want capacity at the deferred store", cause, step)
	}

	step = 0
	cause = th.Run(func(tx *Tx) {
		tx.StoreCommitTS(lineAddr(0), 0, 0)
		for i := 1; i < 4; i++ {
			tx.Store(lineAddr(i), 1)
		}
		step = 1
		tx.Store(lineAddr(4), 1)
		step = 2
	})
	if cause != CauseCapacity || step != 1 {
		t.Fatalf("1 deferred line + 4 plain lines: cause = %v at step %d, want capacity at the fifth line", cause, step)
	}
	if cause := th.Run(func(tx *Tx) {
		tx.StoreCommitTS(lineAddr(0), 0, 0)
		for i := 1; i < 4; i++ {
			tx.Store(lineAddr(i), 1)
		}
	}); cause != CauseNone {
		t.Fatalf("exactly MaxWriteLines lines: cause = %v, want commit", cause)
	}
}

// TestCommitTimestampStore: a deferred store's value is built from the commit
// timestamp, it wins over the body's plain stores to its word whichever came
// first, the line's other buffered words are published beside it, and until
// commit the word reads as the body last left it.
func TestCommitTimestampStore(t *testing.T) {
	e := newEngine(t, 1024, Config{})
	th := e.NewThread(1)
	line := nvm.Addr(9 * nvm.WordsPerLine)
	e.NonTxStore(line+3, 5)
	runUntilCommit(t, th, func(tx *Tx) {
		tx.Store(line, 11)
		tx.StoreCommitTS(line, 1, 1)     // after a plain store to the word
		tx.StoreCommitTS(line+1, 0, 0)   // before one
		tx.StoreCommitTS(line+3, 0, 0)   // a word never stored to
		tx.StoreCommitTS(line+8, 4, 0xf) // a line of its own
		tx.Store(line+1, 22)
		tx.Store(line+2, 33)
		if a, b, c := tx.Load(line), tx.Load(line+1), tx.Load(line+3); a != 11 || b != 22 || c != 5 {
			t.Errorf("before commit the words read %d, %d, %d, want 11, 22, 5", a, b, c)
		}
	})
	ts := th.CommitTS()
	want := map[nvm.Addr]uint64{line: ts<<1 | 1, line + 1: ts, line + 2: 33, line + 3: ts, line + 4: 0, line + 8: ts<<4 | 0xf, line + 9: 0}
	for a, w := range want {
		if got := e.Heap().Load(a); got != w {
			t.Errorf("word %d = %#x, want %#x (commit timestamp %d)", a, got, w, ts)
		}
	}
}

// TestStoreBadAddressPublishesNothing: a store to the nil address, or past the
// heap, is the body's fault and faults in the body. Raised from commit it
// would leave the stores before it published, the ones after it not, and the
// lines locked so far locked for good — all of which a caller that recovers
// from Run's panic would then go on to use.
func TestStoreBadAddressPublishesNothing(t *testing.T) {
	const words = 1024
	for _, bad := range []nvm.Addr{nvm.NilAddr, words, words + 3*nvm.WordsPerLine} {
		e := newEngine(t, words, Config{})
		th := e.NewThread(1)
		base := nvm.Addr(3 * nvm.WordsPerLine)
		reached := false
		func() {
			defer func() {
				r := recover()
				if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("bad address %d: Run panicked with %v, want nvm's address error", bad, r)
				}
			}()
			th.Run(func(tx *Tx) {
				tx.Store(base, 7)
				tx.Store(bad, 1)
				reached = true
				tx.Store(base+nvm.WordsPerLine, 9)
			})
			t.Fatalf("bad address %d: Run returned", bad)
		}()
		if reached {
			t.Fatalf("bad address %d: the body ran on past the store", bad)
		}
		if a, b := e.Heap().Load(base), e.Heap().Load(base+nvm.WordsPerLine); a != 0 || b != 0 {
			t.Fatalf("bad address %d: words hold %d and %d, want both unpublished", bad, a, b)
		}
		for line := range e.locks {
			if lw := e.locks[line].Load(); isLocked(lw) {
				t.Fatalf("bad address %d: line %d left locked (%#x)", bad, line, lw)
			}
		}
		if n := e.activeCommitters.Load(); n != 0 {
			t.Fatalf("bad address %d: activeCommitters = %d, want 0", bad, n)
		}
		runUntilCommit(t, th, func(tx *Tx) { tx.Store(base, tx.Load(base)+1) })
		if got := e.Heap().Load(base); got != 1 {
			t.Fatalf("bad address %d: the thread's next transaction left %d, want 1", bad, got)
		}
	}

	// A line admitted by a good word does not vouch for its bad ones: word 0
	// beside word 1, the tail of a partial last line beside its head.
	e := newEngine(t, 1024+4, Config{})
	th := e.NewThread(1)
	for _, pair := range [][2]nvm.Addr{{1, nvm.NilAddr}, {1024 + 3, 1024 + 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("store to %d after %d did not fault", pair[1], pair[0])
				}
			}()
			th.Run(func(tx *Tx) {
				tx.Store(pair[0], 7)
				tx.Store(pair[1], 1)
			})
		}()
		if got := e.Heap().Load(pair[0]); got != 0 {
			t.Fatalf("store to %d after %d: the good word was published (%d)", pair[1], pair[0], got)
		}
	}
}

// TestSerializabilityProperty runs randomized increments over a small set of
// words from several threads and checks the final sums match the committed
// operation counts exactly.
func TestSerializabilityProperty(t *testing.T) {
	prop := func(seed uint32, nWordsRaw uint8) bool {
		nWords := 1 + int(nWordsRaw)%4
		e := newEngine(t, 4096, Config{})
		const goroutines = 4
		const ops = 300
		committed := make([][]int, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			committed[g] = make([]int, nWords)
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				th := e.NewThread(int64(seed) + int64(g))
				for i := 0; i < ops; i++ {
					w := (i*7 + g) % nWords
					addr := nvm.Addr(8 + w*nvm.WordsPerLine)
					for {
						if th.Run(func(tx *Tx) { tx.Store(addr, tx.Load(addr)+1) }) == CauseNone {
							committed[g][w]++
							break
						}
					}
				}
			}(g)
		}
		wg.Wait()
		for w := 0; w < nWords; w++ {
			want := 0
			for g := 0; g < goroutines; g++ {
				want += committed[g][w]
			}
			if e.Heap().Load(nvm.Addr(8+w*nvm.WordsPerLine)) != uint64(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortCauseString(t *testing.T) {
	cases := map[AbortCause]string{
		CauseNone:     "commit",
		CauseConflict: "conflict",
		CauseCapacity: "capacity",
		CauseExplicit: "explicit",
		CauseZero:     "zero",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}
