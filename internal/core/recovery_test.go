package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

func TestEntryEncodingRoundTrip(t *testing.T) {
	prop := func(tagRaw uint32, payload uint64, wrapRaw bool) bool {
		tag := uint64(tagRaw)
		wrap := uint64(0)
		if wrapRaw {
			wrap = 1
		}
		tagWord, payloadWord := encodeEntry(tag, payload, wrap)
		gotTag, gotPayload, wrapTag, wrapPayload := decodeEntry(tagWord, payloadWord)
		return gotTag == tag && gotPayload == payload && wrapTag == wrap && wrapPayload == wrap
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarkerEncoding(t *testing.T) {
	for _, marker := range []uint64{markerLogged, markerCommitted} {
		tagWord, payloadWord := encodeEntry(marker, 123456789, 1)
		tag, payload, _, _ := decodeEntry(tagWord, payloadWord)
		if !isMarker(tag) || tag != marker {
			t.Fatalf("marker %#x decoded to %#x", marker, tag)
		}
		if payload != 123456789 {
			t.Fatalf("marker payload = %d, want 123456789", payload)
		}
	}
	if isMarker(42) {
		t.Fatal("ordinary address classified as marker")
	}
}

// buildLog writes a hand-constructed log directly into a heap and returns the
// layout pieces scanLog needs.
type logBuilder struct {
	heap *nvm.Heap
	base nvm.Addr
	slot int
}

func newLogBuilder(t *testing.T, heap *nvm.Heap, capEntries int) *logBuilder {
	t.Helper()
	base := heap.MustCarve(capEntries * entryWords)
	return &logBuilder{heap: heap, base: base}
}

func (b *logBuilder) put(slot int, tag, payload, wrap uint64) {
	tagWord, payloadWord := encodeEntry(tag, payload, wrap)
	b.heap.Store(b.base+nvm.Addr(slot*entryWords), tagWord)
	b.heap.Store(b.base+nvm.Addr(slot*entryWords)+1, payloadWord)
}

func TestScanLogFindsSequences(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 14, PersistLatency: nvm.NoLatency})
	b := newLogBuilder(t, heap, 32)
	// Sequence 1: two data entries + marker (ts 10).
	b.put(0, 100, 7, 1)
	b.put(1, 101, 8, 1)
	b.put(2, markerCommitted, 10, 1)
	// Sequence 2: one data entry + marker (ts 12).
	b.put(3, 102, 9, 1)
	b.put(4, markerLogged, 12, 1)

	seqs := scanLog(heap, b.base, 32, 0)
	if len(seqs) != 2 {
		t.Fatalf("found %d sequences, want 2: %+v", len(seqs), seqs)
	}
	if seqs[0].ts != 10 || len(seqs[0].entries) != 2 || seqs[0].entries[0].addr != 100 || seqs[0].entries[0].old != 7 {
		t.Fatalf("first sequence wrong: %+v", seqs[0])
	}
	if seqs[1].ts != 12 || len(seqs[1].entries) != 1 {
		t.Fatalf("second sequence wrong: %+v", seqs[1])
	}
}

func TestScanLogIgnoresTornEntries(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 14, PersistLatency: nvm.NoLatency})
	b := newLogBuilder(t, heap, 32)
	// A torn data entry: tag word persisted with wrap bit 1, payload word
	// still holds the pre-wrap value (bit 0).
	tagWord, _ := encodeEntry(100, 7, 1)
	heap.Store(b.base, tagWord)
	heap.Store(b.base+1, 0)
	// A marker following the torn entry must not produce a sequence that
	// includes garbage, nor may anything after it in the run be trusted.
	b.put(1, markerCommitted, 10, 1)

	seqs := scanLog(heap, b.base, 32, 0)
	for _, s := range seqs {
		if len(s.entries) != 0 {
			t.Fatalf("torn entry leaked into a sequence: %+v", s)
		}
	}
}

func TestScanLogSeparatesEpochs(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 14, PersistLatency: nvm.NoLatency})
	b := newLogBuilder(t, heap, 8)
	// New epoch (bit 0 after a wrap from bit 1) occupies slots 0–1; the old
	// epoch's surviving content occupies slots 2–7.
	b.put(0, 200, 5, 0)
	b.put(1, markerCommitted, 40, 0)
	// Old epoch: slots 2-3 are the tail of a partially overwritten sequence
	// (its beginning was at slots 0-1 before the wrap) ending in a marker at
	// slot 4; it must be ignored. Slots 5-7 hold an intact old sequence.
	b.put(2, 300, 1, 1)
	b.put(3, 301, 2, 1)
	b.put(4, markerCommitted, 20, 1)
	b.put(5, 302, 3, 1)
	b.put(6, 303, 4, 1)
	b.put(7, markerCommitted, 30, 1)

	seqs := scanLog(heap, b.base, 8, 0)
	if len(seqs) != 2 {
		t.Fatalf("found %d sequences, want 2 (new-epoch one and the intact old one): %+v", len(seqs), seqs)
	}
	var have40, have30 bool
	for _, s := range seqs {
		switch s.ts {
		case 40:
			have40 = true
		case 30:
			have30 = true
		case 20:
			t.Fatalf("partially overwritten old sequence (ts 20) was accepted: %+v", s)
		}
	}
	if !have40 || !have30 {
		t.Fatalf("missing expected sequences: %+v", seqs)
	}
}

func TestRecoverRollsBackUncommittedSequence(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 256})
	data := heap.MustCarve(8)
	heap.Store(data, 5)
	persistWord(heap, data)

	th, err := eng.RegisterThread()
	if err != nil {
		t.Fatal(err)
	}
	// Run only the Log phase: the undo entries are persisted but the
	// transaction's writes are never performed (as if the thread crashed
	// between its Log and Redo phases).
	var a attempt
	th.inUse.Store(true)
	if cause := th.logPhase(func(tx ptm.Tx) error {
		tx.Store(data, 99)
		return nil
	}, &a); cause != 0 {
		t.Fatalf("log phase aborted: %v", cause)
	}
	th.flusher.FlushRange(th.log.slotAddr(a.startSlot), (a.writes+1)*entryWords)
	th.flusher.Drain()
	th.inUse.Store(false)

	if got := heap.Load(data); got != 5 {
		t.Fatalf("log phase leaked a program write: %d", got)
	}

	heap.Crash(nvm.PersistAll{})
	report, err := Recover(heap, eng.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if report.SequencesRolledBack == 0 {
		t.Fatal("expected the uncommitted sequence to be rolled back")
	}
	if got := heap.Load(data); got != 5 {
		t.Fatalf("recovered value = %d, want 5", got)
	}
}

// TestSyncDurableSurvivesWorstCaseCrash: transactions committed before
// SyncDurable survive a crash that loses every unfenced word (persist
// probability 0) — the deterministic guarantee behind craftykv's SYNC. The
// drained empty marker is what recovery sees as each thread's newest
// persisted sequence, so the rollback window R (min over threads) stays
// above every synced commit and the rolled-back markers restore nothing.
func TestSyncDurableSurvivesWorstCaseCrash(t *testing.T) {
	eng, heap := testEngine(t, 1<<18, Config{LogEntries: 256})
	const threads, txns = 3, 4
	data := heap.MustCarve(threads * txns)
	ths := make([]*Thread, threads)
	for i := range ths {
		th, err := eng.RegisterThread()
		if err != nil {
			t.Fatal(err)
		}
		ths[i] = th
	}
	// Interleave commits across threads, then barrier every thread — the
	// rollback window R is the minimum over threads of the newest persisted
	// sequence, so the sync markers must postdate all data on all threads
	// (exactly how craftykv's SYNC barriers every worker at one point).
	for j := 0; j < txns; j++ {
		for i, th := range ths {
			addr := data + nvm.Addr(i*txns+j)
			want := uint64(100*i + j)
			if err := th.Atomic(func(tx ptm.Tx) error {
				tx.Store(addr, want)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, th := range ths {
		if err := th.SyncDurable(); err != nil {
			t.Fatal(err)
		}
	}

	heap.Crash(nvm.NewRandomPolicy(3, 0))
	report, err := Recover(heap, eng.Layout())
	if err != nil {
		t.Fatal(err)
	}
	// Only the drained empty markers may sit inside the rollback window; no
	// committed data may be restored.
	if report.WordsRestored != 0 {
		t.Fatalf("recovery restored %d words over synced data: %+v", report.WordsRestored, report)
	}
	for i := 0; i < threads; i++ {
		for j := 0; j < txns; j++ {
			addr := data + nvm.Addr(i*txns+j)
			if got, want := heap.Load(addr), uint64(100*i+j); got != want {
				t.Fatalf("thread %d txn %d: synced write lost: got %d, want %d", i, j, got, want)
			}
		}
	}
}

// persistWord force-persists a single word so test setup state survives
// crashes.
func persistWord(heap *nvm.Heap, addr nvm.Addr) {
	f := heap.NewFlusher()
	f.FlushRange(addr, 1)
	f.Drain()
}

func TestRecoverOnEmptyLogsIsNoOp(t *testing.T) {
	eng, heap := testEngine(t, 1<<16, Config{LogEntries: 64})
	eng.Register()
	heap.Crash(nvm.PersistAll{})
	report, err := Recover(heap, eng.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if report.SequencesRolledBack != 0 || report.WordsRestored != 0 {
		t.Fatalf("recovery on empty logs did work: %+v", report)
	}
}

func TestRecoverInvalidLayout(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 10, PersistLatency: nvm.NoLatency, TrackPersistence: true})
	if _, err := Recover(heap, Layout{}); err == nil {
		t.Fatal("expected error for zero layout")
	}
}

// crashConsistencyInvariant runs a multithreaded pair-increment workload,
// crashes under the given policy, recovers, and checks that every pair of
// words is still equal (each transaction increments both words of one pair,
// so any atomicity or recovery bug shows up as a mismatch).
func crashConsistencyInvariant(t *testing.T, policy nvm.CrashPolicy, opsPerThread int, cfg Config) {
	t.Helper()
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 20, PersistLatency: nvm.NoLatency, TrackPersistence: true})
	eng, err := NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pairs = 8
	base := heap.MustCarve(pairs * nvm.WordsPerLine)
	pairAddr := func(i int) nvm.Addr { return base + nvm.Addr(i*nvm.WordsPerLine) }

	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			th := eng.Register()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for i := 0; i < opsPerThread; i++ {
				p := pairAddr(rng.Intn(pairs))
				err := th.Atomic(func(tx ptm.Tx) error {
					v := tx.Load(p)
					tx.Store(p, v+1)
					tx.Store(p+1, tx.Load(p+1)+1)
					return nil
				})
				if err != nil {
					t.Errorf("increment %d/%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	heap.Crash(policy)
	if _, err := Recover(heap, eng.Layout()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < pairs; i++ {
		a, b := heap.Load(pairAddr(i)), heap.Load(pairAddr(i)+1)
		if a != b {
			t.Fatalf("pair %d torn after recovery: %d vs %d (policy %T)", i, a, b, policy)
		}
		if a > uint64(goroutines*opsPerThread) {
			t.Fatalf("pair %d counted %d increments, more than ever executed", i, a)
		}
	}
}

func TestCrashConsistencyPersistAll(t *testing.T) {
	crashConsistencyInvariant(t, nvm.PersistAll{}, 150, Config{LogEntries: 2048})
}

func TestCrashConsistencyPersistNone(t *testing.T) {
	crashConsistencyInvariant(t, nvm.PersistNone{}, 150, Config{LogEntries: 2048})
}

func TestCrashConsistencyRandomPolicies(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		crashConsistencyInvariant(t, nvm.NewRandomPolicy(seed, 0.5), 100, Config{LogEntries: 2048})
	}
}

func TestCrashConsistencyWithLogWraparound(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		crashConsistencyInvariant(t, nvm.NewRandomPolicy(seed, 0.5), 120, Config{LogEntries: 64})
	}
}

func TestCrashConsistencyNoValidateVariant(t *testing.T) {
	crashConsistencyInvariant(t, nvm.NewRandomPolicy(42, 0.5), 100, Config{LogEntries: 2048, DisableValidate: true})
}

func TestCrashConsistencyNoRedoVariant(t *testing.T) {
	crashConsistencyInvariant(t, nvm.NewRandomPolicy(43, 0.5), 100, Config{LogEntries: 2048, DisableRedo: true})
}

func TestCrashConsistencySGLHeavy(t *testing.T) {
	cfg := Config{LogEntries: 2048, MaxRetries: 1}
	cfg.HTM.SpuriousAbortProb = 0.3
	crashConsistencyInvariant(t, nvm.NewRandomPolicy(44, 0.5), 80, cfg)
}

func TestRecoveredStateIsSerializationPrefix(t *testing.T) {
	// Single-threaded monotone history: a counter is incremented by 1 per
	// transaction, so the recovered value must be between 0 and the number of
	// committed transactions, and equal to some prefix length.
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency, TrackPersistence: true})
	eng, err := NewEngine(heap, Config{LogEntries: 512})
	if err != nil {
		t.Fatal(err)
	}
	counter := heap.MustCarve(8)
	th := eng.Register()
	const n = 200
	for i := 0; i < n; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(counter, tx.Load(counter)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	heap.Crash(nvm.NewRandomPolicy(7, 0.6))
	if _, err := Recover(heap, eng.Layout()); err != nil {
		t.Fatal(err)
	}
	got := heap.Load(counter)
	if got > n {
		t.Fatalf("recovered counter %d exceeds committed count %d", got, n)
	}
}

func TestReopenAfterRecoveryAndContinue(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 19, PersistLatency: nvm.NoLatency, TrackPersistence: true})
	cfg := Config{LogEntries: 512}
	eng, err := NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := eng.Layout()
	counter := heap.MustCarve(8)
	th := eng.Register()
	for i := 0; i < 100; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(counter, tx.Load(counter)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	heap.Crash(nvm.PersistAll{})
	report, err := Recover(heap, layout)
	if err != nil {
		t.Fatal(err)
	}
	afterCrash := heap.Load(counter)
	if afterCrash > 100 {
		t.Fatalf("recovered counter %d exceeds committed count", afterCrash)
	}

	// Reopen the engine on the recovered heap and keep going; the clock must
	// be advanced past every recovered timestamp so new sequences order after
	// old ones.
	eng2, err := Open(heap, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng2.AdvanceClock(report.MaxTimestamp)
	th2 := eng2.Register()
	for i := 0; i < 50; i++ {
		if err := th2.Atomic(func(tx ptm.Tx) error {
			tx.Store(counter, tx.Load(counter)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := heap.Load(counter); got != afterCrash+50 {
		t.Fatalf("counter after reopen = %d, want %d", got, afterCrash+50)
	}

	// A second crash-and-recover cycle must also be consistent.
	heap.Crash(nvm.NewRandomPolicy(11, 0.5))
	if _, err := Recover(heap, layout); err != nil {
		t.Fatal(err)
	}
	if got := heap.Load(counter); got > afterCrash+50 {
		t.Fatalf("second recovery produced %d, more than ever committed", got)
	}
}

// TestOpenAdvancesClockPastPersistedRedoTS covers the recovery edge of the
// Redo check: gLastRedoTS's line is never flushed, so a crash can leave it
// ahead of every timestamp in the surviving logs. Open must move the clock
// past it, or every Log phase would be stamped below it and no transaction
// could commit through Redo.
func TestOpenAdvancesClockPastPersistedRedoTS(t *testing.T) {
	eng, heap := testEngine(t, 1<<16, Config{LogEntries: 256})
	cfg, layout := Config{LogEntries: 256}, eng.Layout()
	counter := heap.MustCarve(8)
	th0 := eng.Register()
	for range 10 {
		if err := increment(th0, counter); err != nil {
			t.Fatal(err)
		}
	}

	heap.Crash(nvm.PersistAll{})
	report, err := Recover(heap, layout)
	if err != nil {
		t.Fatal(err)
	}
	redoTS := layout.GlobalsBase + offGLastRedoTS
	heap.Store(redoTS, report.MaxTimestamp+1000)
	persistWord(heap, redoTS)

	eng2, err := Open(heap, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng2.AdvanceClock(report.MaxTimestamp)
	th := eng2.Register()
	if err := increment(th, counter); err != nil {
		t.Fatal(err)
	}
	if got := outcomes(t, th); got[ptm.OutcomeRedo] != 1 {
		t.Fatalf("first transaction after reopen: outcomes %v, want one Redo commit", got)
	}
}

func TestRecoveryIdempotent(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 18, PersistLatency: nvm.NoLatency, TrackPersistence: true})
	eng, err := NewEngine(heap, Config{LogEntries: 256})
	if err != nil {
		t.Fatal(err)
	}
	counter := heap.MustCarve(8)
	th := eng.Register()
	for i := 0; i < 50; i++ {
		if err := th.Atomic(func(tx ptm.Tx) error {
			tx.Store(counter, tx.Load(counter)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	heap.Crash(nvm.PersistAll{})
	if _, err := Recover(heap, eng.Layout()); err != nil {
		t.Fatal(err)
	}
	first := heap.Load(counter)
	report, err := Recover(heap, eng.Layout())
	if err != nil {
		t.Fatal(err)
	}
	if report.SequencesRolledBack != 0 {
		t.Fatalf("second recovery rolled back %d sequences", report.SequencesRolledBack)
	}
	if got := heap.Load(counter); got != first {
		t.Fatalf("second recovery changed state: %d -> %d", first, got)
	}
}
