package core

import (
	"math/rand"
	"runtime"
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

// entries decodes a scanned sequence's data entries, oldest first.
func (b *logBuilder) entries(s sequence) []undoRec {
	var out []undoRec
	for i := s.start; i < s.end; i++ {
		addr := b.base + nvm.Addr(i*entryWords)
		tag, old, _, _ := decodeEntry(b.heap.Load(addr), b.heap.Load(addr+1))
		out = append(out, undoRec{addr: nvm.Addr(tag), old: old})
	}
	return out
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

	seqs, used := scanLog(heap, b.base, 32, nil)
	if len(seqs) != 2 || used != 5 {
		t.Fatalf("found %d sequences in %d used slots, want 2 in 5: %+v", len(seqs), used, seqs)
	}
	if e := b.entries(seqs[0]); seqs[0].ts != 10 || len(e) != 2 || e[0].addr != 100 || e[0].old != 7 {
		t.Fatalf("first sequence wrong: %+v %+v", seqs[0], e)
	}
	if seqs[1].ts != 12 || len(b.entries(seqs[1])) != 1 {
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

	seqs, _ := scanLog(heap, b.base, 32, nil)
	for _, s := range seqs {
		if s.end != s.start {
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

	seqs, _ := scanLog(heap, b.base, 8, nil)
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

// persistRange is a crash policy that keeps the unfenced words of [lo, hi)
// and loses every other one.
type persistRange struct{ lo, hi nvm.Addr }

func (p persistRange) Persist(a nvm.Addr) bool { return a >= p.lo && a < p.hi }

// errStopped is the panic value a beforeDrain hook uses to stop Recover at
// the crash it injected.
type errStopped struct{}

// recoverCrashingAt runs Recover with a hook that, once Recover reaches the
// drain at point, crashes the heap under policy and stops Recover there, as a
// power failure at that instant would.
func recoverCrashingAt(t *testing.T, heap *nvm.Heap, layout Layout, at drainPoint, policy nvm.CrashPolicy) {
	t.Helper()
	beforeDrain = func(point drainPoint) {
		if point == at {
			heap.Crash(policy)
			panic(errStopped{})
		}
	}
	defer func() { beforeDrain = nil }()
	defer func() {
		if r := recover(); r != (errStopped{}) {
			t.Fatalf("Recover was not stopped at drain point %d (recovered %v)", at, r)
		}
	}()
	if _, err := Recover(heap, layout); err != nil {
		t.Fatal(err)
	}
}

// fourSequences is a crashed heap whose two logs hold four sequences, each
// incrementing its own word once, in the order a1 < b1 < a2 < b2: thread A
// writes x then p, thread B writes y then q. Recovery rolls back a2 and b2.
type fourSequences struct {
	heap       *nvm.Heap
	layout     Layout
	x, y, p, q nvm.Addr
	seqs       []sequence // a1, a2, b1, b2
}

func newFourSequences(t *testing.T) fourSequences {
	t.Helper()
	eng, heap := testEngine(t, 1<<16, Config{LogEntries: 64})
	data := heap.MustCarve(4 * nvm.WordsPerLine)
	h := fourSequences{heap: heap, layout: eng.Layout(),
		x: data, y: data + nvm.WordsPerLine, p: data + 2*nvm.WordsPerLine, q: data + 3*nvm.WordsPerLine}
	a, b := eng.Register().(*Thread), eng.Register().(*Thread)
	for _, step := range []struct {
		th   *Thread
		addr nvm.Addr
	}{{a, h.x}, {b, h.y}, {a, h.p}, {b, h.q}} {
		if err := increment(step.th, step.addr); err != nil {
			t.Fatal(err)
		}
	}
	heap.Crash(nvm.PersistAll{})
	h.seqs, _ = scanLog(heap, a.log.base, h.layout.LogEntries, nil)
	h.seqs, _ = scanLog(heap, b.log.base, h.layout.LogEntries, h.seqs)
	if len(h.seqs) != 4 {
		t.Fatalf("the logs hold %d sequences, want 4", len(h.seqs))
	}
	return h
}

// finish runs the Recover that follows an interrupted one and checks that it
// rolls nothing back and lands where an uninterrupted Recover does: a1 and b1
// kept, a2 and b2 rolled back.
func (h fourSequences) finish(t *testing.T) {
	t.Helper()
	report, err := Recover(h.heap, h.layout)
	if err != nil {
		t.Fatal(err)
	}
	if report.SequencesRolledBack != 0 {
		t.Fatalf("the Recover after the interrupted one rolled back %d sequences: %+v", report.SequencesRolledBack, report)
	}
	if b2 := h.seqs[3]; report.MaxTimestamp != b2.ts {
		t.Fatalf("MaxTimestamp = %d, want b2's %d", report.MaxTimestamp, b2.ts)
	}
	for name, c := range map[string]struct {
		addr nvm.Addr
		want uint64
	}{"x": {h.x, 1}, "y": {h.y, 1}, "p": {h.p, 0}, "q": {h.q, 0}} {
		if got := h.heap.Load(c.addr); got != c.want {
			t.Errorf("%s = %d after recovery, want %d", name, got, c.want)
		}
	}
	assertRecovered(t, h.heap, h.layout)
}

// TestRecoverInterruptedInvalidationKeepsNewestSequences: a crash while
// Recover zeroes the logs can persist any subset of the zeroes. Here exactly
// the zeroes of thread A's newest sequence persist. Without a durable record
// that the rollback is complete, the next Recover sees A's older sequence as
// A's newest, lowers the bound R below it, and rolls back three sequences
// (a1, b1, b2) where the first Recover kept a1 and b1.
func TestRecoverInterruptedInvalidationKeepsNewestSequences(t *testing.T) {
	h := newFourSequences(t)
	a2 := h.seqs[1]
	recoverCrashingAt(t, h.heap, h.layout, zeroDrain, persistRange{
		lo: a2.base + nvm.Addr(a2.start*entryWords),
		hi: a2.base + nvm.Addr((a2.end+1)*entryWords),
	})
	h.finish(t)
}

// TestRecoverInterruptedInvalidationKeepsRollback: a crash while the
// invalidation record drains persists the record alone. The next Recover
// trusts the record and skips the rollback, so the restored words must
// already be durable when the record is stored; drained together with it,
// they would be lost here and p, q would keep a2's and b2's increments.
func TestRecoverInterruptedInvalidationKeepsRollback(t *testing.T) {
	h := newFourSequences(t)
	record := h.layout.GlobalsBase + offLogsInvalid
	recoverCrashingAt(t, h.heap, h.layout, recordDrain, persistRange{lo: record, hi: record + 1})
	if h.heap.Load(record)&logsInvalid == 0 {
		t.Fatal("the invalidation record did not persist")
	}
	h.finish(t)
}

// assertRecovered checks what a finished Recover leaves behind: every log
// and the invalidation record zero in media, and nothing for another Recover
// to do.
func assertRecovered(t *testing.T, heap *nvm.Heap, layout Layout) {
	t.Helper()
	if r := heap.MediaLoad(layout.GlobalsBase + offLogsInvalid); r != 0 {
		t.Fatalf("invalidation record %#x still set", r)
	}
	for slot := 0; slot < layout.MaxThreads; slot++ {
		base := nvm.Addr(heap.Load(layout.DirectoryBase + nvm.Addr(slot)))
		if base == nvm.NilAddr {
			continue
		}
		for w := base; w < base+nvm.Addr(layout.LogEntries*entryWords); w++ {
			if heap.MediaLoad(w) != 0 {
				t.Fatalf("log %d word %d is %#x in media after recovery", slot, w-base, heap.MediaLoad(w))
			}
		}
	}
	if report, err := Recover(heap, layout); err != nil || report.SequencesFound != 0 {
		t.Fatalf("another Recover found work: %+v, %v", report, err)
	}
}

// interleavedHistory runs a seeded history of single-word increments by three
// threads, driven round robin from one goroutine, so that the same seed gives
// the same heap, timestamps included. It crashes keeping each unfenced word
// with probability one half.
func interleavedHistory(t *testing.T, seed int64) (*nvm.Heap, Layout, nvm.Addr) {
	t.Helper()
	eng, heap := testEngine(t, 1<<17, Config{LogEntries: 128})
	const words = 16
	data := heap.MustCarve(words * nvm.WordsPerLine)
	ths := []ptm.Thread{eng.Register(), eng.Register(), eng.Register()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 90; i++ {
		addr := data + nvm.Addr(rng.Intn(words)*nvm.WordsPerLine)
		if err := increment(ths[i%len(ths)], addr); err != nil {
			t.Fatal(err)
		}
	}
	heap.Crash(nvm.NewRandomPolicy(seed, 0.5))
	return heap, eng.Layout(), data
}

// TestRecoverInterruptedInvalidationRandomCrash stops Recover before the
// invalidation record drains, or before the zeroing drains, and crashes under
// a random policy; finishing recovery must then land on exactly the state an
// uninterrupted Recover reaches from the same crash, and report the same
// MaxTimestamp. It rolls back again only if the record was lost, which can
// happen only at the record's drain.
func TestRecoverInterruptedInvalidationRandomCrash(t *testing.T) {
	for _, at := range []drainPoint{recordDrain, zeroDrain} {
		for seed := int64(1); seed <= 12; seed++ {
			want, layout, data := interleavedHistory(t, seed)
			wantReport, err := Recover(want, layout)
			if err != nil {
				t.Fatal(err)
			}
			if wantReport.SequencesRolledBack == 0 {
				t.Fatalf("seed %d: the reference recovery rolled nothing back", seed)
			}

			got, _, _ := interleavedHistory(t, seed)
			recoverCrashingAt(t, got, layout, at, nvm.NewRandomPolicy(1000+seed, 0.5))
			rollsBack := 0
			if got.Load(layout.GlobalsBase+offLogsInvalid)&logsInvalid == 0 {
				if at == zeroDrain {
					t.Fatalf("seed %d: the invalidation record was lost at the zeroing's drain", seed)
				}
				rollsBack = wantReport.SequencesRolledBack
			}
			report, err := Recover(got, layout)
			if err != nil {
				t.Fatal(err)
			}
			if report.MaxTimestamp != wantReport.MaxTimestamp || report.SequencesRolledBack != rollsBack {
				t.Fatalf("drain point %d, seed %d: finishing an interrupted Recover reported %+v, want MaxTimestamp %d and %d rolled back",
					at, seed, report, wantReport.MaxTimestamp, rollsBack)
			}
			for w := data; w < data+16*nvm.WordsPerLine; w += nvm.WordsPerLine {
				if g, e := got.Load(w), want.Load(w); g != e {
					t.Fatalf("drain point %d, seed %d: word %d recovered to %d, an uninterrupted Recover gives %d", at, seed, w, g, e)
				}
			}
			assertRecovered(t, got, layout)
		}
	}
}

// TestRecoverAllocationsFlatInLogEntries: Recover reads each log in place, so
// what it allocates follows the sequences it finds, not the logs' capacity.
func TestRecoverAllocationsFlatInLogEntries(t *testing.T) {
	allocated := func(logEntries int) uint64 {
		eng, heap := testEngine(t, 1<<20, Config{LogEntries: logEntries})
		counter := heap.MustCarve(8)
		th0, th1 := eng.Register(), eng.Register()
		for i := 0; i < 200; i++ {
			if err := increment([]ptm.Thread{th0, th1}[i%2], counter); err != nil {
				t.Fatal(err)
			}
		}
		heap.Crash(nvm.PersistAll{})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		report, err := Recover(heap, eng.Layout())
		runtime.ReadMemStats(&after)
		if err != nil || report.SequencesFound != 200 {
			t.Fatalf("LogEntries %d: %+v, %v", logEntries, report, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(1<<12), allocated(1<<16)
	t.Logf("Recover allocated %d bytes at 2^12 log entries, %d at 2^16", small, large)
	if large > small+1024 {
		t.Fatalf("Recover allocated %d bytes at 2^16 log entries against %d at 2^12", large, small)
	}
}

// TestRegisterSkipsZeroLog: Recover leaves every log zero and durable, so
// registering threads on the recovered heap reads the logs and persists
// nothing; a log an engine left behind without a crash is still zeroed.
func TestRegisterSkipsZeroLog(t *testing.T) {
	cfg := Config{LogEntries: 256}
	eng, heap := testEngine(t, 1<<17, cfg)
	layout := eng.Layout()
	counter := heap.MustCarve(8)
	th := eng.Register()
	for range 20 {
		if err := increment(th, counter); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	// Without a crash the old log still holds entries: Register zeroes it.
	eng2, err := Open(heap, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := eng2.Register().(*Thread).log.base
	for w := base; w < base+nvm.Addr(cfg.LogEntries*entryWords); w++ {
		if heap.MediaLoad(w) != 0 {
			t.Fatalf("reused log word %d is %#x in media after Register", w-base, heap.MediaLoad(w))
		}
	}
	eng2.Close()

	// After Recover there is nothing left to zero.
	heap.Crash(nvm.PersistAll{})
	if _, err := Recover(heap, layout); err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(heap, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := heap.Stats()
	eng3.Register()
	if after := heap.Stats(); after.Flushes != before.Flushes || after.Drains != before.Drains {
		t.Fatalf("Register on a recovered heap flushed %d lines and drained %d times",
			after.Flushes-before.Flushes, after.Drains-before.Drains)
	}
}
