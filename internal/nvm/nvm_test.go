package nvm

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newTrackedHeap(t *testing.T, words int) *Heap {
	t.Helper()
	return NewHeap(Config{Words: words, PersistLatency: NoLatency, TrackPersistence: true})
}

func TestLineOf(t *testing.T) {
	cases := []struct {
		addr Addr
		line uint64
	}{
		{0, 0}, {1, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}, {1023, 127},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.line {
			t.Errorf("LineOf(%d) = %d, want %d", c.addr, got, c.line)
		}
		if got := LineBase(c.addr); got != Addr(c.line*WordsPerLine) {
			t.Errorf("LineBase(%d) = %d, want %d", c.addr, got, c.line*WordsPerLine)
		}
	}
}

func TestNewHeapRejectsTinyHeap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undersized heap")
		}
	}()
	NewHeap(Config{Words: 4})
}

func TestLoadStoreRoundTrip(t *testing.T) {
	h := newTrackedHeap(t, 1024)
	h.Store(42, 12345)
	if got := h.Load(42); got != 12345 {
		t.Fatalf("Load(42) = %d, want 12345", got)
	}
	if got := h.Load(43); got != 0 {
		t.Fatalf("Load(43) = %d, want 0 (untouched word)", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	h := newTrackedHeap(t, 64)
	for _, addr := range []Addr{NilAddr, 64, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for address %d", addr)
				}
			}()
			h.Load(addr)
		}()
	}
}

func TestCompareAndSwap(t *testing.T) {
	h := newTrackedHeap(t, 64)
	h.Store(10, 7)
	if h.CompareAndSwap(10, 8, 9) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if !h.CompareAndSwap(10, 7, 9) {
		t.Fatal("CAS failed with correct expected value")
	}
	if got := h.Load(10); got != 9 {
		t.Fatalf("value after CAS = %d, want 9", got)
	}
}

func TestCarveAlignmentAndExhaustion(t *testing.T) {
	h := newTrackedHeap(t, 16*WordsPerLine)
	a, err := h.Carve(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Carve(9)
	if err != nil {
		t.Fatal(err)
	}
	if a%WordsPerLine != 0 || b%WordsPerLine != 0 {
		t.Fatalf("carved regions not line aligned: %d, %d", a, b)
	}
	if b-a < WordsPerLine {
		t.Fatalf("regions overlap a cache line: a=%d b=%d", a, b)
	}
	if a == NilAddr || b == NilAddr {
		t.Fatal("carve returned the nil address")
	}
	if _, err := h.Carve(1 << 20); err == nil {
		t.Fatal("expected exhaustion error")
	}
	if _, err := h.Carve(0); err == nil {
		t.Fatal("expected error for zero-size carve")
	}
}

func TestUnflushedStoreDoesNotReachMedia(t *testing.T) {
	h := newTrackedHeap(t, 256)
	h.Store(9, 77)
	if got := h.MediaLoad(9); got != 0 {
		t.Fatalf("media contains %d before any flush", got)
	}
	h.Crash(PersistNone{})
	if got := h.Load(9); got != 0 {
		t.Fatalf("visible value after crash = %d, want 0", got)
	}
}

func TestFlushWithoutFenceIsNotGuaranteed(t *testing.T) {
	h := newTrackedHeap(t, 256)
	f := h.NewFlusher()
	h.Store(9, 77)
	f.Flush(9)
	// Pessimistic crash: the in-flight write-back never completed.
	h.Crash(PersistNone{})
	if got := h.Load(9); got != 0 {
		t.Fatalf("flushed-but-unfenced word persisted under PersistNone: %d", got)
	}
}

func TestFlushThenDrainPersists(t *testing.T) {
	h := newTrackedHeap(t, 256)
	f := h.NewFlusher()
	h.Store(9, 77)
	h.Store(10, 88) // same cache line
	f.Flush(9)
	f.Drain()
	h.Crash(PersistNone{})
	if got := h.Load(9); got != 77 {
		t.Fatalf("drained word lost: got %d, want 77", got)
	}
	if got := h.Load(10); got != 88 {
		t.Fatalf("drained word on same line lost: got %d, want 88", got)
	}
}

func TestFenceProvidesDrainSemantics(t *testing.T) {
	h := newTrackedHeap(t, 256)
	f := h.NewFlusher()
	h.Store(9, 77)
	f.Flush(9)
	f.Fence()
	h.Crash(PersistNone{})
	if got := h.Load(9); got != 77 {
		t.Fatalf("fenced word lost: got %d, want 77", got)
	}
}

func TestFenceOnlyCompletesOwnFlushes(t *testing.T) {
	h := newTrackedHeap(t, 256)
	fa := h.NewFlusher()
	fb := h.NewFlusher()
	h.Store(9, 77)
	fa.Flush(9)
	fb.Fence() // another thread's fence must not complete fa's flush
	h.Crash(PersistNone{})
	if got := h.Load(9); got != 0 {
		t.Fatalf("another thread's fence persisted the word: %d", got)
	}
}

func TestFenceCompletesOnlyWordsMarkedAtFlush(t *testing.T) {
	h := newTrackedHeap(t, 256)
	f := h.NewFlusher()
	h.Store(9, 77)
	f.Flush(9)
	h.Store(10, 88) // same cache line, stored after the write-back was issued
	f.Fence()
	h.Crash(PersistNone{})
	if got := h.Load(9); got != 77 {
		t.Fatalf("word marked at the flush lost: got %d, want 77", got)
	}
	if got := h.Load(10); got != 0 {
		t.Fatalf("word stored after the flush persisted by its line's fence: %d", got)
	}
}

// TestPartialLastLine covers a heap whose size is not a whole number of
// lines: the last line's mask exists, its words persist and vanish like any
// others, and nothing reaches past the end of the heap.
func TestPartialLastLine(t *testing.T) {
	const words = 20 // lines 0 and 1 whole, line 2 holds words 16..19
	store := func(h *Heap, scale uint64) {
		for a := Addr(1); a < words; a++ {
			h.Store(a, uint64(a)*scale)
		}
	}
	expect := func(h *Heap, what string, want func(Addr) uint64) {
		t.Helper()
		for a := Addr(1); a < words; a++ {
			if got := h.Load(a); got != want(a) {
				t.Fatalf("%s: word %d = %d, want %d", what, a, got, want(a))
			}
		}
	}
	h := newTrackedHeap(t, words)
	f := h.NewFlusher()

	store(h, 3)
	f.FlushRange(1, words-1) // from line 0's first usable word through the partial line
	f.Drain()
	h.Crash(PersistNone{})
	expect(h, "flushed and drained", func(a Addr) uint64 { return uint64(a) * 3 })

	store(h, 5)
	h.Crash(PersistNone{})
	expect(h, "unflushed under PersistNone", func(a Addr) uint64 { return uint64(a) * 3 })

	store(h, 7)
	h.Crash(PersistAll{})
	expect(h, "unflushed under PersistAll", func(a Addr) uint64 { return uint64(a) * 7 })
	if got := h.MediaSnapshot(); len(got) != words || got[0] != 0 {
		t.Fatalf("media image has %d words with word 0 = %d, want %d and 0", len(got), got[0], words)
	}
}

// TestStoreLine: only the masked words change, they are marked like single
// stores (a flush and fence persist them, a crash without one loses them), an
// empty mask is no store at all, and a mask that names word 0 or a word past
// the heap's end panics before any of its words is stored.
func TestStoreLine(t *testing.T) {
	const words = 20 // line 2 holds words 16..19
	h := newTrackedHeap(t, words)
	f := h.NewFlusher()
	for a := Addr(1); a < words; a++ {
		h.Store(a, 100+uint64(a))
	}
	f.FlushRange(1, words-1)
	f.Drain()

	vals := [WordsPerLine]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	h.StoreLine(1, 0, &vals)
	h.StoreLine(1, 0b10100101, &vals) // words 8, 10, 13, 15
	h.StoreLine(0, 0b00000110, &vals) // words 1, 2: line 0 without word 0
	h.StoreLine(2, 0b00001001, &vals) // words 16, 19: the partial line's ends
	written := map[Addr]uint64{8: 1, 10: 3, 13: 6, 15: 8, 1: 2, 2: 3, 16: 1, 19: 4}
	check := func(what string, kept func(Addr) bool) {
		t.Helper()
		for a := Addr(1); a < words; a++ {
			want := 100 + uint64(a)
			if v, ok := written[a]; ok && kept(a) {
				want = v
			}
			if got := h.Load(a); got != want {
				t.Fatalf("%s: word %d = %d, want %d", what, a, got, want)
			}
		}
	}
	check("after StoreLine", func(Addr) bool { return true })
	f.Flush(8) // line 1 only
	f.Fence()
	h.Crash(PersistNone{})
	check("after flushing line 1 and crashing", func(a Addr) bool { return LineOf(a) == 1 })

	for _, bad := range []struct {
		line uint64
		mask uint8
	}{{0, 0b00000011}, {2, 0b00010001}, {3, 0b00000001}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("StoreLine(%d, %#b) did not panic", bad.line, bad.mask)
				}
			}()
			h.StoreLine(bad.line, bad.mask, &vals)
		}()
	}
	check("after refused StoreLines", func(a Addr) bool { return LineOf(a) == 1 })
}

// TestTrackedPersistCycleDoesNotAllocate pins the steady-state tracked persist
// cycle — a line's worth of stores, a flush, a fence — at zero allocations:
// the flusher's pending slice is reused from fence to fence.
func TestTrackedPersistCycleDoesNotAllocate(t *testing.T) {
	h := newTrackedHeap(t, 256)
	f := h.NewFlusher()
	base := Addr(WordsPerLine)
	i := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		for w := Addr(0); w < WordsPerLine; w++ {
			h.Store(base+w, i)
		}
		f.Flush(base)
		f.Fence()
	})
	if allocs != 0 {
		t.Fatalf("store x8 + flush + fence allocates %v times per cycle, want 0", allocs)
	}
}

func TestCrashPersistAllKeepsEverything(t *testing.T) {
	h := newTrackedHeap(t, 256)
	for addr := Addr(8); addr < 40; addr++ {
		h.Store(addr, uint64(addr)*3)
	}
	h.Crash(PersistAll{})
	for addr := Addr(8); addr < 40; addr++ {
		if got := h.Load(addr); got != uint64(addr)*3 {
			t.Fatalf("addr %d = %d after PersistAll crash, want %d", addr, got, addr*3)
		}
	}
}

func TestFlushRangeCoversAllLines(t *testing.T) {
	h := newTrackedHeap(t, 1024)
	f := h.NewFlusher()
	base := Addr(16)
	n := 40 // spans 6 lines
	for i := 0; i < n; i++ {
		h.Store(base+Addr(i), uint64(i)+1)
	}
	f.FlushRange(base, n)
	f.Drain()
	h.Crash(PersistNone{})
	for i := 0; i < n; i++ {
		if got := h.Load(base + Addr(i)); got != uint64(i)+1 {
			t.Fatalf("word %d of range lost after flush+drain: got %d", i, got)
		}
	}
}

func TestRandomPolicyTearsEntries(t *testing.T) {
	// Under a random policy some words of a multi-word record persist and
	// others do not; the recovery logic must cope, so the emulation must be
	// able to produce the situation at all.
	h := newTrackedHeap(t, 4096)
	for addr := Addr(8); addr < 2048; addr += 2 {
		h.Store(addr, 1)
		h.Store(addr+1, 1)
	}
	h.Crash(NewRandomPolicy(1, 0.5))
	torn := 0
	for addr := Addr(8); addr < 2048; addr += 2 {
		a, b := h.Load(addr), h.Load(addr+1)
		if a != b {
			torn++
		}
	}
	if torn == 0 {
		t.Fatal("random crash policy never tore a two-word record; adversary too weak")
	}
}

func TestCrashResetsStateForNextRun(t *testing.T) {
	h := newTrackedHeap(t, 256)
	f := h.NewFlusher()
	h.Store(9, 1)
	h.Crash(PersistNone{})
	// After the crash the word is clean again: a fresh store + persist works.
	h.Store(9, 2)
	f.Flush(9)
	f.Drain()
	h.Crash(PersistNone{})
	if got := h.Load(9); got != 2 {
		t.Fatalf("post-crash store lost: got %d, want 2", got)
	}
}

func TestDrainChargesLatency(t *testing.T) {
	h := NewHeap(Config{Words: 256, PersistLatency: 200 * time.Microsecond})
	f := h.NewFlusher()
	start := time.Now()
	f.Drain()
	if elapsed := time.Since(start); elapsed < 150*time.Microsecond {
		t.Fatalf("drain returned after %s, want >= ~200µs busy wait", elapsed)
	}
	if h.Stats().Drains != 1 {
		t.Fatalf("drain counter = %d, want 1", h.Stats().Drains)
	}
}

func TestStatsCounters(t *testing.T) {
	h := newTrackedHeap(t, 256)
	f := h.NewFlusher()
	h.Store(8, 1)
	f.Flush(8)
	f.Fence()
	f.Drain()
	h.Crash(PersistNone{})
	s := h.Stats()
	if s.Flushes != 1 || s.Fences != 1 || s.Drains != 1 || s.Crashes != 1 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

func TestConcurrentStoresAreAtomicPerWord(t *testing.T) {
	h := NewHeap(Config{Words: 1024, PersistLatency: NoLatency})
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			val := uint64(g+1) * 0x0101010101010101
			for i := 0; i < iters; i++ {
				h.Store(100, val)
				got := h.Load(100)
				// The value must always be one of the values some goroutine
				// writes — never a torn mixture.
				if got%0x0101010101010101 != 0 || got == 0 || got > goroutines*0x0101010101010101 {
					t.Errorf("torn read: %#x", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPersistedValueMatchesVisibleProperty(t *testing.T) {
	// Property: for any sequence of (addr, value) stores followed by a flush
	// of every touched line and a drain, a PersistNone crash preserves every
	// final visible value.
	prop := func(raw []uint16) bool {
		h := NewHeap(Config{Words: 4096, PersistLatency: NoLatency, TrackPersistence: true})
		f := h.NewFlusher()
		want := make(map[Addr]uint64)
		for i, r := range raw {
			addr := Addr(8 + int(r)%4000)
			val := uint64(i + 1)
			h.Store(addr, val)
			want[addr] = val
		}
		for addr := range want {
			f.Flush(addr)
		}
		f.Drain()
		h.Crash(PersistNone{})
		for addr, val := range want {
			if h.Load(addr) != val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
