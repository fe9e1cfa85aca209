package alloc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"crafty/internal/nvm"
)

// txArena drives an arena the way the engines do: one thread's TxLog, its
// flusher, and a Storer that writes header flips to the heap. The Storer
// flushes what it stores, as an engine's persistent write does, and commit
// drains, so a committed transaction's allocator metadata survives any crash
// and an uncommitted one's is at the crash policy's mercy.
type txArena struct {
	*Arena
	h *nvm.Heap
	f *nvm.Flusher
	l *TxLog
}

func wrapArena(h *nvm.Heap, a *Arena) *txArena {
	f := h.NewFlusher()
	return &txArena{Arena: a, h: h, f: f, l: NewTxLog(a, f)}
}

func newArena(t testing.TB, words int) *txArena { return newHeapArena(t, words, false) }

func newHeapArena(t testing.TB, words int, tracked bool) *txArena {
	t.Helper()
	h := nvm.NewHeap(nvm.Config{Words: words + 128, PersistLatency: nvm.NoLatency, TrackPersistence: tracked})
	a, err := NewArenaCarved(h, words)
	if err != nil {
		t.Fatal(err)
	}
	return wrapArena(h, a)
}

// reattach builds a fresh arena over x's region, as core.Open does after a
// crash, recovering the volatile state from the persistent headers.
func (x *txArena) reattach(t testing.TB) *txArena {
	t.Helper()
	a, err := NewArena(x.h, x.base, x.words)
	if err != nil {
		t.Fatal(err)
	}
	return wrapArena(x.h, a)
}

// Store implements Storer.
func (x *txArena) Store(addr nvm.Addr, v uint64) {
	x.h.Store(addr, v)
	x.f.Flush(addr)
}

// commit ends the open transaction durably.
func (x *txArena) commit() {
	x.l.Commit()
	x.f.Drain()
}

// alloc is one committed transaction allocating one block.
func (x *txArena) alloc(words int) nvm.Addr {
	x.l.Begin()
	addr := x.l.Alloc(words, x)
	x.commit()
	return addr
}

// free is one committed transaction freeing addrs.
func (x *txArena) free(addrs ...nvm.Addr) {
	x.l.Begin()
	for _, addr := range addrs {
		x.l.Free(addr, x)
	}
	x.commit()
}

// checkAccounting asserts the arena's occupancy invariant: every word below
// the high-water mark is either live or on the free lists.
func checkAccounting(t *testing.T, a *Arena) {
	t.Helper()
	st := a.Stats()
	if st.LiveWords+st.FreeWords != st.UsedWords {
		t.Fatalf("accounting: live %d + free %d != used %d", st.LiveWords, st.FreeWords, st.UsedWords)
	}
}

// mustPanicWith runs fn and requires it to panic with an error wrapping want.
func mustPanicWith(t *testing.T, want error, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if err, _ := recover().(error); !errors.Is(err, want) {
			t.Fatalf("panic value %v, want one wrapping %v", err, want)
		}
	}()
	fn()
}

func TestAllocReturnsDistinctAlignedBlocks(t *testing.T) {
	a := newArena(t, 8192)
	seen := make(map[nvm.Addr]bool)
	for i := 0; i < 100; i++ {
		addr := a.alloc(3)
		if addr%nvm.WordsPerLine != 0 {
			t.Fatalf("block %d at %d not line aligned", i, addr)
		}
		if seen[addr] {
			t.Fatalf("address %d handed out twice", addr)
		}
		seen[addr] = true
	}
	if live := a.Stats().Live; live != 100 {
		t.Fatalf("Stats().Live = %d, want 100", live)
	}
	checkAccounting(t, a.Arena)
}

func TestAllocZeroesRecycledBlocks(t *testing.T) {
	a := newArena(t, 1024)
	addr := a.alloc(4)
	a.h.Store(addr, 999)
	a.free(addr)
	again := a.alloc(4)
	if again != addr {
		t.Fatalf("free list did not recycle block: got %d, want %d", again, addr)
	}
	if got := a.h.Load(again); got != 0 {
		t.Fatalf("recycled block not zeroed: %d", got)
	}
}

func TestAllocInvalidAndExhausted(t *testing.T) {
	// 4 lines total: one metadata line, one header line, two data lines.
	a := newArena(t, 4*nvm.WordsPerLine)
	if got := a.Stats().DataWords; got != 2*nvm.WordsPerLine {
		t.Fatalf("Stats().DataWords = %d, want %d", got, 2*nvm.WordsPerLine)
	}
	mustPanicWith(t, ErrInvalidSize, func() { a.alloc(0) })
	mustPanicWith(t, ErrInvalidSize, func() { a.alloc(-5) })
	a.alloc(nvm.WordsPerLine)
	a.alloc(nvm.WordsPerLine)
	mustPanicWith(t, ErrExhausted, func() { a.alloc(1) })
	// The failed transactions reserved nothing.
	if st := a.Stats(); st.Live != 2 || st.UsedWords != 2*nvm.WordsPerLine {
		t.Fatalf("after failed allocations: %+v, want 2 live blocks filling the arena", st)
	}
	checkAccounting(t, a.Arena)
}

func TestSetZeroFillDisablesZeroing(t *testing.T) {
	a := newArena(t, 1024)
	a.SetZeroFill(false)
	addr := a.alloc(4)
	a.h.Store(addr, 999)
	a.free(addr)
	again := a.alloc(4)
	if again != addr {
		t.Fatalf("free list did not recycle block: got %d, want %d", again, addr)
	}
	if got := a.h.Load(again); got != 999 {
		t.Fatalf("recycled block was zeroed with zero fill disabled: %d", got)
	}
}

// TestSplitPrefersTwoLineRemainders: a two-line class miss splits the
// smallest small block at least two lines larger, then a block one line
// larger, and a large (spill-class) block only when no small one is free.
func TestSplitPrefersTwoLineRemainders(t *testing.T) {
	for _, c := range []struct {
		name       string
		free       []int // free block sizes in lines
		wantLines  int   // the size of the block the request must split
		remainders []int // free block sizes in lines afterwards
	}{
		{"two-line margin over one", []int{3, 5}, 5, []int{3, 3}},
		{"one line over before a large block", []int{3, 128}, 3, []int{1, 128}},
		{"large block last", []int{128}, 128, []int{126}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := newArena(t, 8192)
			blocks := map[int]nvm.Addr{}
			for _, lines := range c.free {
				blocks[lines] = a.alloc(lines * nvm.WordsPerLine)
				a.alloc(nvm.WordsPerLine) // guards keep the free blocks apart
			}
			for _, addr := range blocks {
				a.free(addr)
			}
			if got, want := a.alloc(2*nvm.WordsPerLine), blocks[c.wantLines]; got != want {
				t.Fatalf("two-line request split the block at %d, want the %d-line block at %d", got, c.wantLines, want)
			}
			want := 0
			for _, lines := range c.remainders {
				want += lines * nvm.WordsPerLine
			}
			if st := a.Stats(); st.FreeBlocks != len(c.remainders) || st.FreeWords != want {
				t.Fatalf("after the split: %d free blocks of %d words, want %d of %d", st.FreeBlocks, st.FreeWords, len(c.remainders), want)
			}
			checkAccounting(t, a.Arena)
		})
	}
}

func TestSplitServesSmallRequestFromLargerFreeBlock(t *testing.T) {
	a := newArena(t, 8192)
	big := a.alloc(8 * nvm.WordsPerLine)
	// A guard block so the frontier never adjoins the hole under test.
	a.alloc(nvm.WordsPerLine)
	a.free(big)
	usedBefore := a.Stats().UsedWords

	// The small request must be carved out of the free block, not the
	// frontier: mixed-size churn must reuse free space even on class misses.
	small := a.alloc(nvm.WordsPerLine)
	if small != big {
		t.Fatalf("class-miss allocation did not split the free block: got %d, want %d", small, big)
	}
	if used := a.Stats().UsedWords; used != usedBefore {
		t.Fatalf("split allocation grew the arena: used %d -> %d", usedBefore, used)
	}
	if got := a.Stats().FreeWords; got != 7*nvm.WordsPerLine {
		t.Fatalf("FreeWords = %d after split, want %d", got, 7*nvm.WordsPerLine)
	}
	mid := a.alloc(3 * nvm.WordsPerLine)
	if mid != big+nvm.WordsPerLine {
		t.Fatalf("second split allocation at %d, want %d", mid, big+nvm.WordsPerLine)
	}
	checkAccounting(t, a.Arena)

	// Commit-time frees leave the pieces apart (a merged header could shadow
	// a rolled-back free's); a quiesced Coalesce merges them back into one
	// block, which serves the original large class again.
	a.free(small, mid)
	if st := a.Stats(); st.FreeBlocks != 3 || st.FreeWords != 8*nvm.WordsPerLine {
		t.Fatalf("after freeing the pieces: %d free blocks (%d words), want 3 (%d)", st.FreeBlocks, st.FreeWords, 8*nvm.WordsPerLine)
	}
	if merged := a.Coalesce(); merged != 2 {
		t.Fatalf("Coalesce() merged %d blocks, want 2", merged)
	}
	if got := a.Stats().FreeBlocks; got != 1 {
		t.Fatalf("FreeBlocks = %d after Coalesce, want 1", got)
	}
	if back := a.alloc(8 * nvm.WordsPerLine); back != big {
		t.Fatalf("coalesced block not reused: got %d, want %d", back, big)
	}
	checkAccounting(t, a.Arena)
}

// TestMixedSizeChurnDoesNotGrowArena is the property churn-text's space_amp
// rests on: a bounded live set whose blocks keep changing size (values that
// grow) is served from a bounded arena as long as Coalesce runs at quiesced
// points, and is not without it — commit-time frees never merge, so blocks
// of outgrown classes are stranded and every larger request bumps the
// frontier.
func TestMixedSizeChurnDoesNotGrowArena(t *testing.T) {
	churn := func(coalesce bool) (used, peakLive int) {
		a := newArena(t, 1<<18)
		rng := rand.New(rand.NewSource(1))
		live := make([]nvm.Addr, 16)
		for i := range live {
			live[i] = a.alloc(1 + rng.Intn(4*nvm.WordsPerLine))
		}
		for step := 0; step < 4096; step++ {
			// One update: a new block a little larger than the sizes in
			// use 64 steps ago replaces a random live one, in one transaction.
			i := rng.Intn(len(live))
			size := (step/64)*nvm.WordsPerLine + 1 + rng.Intn(4*nvm.WordsPerLine)
			a.l.Begin()
			next := a.l.Alloc(size, a)
			a.l.Free(live[i], a)
			a.commit()
			live[i] = next
			peakLive = max(peakLive, a.Stats().LiveWords)
			if coalesce && step%32 == 31 {
				a.Coalesce() // quiesced: every transaction above is durable
			}
		}
		checkAccounting(t, a.Arena)
		return a.Stats().UsedWords, peakLive
	}
	with, peak := churn(true)
	without, _ := churn(false)
	t.Logf("used words: %d with Coalesce, %d without (peak live %d)", with, without, peak)
	if with > 3*peak {
		t.Fatalf("churn with Coalesce grew the arena to %d words, more than three times the %d ever live", with, peak)
	}
	if without < 4*with {
		t.Fatalf("churn without Coalesce used %d words against %d with it; the test no longer shows what coalescing buys", without, with)
	}
}

func TestNewArenaRecoversExistingMetadata(t *testing.T) {
	before := newArena(t, 4096)
	first := before.alloc(8)
	second := before.alloc(16)
	before.alloc(8)
	before.free(second) // a hole: freed before the "crash"

	// A fresh arena over the same region, as core.Open builds after a crash,
	// recovers the allocator state from the persistent block headers: the
	// live blocks are live, and the hole is on the free lists rather than
	// leaked.
	after := before.reattach(t)
	st := after.Stats()
	if st.Live != 2 {
		t.Fatalf("Live = %d, want 2", st.Live)
	}
	if got, want := st.FreeWords, SizeClass(16); got != want {
		t.Fatalf("FreeWords = %d, want %d (the freed hole)", got, want)
	}
	if want := before.Stats().UsedWords; st.UsedWords != want {
		t.Fatalf("UsedWords = %d after recovery, want %d", st.UsedWords, want)
	}
	checkAccounting(t, after.Arena)

	// The hole is reusable at its old address.
	if hole := after.alloc(16); hole != second {
		t.Fatalf("recovered hole not reused: got %d, want %d", hole, second)
	}
	// Recovered blocks free normally.
	after.free(first)
	if reused := after.alloc(8); reused != first {
		t.Fatalf("freed recovered block not recycled: got %d, want %d", reused, first)
	}
	checkAccounting(t, after.Arena)
}

func TestNewArenaRejectsOtherVersion(t *testing.T) {
	a := newArena(t, 4096)
	a.h.Store(a.metaBase+offArenaVersion, arenaVersion+1)
	if _, err := NewArena(a.h, a.base, a.words); !errors.Is(err, ErrVersion) {
		t.Fatalf("NewArena over a version-%d image: err = %v, want ErrVersion", arenaVersion+1, err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newArena(t, 1024)
	addr := a.alloc(1)
	a.free(addr)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	a.free(addr)
}

func TestAllocNeverOverlapsProperty(t *testing.T) {
	// Property: for any interleaving of allocations of varying sizes and
	// frees of previously allocated blocks, live blocks never overlap and
	// the occupancy accounting stays exact.
	prop := func(ops []uint8) bool {
		a := newArena(t, 1<<16)
		var live []Block
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op) % len(live)
				a.free(live[i].Addr)
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := 1 + int(op)%40
			live = append(live, Block{a.alloc(size), size})
		}
		st := a.Stats()
		return !overlaps(live) && st.LiveWords+st.FreeWords == st.UsedWords
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// overlaps reports whether any two blocks' size-class extents intersect.
func overlaps(blocks []Block) bool {
	for i, b := range blocks {
		for _, c := range blocks[i+1:] {
			if b.Addr < c.Addr+nvm.Addr(SizeClass(c.Words)) && c.Addr < b.Addr+nvm.Addr(SizeClass(b.Words)) {
				return true
			}
		}
	}
	return false
}

func TestTxLogAbortReleasesAllocations(t *testing.T) {
	a := newArena(t, 4096)
	l, tx := a.l, a
	l.Begin()
	l.Alloc(4, tx)
	l.Alloc(4, tx)
	if a.Stats().Live != 2 {
		t.Fatalf("Live = %d, want 2", a.Stats().Live)
	}
	l.Abort()
	if a.Stats().Live != 0 {
		t.Fatalf("aborted transaction leaked %d blocks", a.Stats().Live)
	}
}

func TestTxLogCommitAppliesDeferredFrees(t *testing.T) {
	a := newArena(t, 4096)
	l, tx := a.l, a

	l.Begin()
	persistent := l.Alloc(4, tx)
	l.Commit()
	if a.Stats().Live != 1 {
		t.Fatalf("Live = %d, want 1", a.Stats().Live)
	}

	l.Begin()
	l.Free(persistent, tx)
	// Not yet freed: the free is deferred until commit.
	if a.Stats().Live != 1 {
		t.Fatalf("free applied before commit")
	}
	l.Commit()
	if a.Stats().Live != 0 {
		t.Fatalf("deferred free not applied at commit; %d live", a.Stats().Live)
	}
}

func TestTxLogAbortDiscardsDeferredFrees(t *testing.T) {
	a := newArena(t, 4096)
	l, tx := a.l, a
	l.Begin()
	persistent := l.Alloc(4, tx)
	l.Commit()

	l.Begin()
	l.Free(persistent, tx)
	l.Abort()
	if a.Stats().Live != 1 {
		t.Fatalf("aborted transaction's free was applied; %d live", a.Stats().Live)
	}
}

func TestTxLogReplayReturnsSameAddresses(t *testing.T) {
	a := newArena(t, 4096)
	l, tx := a.l, a
	l.Begin()
	first := []nvm.Addr{l.Alloc(2, tx), l.Alloc(8, tx), l.Alloc(2, tx)}

	// The Validate phase re-executes the body; it must receive the same
	// addresses in the same order, without allocating fresh memory.
	l.BeginReplay()
	for i, want := range first {
		if got := l.Alloc(2, tx); got != want {
			t.Fatalf("replayed allocation %d = %d, want %d", i, got, want)
		}
	}
	if a.Stats().Live != len(first) {
		t.Fatalf("replay allocated fresh blocks: %d live, want %d", a.Stats().Live, len(first))
	}
	l.Commit()
}

func TestTxLogReplayCanGrow(t *testing.T) {
	a := newArena(t, 4096)
	l, tx := a.l, a
	l.Begin()
	l.Alloc(2, tx)
	l.BeginReplay()
	l.Alloc(2, tx)
	extra := l.Alloc(2, tx) // the re-execution needed one more block
	if extra == nvm.NilAddr {
		t.Fatal("extra replay allocation failed")
	}
	if a.Stats().Live != 2 {
		t.Fatalf("Live = %d, want 2", a.Stats().Live)
	}
	l.Abort()
	if a.Stats().Live != 0 {
		t.Fatalf("abort after replay leaked %d blocks", a.Stats().Live)
	}
}

// TestConcurrentTxLogs runs the arrangement the engines run — one arena, one
// TxLog and flusher per thread — from several goroutines at once, each mixing
// committed, aborted and replayed transactions. Every block carries its
// owner's stamp in its first and last word while live, so a block handed to
// two owners (or zero filled under one) shows up when it is freed; at the end
// the survivors must not overlap and Stats must account for exactly them.
func TestConcurrentTxLogs(t *testing.T) {
	const workers, steps = 4, 400
	shared := newArena(t, 1<<18)
	survivors := make([][]Block, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := wrapArena(shared.h, shared.Arena) // this worker's flusher and TxLog
			rng := rand.New(rand.NewSource(int64(w)))
			stamp := func(b Block, step int) {
				v := uint64(w+1)<<32 | uint64(step)
				x.h.Store(b.Addr, v)
				x.h.Store(b.Addr+nvm.Addr(b.Words-1), v)
			}
			var live []Block
			for step := range steps {
				x.l.Begin()
				var got []Block
				for range 1 + rng.Intn(3) {
					words := 1 + rng.Intn(6*nvm.WordsPerLine)
					got = append(got, Block{x.l.Alloc(words, x), words})
				}
				switch rng.Intn(4) {
				case 0: // the attempt aborts: its blocks go back
					x.l.Abort()
					continue
				case 1: // the body re-executes: same blocks, one fewer consumed
					x.l.BeginReplay()
					for i, b := range got[:len(got)-1] {
						if again := x.l.Alloc(b.Words, x); again != b.Addr {
							t.Errorf("worker %d step %d: replayed allocation %d at %d, want %d", w, step, i, again, b.Addr)
						}
					}
					got = got[:len(got)-1]
				}
				// Free a few older blocks in the same transaction.
				for range min(len(live), rng.Intn(3)) {
					i := rng.Intn(len(live))
					b := live[i]
					if first, last := x.h.Load(b.Addr), x.h.Load(b.Addr+nvm.Addr(b.Words-1)); first != last || first>>32 != uint64(w+1) {
						t.Errorf("worker %d step %d: block [%d,+%d) lost its stamp while live: %#x .. %#x", w, step, b.Addr, b.Words, first, last)
					}
					x.l.Free(b.Addr, x)
					live = append(live[:i], live[i+1:]...)
				}
				x.commit()
				for _, b := range got {
					stamp(b, step)
				}
				live = append(live, got...)
			}
			survivors[w] = live
		}()
	}
	wg.Wait()

	var all []Block
	liveWords := 0
	for _, live := range survivors {
		all = append(all, live...)
		for _, b := range live {
			liveWords += SizeClass(b.Words)
		}
	}
	if overlaps(all) {
		t.Fatalf("blocks live at the end overlap: %v", all)
	}
	if st := shared.Stats(); st.Live != len(all) || st.LiveWords != liveWords {
		t.Fatalf("Stats() = %+v, want %d live blocks of %d words", st, len(all), liveWords)
	}
	checkAccounting(t, shared.Arena)
}

// TestTxLogSteadyStateAllocs pins the transactional allocation hot path at
// zero Go allocations once warm: the persistent header writes must not put
// closures, slices, or map growth on the Alloc/Free path.
func TestTxLogSteadyStateAllocs(t *testing.T) {
	a := newArena(t, 1<<14)
	l, tx, f := a.l, a, a.f
	cycle := func() {
		l.Begin()
		b1 := l.Alloc(8, tx)
		b2 := l.Alloc(24, tx)
		l.Free(b1, tx)
		l.Free(b2, tx)
		l.Commit()
		f.Drain()
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state transactional alloc/free allocated %v times per run, want 0", allocs)
	}
	checkAccounting(t, a.Arena)
}

// TestTxLogFreshOnlyAtFrontier pins which allocations TxLog reports as
// fresh: blocks carved from the bump frontier, over every word of their
// class, and the same answers during a replay; never a block taken from the
// free lists, exact or split, nor anything once the transaction has ended.
func TestTxLogFreshOnlyAtFrontier(t *testing.T) {
	x := newArena(t, 1<<12)
	big := x.alloc(32) // four lines, freed below to be split
	x.free(big)

	x.l.Begin()
	split := x.l.Alloc(8, x)  // the smallest free block at least two lines larger: big
	fresh := x.l.Alloc(40, x) // larger than the split's remainder: the frontier
	if split != big {
		t.Fatalf("the 8-word block came from %d, want a split of the freed block at %d", split, big)
	}
	for _, c := range []struct {
		addr nvm.Addr
		want bool
	}{{split, false}, {split + 7, false}, {fresh - 1, false}, {fresh, true}, {fresh + 39, true}, {fresh + 40, false}} {
		if got := x.l.Fresh(c.addr); got != c.want {
			t.Errorf("Fresh(%d) = %v, want %v (split block %d, frontier block %d)", c.addr, got, c.want, split, fresh)
		}
	}
	if got := x.l.AppendFresh(nil); len(got) != 1 || got[0] != (Block{Addr: fresh, Words: 40}) {
		t.Fatalf("AppendFresh = %v, want only the frontier block", got)
	}
	x.l.BeginReplay()
	if !x.l.Fresh(fresh) || x.l.Fresh(split) {
		t.Fatal("a replay, before re-issuing the allocations, answers differently")
	}
	if x.l.Alloc(8, x) != split || x.l.Alloc(40, x) != fresh || !x.l.Fresh(fresh+3) {
		t.Fatal("the replay handed back other blocks or lost their freshness")
	}
	x.commit()
	if x.l.Fresh(fresh) || len(x.l.AppendFresh(nil)) != 0 {
		t.Fatal("a committed transaction's blocks are still fresh in the next")
	}

	// A frontier block released by an aborted transaction goes to the free
	// lists, so the next allocation of its class is not fresh.
	x.l.Begin()
	gone := x.l.Alloc(48, x)
	if !x.l.Fresh(gone) {
		t.Fatalf("the 48-word block %d did not come from the frontier", gone)
	}
	x.l.Abort()
	x.l.Begin()
	if again := x.l.Alloc(48, x); again != gone || x.l.Fresh(again) {
		t.Fatalf("after an abort, the 48-word block %d (fresh %v) should reuse %d, not fresh", again, x.l.Fresh(again), gone)
	}
	x.commit()
}
