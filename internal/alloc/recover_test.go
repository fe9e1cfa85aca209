package alloc

import (
	"testing"

	"crafty/internal/nvm"
)

// newTrackedArena builds an arena over a persistence-tracked heap so crashes
// can be injected.
func newTrackedArena(t *testing.T, words int) *txArena { return newHeapArena(t, words, true) }

// onlyAddrs is an adversarial crash policy that persists exactly the listed
// outstanding words and loses every other unfenced write.
type onlyAddrs map[nvm.Addr]bool

func (p onlyAddrs) Persist(a nvm.Addr) bool { return p[a] }

func TestRecoverAfterCrashRebuildsState(t *testing.T) {
	a := newTrackedArena(t, 4096)
	blocks := []nvm.Addr{a.alloc(8), a.alloc(24), a.alloc(8), a.alloc(16)}
	a.free(blocks[1])
	a.free(blocks[3])
	before := a.Stats()

	// Every transaction above committed and fenced its metadata, so even the
	// most pessimistic crash preserves the allocator state exactly.
	a.h.Crash(nvm.PersistNone{})
	after := a.reattach(t)
	if got := after.Stats(); got != before || got.Live != 2 {
		t.Fatalf("recovered occupancy %+v, want %+v (2 live blocks)", got, before)
	}
	checkAccounting(t, after.Arena)

	// Freed holes are reusable at their old addresses.
	if got := after.alloc(24); got != blocks[1] {
		t.Fatalf("recovered hole not reused: got %d, want %d", got, blocks[1])
	}
	if got := after.alloc(16); got != blocks[3] {
		t.Fatalf("recovered trailing hole not reused: got %d, want %d", got, blocks[3])
	}
}

// TestRecoverQuarantinesLostFrontierHeader injects the one crash the header
// chain cannot describe: a frontier allocation whose high-water flush
// persisted while its header flip did not (the allocating transaction never
// durably committed, and the adversary chose word-by-word). The scavenge must
// quarantine the unparseable tail rather than hand it out, and a reconciling
// pass with the reachable set must then reclaim it exactly.
func TestRecoverQuarantinesLostFrontierHeader(t *testing.T) {
	a := newTrackedArena(t, 4096)
	x1 := a.alloc(8)
	x2 := a.alloc(8) // durable: committed and fenced

	// A transaction caught mid-flight: its header flip and the high-water
	// mark are flushed on the thread's flusher but not yet fenced.
	a.l.Begin()
	y := a.l.Alloc(8, a)
	a.h.Crash(onlyAddrs{a.metaBase + offArenaHighWater: true})

	after := a.reattach(t)
	// The tail [y, highWater) is unparseable (its header word never
	// persisted) and must be quarantined as allocated, not freed.
	if st := after.Stats(); st.Live != 3 || st.FreeWords != 0 {
		t.Fatalf("after quarantine: %d live, %d free words; want 3 live (x1, x2, the torn tail) and nothing to hand out", st.Live, st.FreeWords)
	}
	checkAccounting(t, after.Arena)
	// Nothing the arena hands out may overlap the quarantined tail.
	if got := after.alloc(8); got < y+8 {
		t.Fatalf("allocation at %d overlaps the quarantined tail at %d", got, y)
	}

	// Reconciliation with the true reachable set (y's transaction rolled
	// back, so only x1 and x2 survive) releases the quarantined words.
	rep, err := after.Recover([]Block{{Addr: x1, Words: 8}, {Addr: x2, Words: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveWords != 2*8 {
		t.Fatalf("reconciled LiveWords = %d, want 16", rep.LiveWords)
	}
	if want := after.Stats().UsedWords - 16; rep.FreeWords != want {
		t.Fatalf("reconciled FreeWords = %d, want %d (quarantine released)", rep.FreeWords, want)
	}
	checkAccounting(t, after.Arena)
}

// TestRecoverReconcileRestoresPrematureFreeHeader injects the suffix-rollback
// hazard: a free's header flip persisted, but engine recovery rolled the
// freeing transaction back, so the block is still reachable. Header-only
// scavenging sees it free; the reconciling pass must force it live again so
// it is never handed out while the index references it.
func TestRecoverReconcileRestoresPrematureFreeHeader(t *testing.T) {
	a := newTrackedArena(t, 4096)
	p := a.alloc(16)
	q := a.alloc(8)

	// A free of p caught mid-flight, whose header flip the adversary chooses
	// to persist anyway.
	a.l.Begin()
	a.l.Free(p, a)
	a.h.Crash(onlyAddrs{a.headerAddr(p): true})

	after := a.reattach(t)
	if got := after.Stats().FreeWords; got != 16 {
		t.Fatalf("scavenge FreeWords = %d, want 16 (premature free header visible)", got)
	}

	// The freeing transaction rolled back: p is still reachable.
	rep, err := after.Recover([]Block{{Addr: p, Words: 16}, {Addr: q, Words: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ForcedLive == 0 {
		t.Fatalf("reconciliation did not report forcing the prematurely freed block live: %+v", rep)
	}
	if st := after.Stats(); st.FreeWords != 0 || st.LiveWords != 24 {
		t.Fatalf("reconciled occupancy live=%d free=%d, want live=24 free=0", st.LiveWords, st.FreeWords)
	}
	// p must not be handed out while reachable.
	if got := after.alloc(16); got == p {
		t.Fatalf("reachable block %d handed out after reconciliation", p)
	}
	checkAccounting(t, after.Arena)
}

// TestRecoverReconcileDropsUnreachableBlocks covers the converse: blocks
// whose headers say allocated but which no persistent root references (their
// allocating transaction rolled back, or a committed free's header flip was
// lost) must return to the free lists instead of leaking.
func TestRecoverReconcileDropsUnreachableBlocks(t *testing.T) {
	a := newTrackedArena(t, 4096)
	keep := a.alloc(8)
	orphan1 := a.alloc(24)
	a.alloc(8)

	a.h.Crash(nvm.PersistNone{}) // every allocation was fenced; all survive
	after := a.reattach(t)
	if live := after.Stats().Live; live != 3 {
		t.Fatalf("Live = %d after scavenge, want 3", live)
	}

	rep, err := after.Recover([]Block{{Addr: keep, Words: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped != 2 {
		t.Fatalf("reconciliation dropped %d blocks, want 2", rep.Dropped)
	}
	if st := after.Stats(); st.Live != 1 || st.FreeWords != SizeClass(24)+SizeClass(8) {
		t.Fatalf("after reconcile: live=%d freeWords=%d, want live=1 freeWords=%d",
			st.Live, st.FreeWords, SizeClass(24)+SizeClass(8))
	}
	// The orphans' space is immediately reusable (coalesced into one gap).
	if got := after.alloc(32); got != orphan1 {
		t.Fatalf("reclaimed orphan space not reused: got %d, want %d", got, orphan1)
	}
	checkAccounting(t, after.Arena)
}

// TestRecoverRejectsOverlappingReachableSet: overlapping caller metadata must
// fail rather than corrupt the rebuilt allocator.
func TestRecoverRejectsOverlappingReachableSet(t *testing.T) {
	a := newTrackedArena(t, 4096)
	p := a.alloc(32)
	if _, err := a.Recover([]Block{
		{Addr: p, Words: 32},
		{Addr: p + nvm.WordsPerLine, Words: 8},
	}); err == nil {
		t.Fatal("overlapping reachable blocks accepted")
	}
}

// TestRecoverCoversReachableBeyondHighWater: if the adversary loses the
// high-water flush but the caller proves a frontier block reachable, the
// reconciled frontier must cover it.
func TestRecoverCoversReachableBeyondHighWater(t *testing.T) {
	a := newTrackedArena(t, 4096)
	p := a.alloc(8) // durable

	// Neither q's header nor the advanced high-water mark persists.
	a.l.Begin()
	q := a.l.Alloc(16, a)
	a.h.Crash(nvm.PersistNone{})

	after := a.reattach(t)
	if used := after.Stats().UsedWords; used != SizeClass(8) {
		t.Fatalf("UsedWords = %d after crash, want %d (frontier rolled back)", used, SizeClass(8))
	}
	if _, err := after.Recover([]Block{{Addr: p, Words: 8}, {Addr: q, Words: 16}}); err != nil {
		t.Fatal(err)
	}
	if st := after.Stats(); st.UsedWords != SizeClass(8)+SizeClass(16) || st.LiveWords != st.UsedWords || st.FreeWords != 0 {
		t.Fatalf("reconciled occupancy %+v, want %d words used, all live", st, SizeClass(8)+SizeClass(16))
	}
	// New allocations land past the reconciled frontier.
	if got := after.alloc(8); got < q+nvm.Addr(SizeClass(16)) {
		t.Fatalf("allocation at %d overlaps reconciled block at %d", got, q)
	}
	checkAccounting(t, after.Arena)
}
