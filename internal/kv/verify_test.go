package kv

import (
	"fmt"
	"strings"
	"testing"

	"crafty/internal/core"
	"crafty/internal/nvm"
)

// corruptible is a small store, grown through several rehashes, whose engine
// is closed so that a test can corrupt the heap and then Verify or reopen it.
type corruptible struct {
	heap   *nvm.Heap
	layout core.Layout
	cfg    core.Config
	s      *Store
}

func newCorruptible(t *testing.T) *corruptible {
	t.Helper()
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 20, PersistLatency: nvm.NoLatency})
	cfg := core.Config{ArenaWords: 1 << 18}
	eng, err := core.NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 16})
	for i := 0; i < 200; i++ {
		if err := s.Put(th, []byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mustVerify(t, s, heap)
	eng.Close()
	return &corruptible{heap: heap, layout: eng.Layout(), cfg: cfg, s: s}
}

// liveAndEmpty returns shard sh's active table, a live slot word in it, and
// the index of an empty slot.
func (c *corruptible) liveAndEmpty(t *testing.T, sh int) (table nvm.Addr, live uint64, empty uint64) {
	t.Helper()
	hdr := c.s.shardHeader(sh)
	table = nvm.Addr(c.heap.Load(hdr + shTable))
	haveLive, haveEmpty := false, false
	for i := uint64(0); i < c.heap.Load(hdr+shSlots); i++ {
		switch w := c.heap.Load(table + nvm.Addr(i*slotWords)); {
		case w == slotEmpty && !haveEmpty:
			empty, haveEmpty = i, true
		case w != slotEmpty && w != slotTombstone && !haveLive:
			live, haveLive = w, true
		}
	}
	if !haveLive || !haveEmpty {
		t.Fatalf("shard %d has no live or no empty slot", sh)
	}
	return table, live, empty
}

// wantErr checks that err is non-nil and contains every fragment.
func wantErr(t *testing.T, what string, err error, fragments ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted the corrupt store", what)
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Fatalf("%s: error %q does not name %q", what, err, f)
		}
	}
}

// reopen attaches a new engine to the corrupt heap and reopens the store the
// full way, verifying the whole index and reconciling the arena.
func (c *corruptible) reopen(t *testing.T) error {
	t.Helper()
	eng, err := core.Open(c.heap, c.layout, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, _, err = ReopenWith(eng, c.s.Root(), ReopenOptions{})
	return err
}

// TestVerifyRejectsDuplicateKey: two slots of one shard hold one key, each
// pointing at its own copy of the entry block.
func TestVerifyRejectsDuplicateKey(t *testing.T) {
	c := newCorruptible(t)
	const sh = 1
	table, w, empty := c.liveAndEmpty(t, sh)
	block := slotBlock(w)
	keyLen, valLen := unpackHeader(c.heap.Load(block))
	words := blockWords(keyLen, valLen)
	twin := c.heap.MustCarve(words)
	for k := 0; k < words; k++ {
		c.heap.Store(twin+nvm.Addr(k), c.heap.Load(block+nvm.Addr(k)))
	}
	c.heap.Store(table+nvm.Addr(empty*slotWords), packSlot(slotHashOf(w), twin))

	frags := []string{"duplicate key", fmt.Sprintf("shard %d slot ", sh)}
	_, err := c.s.Verify(c.heap)
	wantErr(t, "Verify", err, frags...)
	wantErr(t, "ReopenWith", c.reopen(t), frags...)
}

// TestVerifyRejectsBlockReferencedTwice: two slots of one shard point at one
// entry block.
func TestVerifyRejectsBlockReferencedTwice(t *testing.T) {
	c := newCorruptible(t)
	const sh = 2
	table, w, empty := c.liveAndEmpty(t, sh)
	c.heap.Store(table+nvm.Addr(empty*slotWords), w)

	frags := []string{"referenced by both", fmt.Sprintf("shard %d slot ", sh), fmt.Sprintf("block %d ", slotBlock(w))}
	_, err := c.s.Verify(c.heap)
	wantErr(t, "Verify", err, frags...)
	wantErr(t, "ReopenWith", c.reopen(t), frags...)
}

// TestReopenRejectsBlockOverlappingTable: an entry block's header claims a
// value long enough to run into the shard table that follows it. The key
// bytes still parse; the index walk's overlap check fails, in Verify and in
// the reopen alike, naming both regions.
func TestReopenRejectsBlockOverlappingTable(t *testing.T) {
	c := newCorruptible(t)
	tables := map[nvm.Addr]bool{}
	for sh := 0; sh < c.s.shards; sh++ {
		hdr := c.s.shardHeader(sh)
		for _, off := range []nvm.Addr{shTable, shOld, shPending} {
			if a := nvm.Addr(c.heap.Load(hdr + off)); a != nvm.NilAddr {
				tables[a] = true
			}
		}
	}
	_, blocks, err := c.s.walk(c.heap, c.s.allShards())
	if err != nil {
		t.Fatal(err)
	}
	var entry, table nvm.Addr
	for i := 1; i < len(blocks) && entry == nvm.NilAddr; i++ {
		if !tables[blocks[i-1].Addr] && tables[blocks[i].Addr] {
			entry, table = blocks[i-1].Addr, blocks[i].Addr
		}
	}
	if entry == nvm.NilAddr {
		t.Fatal("no entry block is followed by a shard table")
	}
	keyLen, _ := unpackHeader(c.heap.Load(entry))
	c.heap.Store(entry, packHeader(keyLen, int(table-entry)*8))

	frags := []string{"overlaps", fmt.Sprintf("entry block [%d,", entry), fmt.Sprintf("table [%d,", table)}
	_, err = c.s.Verify(c.heap)
	wantErr(t, "Verify", err, frags...)
	wantErr(t, "ReopenWith", c.reopen(t), frags...)
}

// TestVerifyAllocationsFlatInEntries: the index walk allocates per walk (the
// region list, the sort words, the duplicate-key map, the key buffers), never
// per entry, so four times the keys costs Verify at most a constant more
// allocations: the duplicate-key map's extra tables.
func TestVerifyAllocationsFlatInEntries(t *testing.T) {
	allocs := func(keys int) float64 {
		eng, heap := newNonDurable(t, 1<<22, 1<<21)
		th := eng.Register()
		s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 16})
		for i := 0; i < keys; i++ {
			if err := s.Put(th, fmt.Appendf(nil, "key-%06d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		mustVerify(t, s, heap)
		return testing.AllocsPerRun(5, func() {
			if _, err := s.Verify(heap); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n, slack = 2000, 16
	small, large := allocs(n), allocs(4*n)
	t.Logf("Verify allocations: %d keys %.0f, %d keys %.0f", n, small, 4*n, large)
	if large > small+slack {
		t.Fatalf("Verify allocations grow with the entries: %.0f at %d keys, %.0f at %d (slack %d)", small, n, large, 4*n, slack)
	}
}
