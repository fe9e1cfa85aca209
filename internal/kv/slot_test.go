package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"crafty/internal/alloc"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// TestSlotPackRoundTrip packs every edge of the stored hash range with the
// first and the last line a slot can name, and checks that the word unpacks
// to both halves and can never read as an empty or tombstoned slot.
func TestSlotPackRoundTrip(t *testing.T) {
	hashes := []uint64{0, 1, slotHashMask >> 1, slotHashMask - 1, slotHashMask}
	for b := 0; b < slotHashBits; b++ {
		hashes = append(hashes, 1<<b, slotHashMask&^(1<<b))
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1000; i++ {
		hashes = append(hashes, rng.Uint64()&slotHashMask)
	}
	lines := []uint64{0, 1, slotLineMask - 1, slotLineMask}
	for _, hash := range hashes {
		for _, line := range lines {
			block := nvm.Addr(line * nvm.WordsPerLine)
			w := packSlot(hash, block)
			if w == slotEmpty || w == slotTombstone || w&slotLive == 0 {
				t.Fatalf("packSlot(%#x, line %d) = %#x: not a live slot word", hash, line, w)
			}
			if got := slotHashOf(w); got != hash {
				t.Fatalf("packSlot(%#x, line %d): hash unpacks to %#x", hash, line, got)
			}
			if got := slotBlock(w); got != block {
				t.Fatalf("packSlot(%#x, line %d): block unpacks to %d, want %d", hash, line, got, block)
			}
		}
	}
}

// TestSlotHashCarriesTheProbeStart checks, for every shard count a store can
// have and every table size the stored bits can index, that a slot word
// alone yields the probe start its key's full hash does — what lets
// migration move entries without reading keys.
func TestSlotHashCarriesTheProbeStart(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for shardBits := uint(0); shardBits <= 16; shardBits++ {
		s := &Store{shards: 1 << shardBits, shardBits: shardBits}
		for i := 0; i < 200; i++ {
			h := rng.Uint64()
			w := packSlot(s.slotHash(h), nvm.WordsPerLine)
			for slots := uint64(16); slots <= maxSlotsPerShard; slots *= 2 {
				if got, want := slotHashOf(w)&(slots-1), s.slotStart(h, slots); got != want {
					t.Fatalf("shards 2^%d, %d slots, hash %#x: slot word starts at %d, key at %d", shardBits, slots, h, got, want)
				}
			}
		}
	}
}

// TestInsertsThroughRehashes grows every shard from 16 to at least 64 slots
// — two rehashes each, with migration copying slot words — and checks after
// every insert that all keys so far are findable and Verify is clean.
func TestInsertsThroughRehashes(t *testing.T) {
	eng, heap := newNonDurable(t, 1<<21, 1<<19)
	th := eng.Register()
	const shards = 4
	s := mustCreate(t, eng, th, Config{Shards: shards, InitialSlotsPerShard: 16})
	key := func(i int) []byte { return fmt.Appendf(nil, "rehash-%d", i) }
	val := func(i int) []byte { return fmt.Appendf(nil, "value-%d", i) }
	n := 0
	grown := func() bool {
		for sh := 0; sh < shards; sh++ {
			hdr := s.shardHeader(sh)
			if heap.Load(hdr+shSlots) < 64 || heap.Load(hdr+shOld) != 0 || heap.Load(hdr+shPending) != 0 {
				return false
			}
		}
		return true
	}
	for ; !grown(); n++ {
		if n == 1000 {
			t.Fatal("1000 inserts left a shard below 64 slots or mid-rehash")
		}
		if err := s.Put(th, key(n), val(n)); err != nil {
			t.Fatal(err)
		}
		if rep := mustVerify(t, s, heap); rep.Entries != uint64(n+1) {
			t.Fatalf("after %d inserts Verify found %d entries", n+1, rep.Entries)
		}
		for i := 0; i <= n; i++ {
			if v, ok, err := s.Get(th, key(i), nil); err != nil || !ok || string(v) != string(val(i)) {
				t.Fatalf("after %d inserts get %s = %q, %v, %v", n+1, key(i), v, ok, err)
			}
		}
	}
	t.Logf("%d inserts took %d shards from 16 to ≥ 64 slots", n, shards)
}

// placedKeys returns, for each start slot 0..n-1 of a one-shard store's
// table of the given size, a distinct key whose probe starts there.
func placedKeys(s *Store, slots uint64, n int) [][]byte {
	keys := make([][]byte, n)
	for i, left := 0, n; left > 0; i++ {
		k := fmt.Appendf(nil, "placed-%d", i)
		if p := s.slotStart(hashKey(k), slots); p < uint64(n) && keys[p] == nil {
			keys[p] = k
			left--
		}
	}
	return keys
}

// TestTombstoneHeavyShardRebuildsAtItsOwnSize fills a table's used count
// mostly with tombstones: the rehash it triggers must keep the table's size
// and leave no tombstone behind.
func TestTombstoneHeavyShardRebuildsAtItsOwnSize(t *testing.T) {
	eng, heap := newNonDurable(t, 1<<20, 1<<18)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 1, InitialSlotsPerShard: 64})
	hdr := s.shardHeader(0)
	// Keys on slots 0..47 fill exactly 3/4 of the table; deleting slots
	// 0..43 leaves 44 tombstones.
	keys := placedKeys(s, 64, 49)
	for _, k := range keys[:48] {
		if err := s.Put(th, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:44] {
		if _, err := s.Delete(th, k); err != nil {
			t.Fatal(err)
		}
	}
	if heap.Load(hdr+shPending) != 0 {
		t.Fatal("a rehash started before the table passed 3/4 used")
	}
	// The insert on slot 48 passes the threshold with 5 live entries.
	if err := s.Put(th, keys[48], []byte("v")); err != nil {
		t.Fatal(err)
	}
	if heap.Load(hdr+shPending) == 0 {
		t.Fatal("passing 3/4 used started no rehash")
	}
	// Updates are mutating operations: they drive the rebuild to its end.
	for i := 0; heap.Load(hdr+shPending) != 0 || heap.Load(hdr+shOld) != 0; i++ {
		if i == 200 {
			t.Fatal("rebuild still in flight after 200 mutating operations")
		}
		if err := s.Put(th, keys[44], []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if slots := heap.Load(hdr + shSlots); slots != 64 {
		t.Fatalf("tombstone-heavy table rebuilt at %d slots, want 64", slots)
	}
	if rep := mustVerify(t, s, heap); rep.Tombstones != 0 || rep.Entries != 5 {
		t.Fatalf("after the rebuild: %d tombstones, %d entries; want 0, 5", rep.Tombstones, rep.Entries)
	}
	for _, k := range keys[44:] {
		if _, ok, err := s.Get(th, k, nil); err != nil || !ok {
			t.Fatalf("get %s after the rebuild: %v, %v", k, ok, err)
		}
	}
}

// TestTableWordsPerSlot pins the index's arena footprint: after inserts that
// start no rehash, the arena's live words are the entry blocks' size classes
// plus exactly one word per slot of every shard's table.
func TestTableWordsPerSlot(t *testing.T) {
	eng, _ := newNonDurable(t, 1<<20, 1<<18)
	th := eng.Register()
	const shards, slots, n = 4, 64, 40
	s := mustCreate(t, eng, th, Config{Shards: shards, InitialSlotsPerShard: slots})
	want := shards * slots
	for i := 0; i < n; i++ {
		key, value := fmt.Appendf(nil, "k%d", i), fmt.Appendf(nil, "a value of some length %d", i*i)
		if err := s.Put(th, key, value); err != nil {
			t.Fatal(err)
		}
		want += alloc.SizeClass(blockWords(len(key), len(value)))
	}
	for sh := 0; sh < shards; sh++ {
		if heap := eng.Heap(); heap.Load(s.shardHeader(sh)+shPending) != 0 {
			t.Fatalf("shard %d started a rehash; the footprint below assumes none", sh)
		}
	}
	if got := arenaOf(eng).Stats().LiveWords; got != want {
		t.Fatalf("arena live words = %d, want %d (entry blocks + %d·%d table words)", got, want, shards, slots)
	}
}

// TestReopenRejectsOtherVersion checks that a store whose version word names
// the two-word-slot format fails ReopenWith typed instead of being misread.
func TestReopenRejectsOtherVersion(t *testing.T) {
	eng, heap := newNonDurable(t, 1<<20, 1<<18)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 16})
	if err := s.Put(th, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	heap.Store(s.Root()+offVersion, 1)
	if _, _, err := ReopenWith(eng, s.Root(), ReopenOptions{}); !errors.Is(err, ErrVersion) {
		t.Fatalf("ReopenWith over a version-1 store: err = %v, want ErrVersion", err)
	}
}

// TestGrowthPastStoredHashBitsRefused asks a shard's rehash trigger to double
// a full table of maxSlotsPerShard live entries: it must refuse typed, before
// it allocates or stamps anything.
func TestGrowthPastStoredHashBitsRefused(t *testing.T) {
	eng, heap := newNonDurable(t, 1<<20, 1<<18)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 16})
	before := arenaOf(eng).Stats().LiveWords
	err := th.Atomic(func(tx ptm.Tx) error {
		hdr := s.shardHeader(0)
		tx.Store(hdr+shLive, maxSlotsPerShard) // rolled back with the refusal
		return s.maybeStartRehash(tx, hdr, maxSlotsPerShard, maxSlotsPerShard)
	})
	if !errors.Is(err, ErrIndexFull) {
		t.Fatalf("doubling a %d-slot table: err = %v, want ErrIndexFull", uint64(maxSlotsPerShard), err)
	}
	if got := arenaOf(eng).Stats().LiveWords; got != before {
		t.Fatalf("refused growth changed the arena's live words %d → %d", before, got)
	}
	mustVerify(t, s, heap)
}
