package kv

import (
	"fmt"
	"sort"

	"crafty/internal/alloc"
	"crafty/internal/nvm"
)

// VerifyReport summarizes an index verification pass.
type VerifyReport struct {
	Entries    uint64 // live entries found across all shards
	Tombstones uint64 // tombstoned slots (active + old tables)
	Rehashing  int    // shards mid-rehash (zeroing or migrating)
}

// Verify walks the whole index non-transactionally (all workers must be
// stopped, exactly as at recovery time) and checks its invariants: header
// sanity, per-shard counter consistency, every live slot's block parsing to a
// key that hashes back to the slot's stored hash bits and shard, and no
// key or block appearing twice. It is the post-crash index check and the
// workload driver's integrity check.
func (s *Store) Verify(heap *nvm.Heap) (VerifyReport, error) {
	return s.verifyShards(heap, s.allShards())
}

// allShards returns [0, 1, ..., shards-1].
func (s *Store) allShards() []int {
	all := make([]int, s.shards)
	for sh := range all {
		all[sh] = sh
	}
	return all
}

// verifyShards is Verify restricted to the given shards — the bounded-
// recovery form: a checkpoint verifies the shards dirtied since the previous
// checkpoint, and ReopenWith the shards dirtied since the last watermark.
// The duplicate-key and duplicate-block checks cover only the verified
// subset; cross-checking against unverified shards is what the full pass
// (and the paranoid reopen) is for.
func (s *Store) verifyShards(heap *nvm.Heap, shardSet []int) (VerifyReport, error) {
	var rep VerifyReport
	// Size the duplicate checks from the live counters: growing both maps
	// entry by entry made a 230,000-key recovery's index pass about an eighth
	// slower. Every entry takes at least a line, which bounds a corrupt
	// counter's hint.
	limit := uint64(heap.Words() / nvm.WordsPerLine)
	n := uint64(0)
	for _, sh := range shardSet {
		n = min(n+min(heap.Load(s.shardHeader(sh)+shLive), limit), limit)
	}
	blocks := make(map[nvm.Addr]string, n)
	keys := make(map[string]bool, n)
	for _, sh := range shardSet {
		hdr := s.shardHeader(sh)
		table := nvm.Addr(heap.Load(hdr + shTable))
		slots := heap.Load(hdr + shSlots)
		if table == nvm.NilAddr || slots < 16 || slots&(slots-1) != 0 {
			return rep, fmt.Errorf("kv: shard %d has corrupt table (addr=%d slots=%d)", sh, table, slots)
		}
		if heap.Load(hdr+shPending) != 0 || heap.Load(hdr+shOld) != 0 {
			rep.Rehashing++
		}
		var live, used uint64
		count := func(table nvm.Addr, slots uint64, active bool) error {
			for i := uint64(0); i < slots; i++ {
				w := heap.Load(table + nvm.Addr(i*slotWords))
				switch w {
				case slotEmpty:
					continue
				case slotTombstone:
					rep.Tombstones++
					if active {
						used++
					}
					continue
				}
				if active {
					used++
				}
				live++
				block := slotBlock(w)
				key, err := s.checkEntry(heap, sh, w)
				if err != nil {
					return fmt.Errorf("kv: shard %d slot %d: %w", sh, i, err)
				}
				// The block check comes first: two slots naming one block
				// also name one key, and only this check says which fault
				// it is.
				if prev, ok := blocks[block]; ok {
					return fmt.Errorf("kv: shard %d slot %d: block %d (key %q) referenced by both this slot and an earlier one", sh, i, block, prev)
				}
				blocks[block] = key
				if keys[key] {
					return fmt.Errorf("kv: shard %d slot %d: duplicate key %q", sh, i, key)
				}
				keys[key] = true
			}
			return nil
		}
		if err := count(table, slots, true); err != nil {
			return rep, err
		}
		if old := nvm.Addr(heap.Load(hdr + shOld)); old != nvm.NilAddr {
			oldSlots := heap.Load(hdr + shOldSlots)
			if oldSlots < 16 || oldSlots&(oldSlots-1) != 0 {
				return rep, fmt.Errorf("kv: shard %d has corrupt old table (slots=%d)", sh, oldSlots)
			}
			if err := count(old, oldSlots, false); err != nil {
				return rep, err
			}
		}
		if got := heap.Load(hdr + shLive); got != live {
			return rep, fmt.Errorf("kv: shard %d live counter %d, found %d entries", sh, got, live)
		}
		if got := heap.Load(hdr + shUsed); got != used {
			return rep, fmt.Errorf("kv: shard %d used counter %d, found %d used slots", sh, got, used)
		}
		rep.Entries += live
	}
	return rep, nil
}

// checkEntry validates one live slot word and its block and returns the key.
func (s *Store) checkEntry(heap *nvm.Heap, sh int, w uint64) (string, error) {
	if w&slotLive == 0 {
		return "", fmt.Errorf("invalid slot word %#x", w)
	}
	block := slotBlock(w)
	if block == nvm.NilAddr || int(block) >= heap.Words() {
		return "", fmt.Errorf("block address %d out of range", block)
	}
	keyLen, valLen := unpackHeader(heap.Load(block))
	if keyLen == 0 || keyLen >= 1<<16 {
		return "", fmt.Errorf("block %d has invalid key length %d", block, keyLen)
	}
	if int(block)+blockWords(keyLen, valLen) > heap.Words() {
		return "", fmt.Errorf("block %d (%d key + %d value bytes) extends past the heap", block, keyLen, valLen)
	}
	key := make([]byte, 0, keyLen)
	for w := 0; w*8 < keyLen; w++ {
		v := heap.Load(block + 1 + nvm.Addr(w))
		for i := 0; i < 8 && w*8+i < keyLen; i++ {
			key = append(key, byte(v>>(8*i)))
		}
	}
	h := hashKey(key)
	if s.slotHash(h) != slotHashOf(w) {
		return "", fmt.Errorf("block %d key %q stores hash bits %#x, slot holds %#x", block, key, s.slotHash(h), slotHashOf(w))
	}
	if got := s.shardOf(h); got != sh {
		return "", fmt.Errorf("key %q belongs to shard %d, found in shard %d", key, got, sh)
	}
	return string(key), nil
}

// reachableBlocks enumerates every arena block reachable from the index —
// each shard's tables (active, old, and pending) and every live entry's
// block — which is by construction the complete live set: the index is the
// store's only persistent root. kv.Reopen hands the set to the arena's
// reconciling recovery, which makes every other word below the high-water
// mark reusable, so nothing leaks across a crash. Overlapping regions
// indicate a corrupt index and fail with a description of both.
func (s *Store) reachableBlocks(heap *nvm.Heap) ([]alloc.Block, error) {
	return s.reachableBlocksOf(heap, s.allShards())
}

// reachableBlocksOf enumerates the blocks reachable from the given shards
// only; the bounded-recovery reopen asserts these against the scavenged
// arena instead of reconciling the whole live set.
func (s *Store) reachableBlocksOf(heap *nvm.Heap, shardSet []int) ([]alloc.Block, error) {
	type region struct {
		addr  nvm.Addr
		words int
		what  string
	}
	var regions []region
	add := func(addr nvm.Addr, words int, what string) {
		regions = append(regions, region{addr, words, what})
	}
	for _, sh := range shardSet {
		hdr := s.shardHeader(sh)
		table := nvm.Addr(heap.Load(hdr + shTable))
		slots := heap.Load(hdr + shSlots)
		add(table, int(slots)*slotWords, fmt.Sprintf("shard %d table", sh))
		if old := nvm.Addr(heap.Load(hdr + shOld)); old != nvm.NilAddr {
			add(old, int(heap.Load(hdr+shOldSlots))*slotWords, fmt.Sprintf("shard %d old table", sh))
		}
		if pending := nvm.Addr(heap.Load(hdr + shPending)); pending != nvm.NilAddr {
			add(pending, int(heap.Load(hdr+shPendingSlots))*slotWords, fmt.Sprintf("shard %d pending table", sh))
		}
		tables := []struct {
			base  nvm.Addr
			slots uint64
		}{{table, slots}}
		if old := nvm.Addr(heap.Load(hdr + shOld)); old != nvm.NilAddr {
			tables = append(tables, struct {
				base  nvm.Addr
				slots uint64
			}{old, heap.Load(hdr + shOldSlots)})
		}
		for _, t := range tables {
			for i := uint64(0); i < t.slots; i++ {
				w := heap.Load(t.base + nvm.Addr(i*slotWords))
				if w == slotEmpty || w == slotTombstone {
					continue
				}
				block := slotBlock(w)
				keyLen, valLen := unpackHeader(heap.Load(block))
				add(block, blockWords(keyLen, valLen), fmt.Sprintf("shard %d entry block", sh))
			}
		}
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].addr < regions[j].addr })
	blocks := make([]alloc.Block, 0, len(regions))
	for i, r := range regions {
		if i > 0 {
			prev := regions[i-1]
			if prev.addr+nvm.Addr(alloc.SizeClass(prev.words)) > r.addr {
				return nil, fmt.Errorf("kv: %s [%d,+%d) overlaps %s [%d,+%d)",
					prev.what, prev.addr, prev.words, r.what, r.addr, r.words)
			}
		}
		blocks = append(blocks, alloc.Block{Addr: r.addr, Words: r.words})
	}
	return blocks, nil
}
