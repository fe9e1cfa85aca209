package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

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
// key that hashes back to the slot's stored hash bits and shard, no key or
// block appearing twice, and no two reachable regions (tables and entry
// blocks) overlapping. It is the post-crash index check and the YCSB
// workload's integrity check.
func (s *Store) Verify(heap *nvm.Heap) (VerifyReport, error) {
	rep, _, err := s.walk(heap, s.allShards())
	return rep, err
}

// allShards returns [0, 1, ..., shards-1].
func (s *Store) allShards() []int {
	all := make([]int, s.shards)
	for sh := range all {
		all[sh] = sh
	}
	return all
}

// walk is the one index pass behind Verify, Checkpoint and ReopenWith. It
// reads every slot of the given shards once, checks what Verify promises, and
// returns the arena blocks those shards reach — each shard's tables (active,
// old, and pending) and every live entry's block — sorted by address. Over
// all shards that is by construction the store's complete live set: the index
// is its only persistent root, and the arena's reconciling recovery makes
// every other word below the high-water mark reusable. Restricted to a subset
// (a checkpoint verifies the shards dirtied since the previous one, the
// bounded reopen those dirtied since the watermark), the duplicate and
// overlap checks cover only that subset; cross-checking against unverified
// shards is what the full pass is for.
func (s *Store) walk(heap *nvm.Heap, shardSet []int) (VerifyReport, []alloc.Block, error) {
	// Size the region list and the duplicate-key map from the live counters.
	// Every entry takes at least a line, which bounds a corrupt counter's
	// hint. A key lives in one shard only, so the map holds one shard at a
	// time.
	limit := uint64(heap.Words() / nvm.WordsPerLine)
	var total, most uint64
	for _, sh := range shardSet {
		live := min(heap.Load(s.shardHeader(sh)+shLive), limit)
		total = min(total+live, limit)
		most = max(most, live)
	}
	w := walker{
		s:       s,
		heap:    heap,
		regions: make([]region, 0, total+3*uint64(len(shardSet))),
		keys:    make(map[uint64]nvm.Addr, most),
	}
	for _, sh := range shardSet {
		if err := w.shard(sh); err != nil {
			return w.rep, nil, err
		}
	}
	// Sort by address through one word per region, its line above its index:
	// that sorts several times faster than the regions themselves. Every
	// region is line aligned (validTable, slotBlock), and a line number fits
	// in 32 bits (maxHeapWords).
	order := make([]uint64, len(w.regions))
	for i, r := range w.regions {
		order[i] = uint64(r.Addr)/nvm.WordsPerLine<<32 | uint64(i)
	}
	slices.Sort(order)
	blocks := make([]alloc.Block, len(order))
	for i, o := range order {
		r := w.regions[uint32(o)]
		if i > 0 {
			if prev := w.regions[uint32(order[i-1])]; prev.Addr+nvm.Addr(alloc.SizeClass(prev.Words)) > r.Addr {
				return w.rep, nil, fmt.Errorf("kv: %v overlaps %v", prev, r)
			}
		}
		blocks[i] = r.Block
	}
	return w.rep, blocks, nil
}

// region is one arena block the index reaches, with where the walk found it
// for an overlap's error text.
type region struct {
	alloc.Block
	shard int32
	slot  int32 // an entry block's slot index, or a table kind (< 0)
}

// Table kinds, stored in region.slot.
const (
	activeTable = -1 - iota
	oldTable
	pendingTable
)

func (r region) String() string {
	var what string
	switch r.slot {
	case activeTable:
		what = "table"
	case oldTable:
		what = "old table"
	case pendingTable:
		what = "pending table"
	default:
		what = fmt.Sprintf("slot %d entry block", r.slot)
	}
	return fmt.Sprintf("shard %d %s [%d,+%d)", r.shard, what, r.Addr, r.Words)
}

// walker is one walk's state.
type walker struct {
	s       *Store
	heap    *nvm.Heap
	rep     VerifyReport
	regions []region
	keys    map[uint64]nvm.Addr // the current shard's key hashes → entry blocks
	key     []byte              // the current entry's key
	other   []byte              // an earlier entry's key, read on a hash hit
}

// validTable reports whether a shard header's table words describe a table a
// walk may read: line aligned, a power of two of at least 16 slots, no more
// than the stored hash bits can index, inside the heap.
func (w *walker) validTable(table nvm.Addr, slots uint64) bool {
	return table != nvm.NilAddr && table%nvm.WordsPerLine == 0 &&
		slots >= 16 && slots&(slots-1) == 0 && slots <= maxSlotsPerShard &&
		uint64(table)+slots*slotWords <= uint64(w.heap.Words())
}

// shard walks shard sh's tables and checks its counters.
func (w *walker) shard(sh int) error {
	heap := w.heap
	hdr := w.s.shardHeader(sh)
	table := nvm.Addr(heap.Load(hdr + shTable))
	slots := heap.Load(hdr + shSlots)
	if !w.validTable(table, slots) {
		return fmt.Errorf("kv: shard %d has corrupt table (addr=%d slots=%d)", sh, table, slots)
	}
	old := nvm.Addr(heap.Load(hdr + shOld))
	oldSlots := heap.Load(hdr + shOldSlots)
	if old != nvm.NilAddr && !w.validTable(old, oldSlots) {
		return fmt.Errorf("kv: shard %d has corrupt old table (addr=%d slots=%d)", sh, old, oldSlots)
	}
	pending := nvm.Addr(heap.Load(hdr + shPending))
	pendingSlots := heap.Load(hdr + shPendingSlots)
	if pending != nvm.NilAddr && !w.validTable(pending, pendingSlots) {
		return fmt.Errorf("kv: shard %d has corrupt pending table (addr=%d slots=%d)", sh, pending, pendingSlots)
	}
	if pending != nvm.NilAddr || old != nvm.NilAddr {
		w.rep.Rehashing++
	}
	w.addTable(sh, table, slots, activeTable)
	if pending != nvm.NilAddr {
		w.addTable(sh, pending, pendingSlots, pendingTable)
	}

	clear(w.keys)
	live, used, err := w.table(sh, table, slots)
	if err != nil {
		return err
	}
	if old != nvm.NilAddr {
		w.addTable(sh, old, oldSlots, oldTable)
		oldLive, _, err := w.table(sh, old, oldSlots)
		if err != nil {
			return err
		}
		live += oldLive
	}
	if got := heap.Load(hdr + shLive); got != live {
		return fmt.Errorf("kv: shard %d live counter %d, found %d entries", sh, got, live)
	}
	if got := heap.Load(hdr + shUsed); got != used {
		return fmt.Errorf("kv: shard %d used counter %d, found %d used slots", sh, got, used)
	}
	w.rep.Entries += live
	return nil
}

func (w *walker) addTable(sh int, base nvm.Addr, slots uint64, kind int32) {
	w.regions = append(w.regions, region{alloc.Block{Addr: base, Words: int(slots) * slotWords}, int32(sh), kind})
}

// table walks one of shard sh's tables and returns its live and used (live
// or tombstoned) slot counts.
func (w *walker) table(sh int, base nvm.Addr, slots uint64) (live, used uint64, err error) {
	for i := uint64(0); i < slots; i++ {
		sw := w.heap.Load(base + nvm.Addr(i*slotWords))
		switch sw {
		case slotEmpty:
			continue
		case slotTombstone:
			w.rep.Tombstones++
			used++
			continue
		}
		used++
		live++
		if err := w.entry(sh, int32(i), sw); err != nil {
			return 0, 0, fmt.Errorf("kv: shard %d slot %d: %w", sh, i, err)
		}
	}
	return live, used, nil
}

// entry checks one live slot word and its block, and records the block.
func (w *walker) entry(sh int, slot int32, sw uint64) error {
	heap := w.heap
	if sw&slotLive == 0 {
		return fmt.Errorf("invalid slot word %#x", sw)
	}
	block := slotBlock(sw)
	if block == nvm.NilAddr || int(block) >= heap.Words() {
		return fmt.Errorf("block address %d out of range", block)
	}
	keyLen, valLen := unpackHeader(heap.Load(block))
	if keyLen == 0 || keyLen >= 1<<16 {
		return fmt.Errorf("block %d has invalid key length %d", block, keyLen)
	}
	words := blockWords(keyLen, valLen)
	if int(block)+words > heap.Words() {
		return fmt.Errorf("block %d (%d key + %d value bytes) extends past the heap", block, keyLen, valLen)
	}
	w.key = appendKey(heap, block, keyLen, w.key[:0])
	h := hashKey(w.key)
	if w.s.slotHash(h) != slotHashOf(sw) {
		return fmt.Errorf("block %d key %q stores hash bits %#x, slot holds %#x", block, w.key, w.s.slotHash(h), slotHashOf(sw))
	}
	if got := w.s.shardOf(h); got != sh {
		return fmt.Errorf("key %q belongs to shard %d, found in shard %d", w.key, got, sh)
	}
	// Each key takes the first free map slot on its chain h, h+1, ..., so an
	// earlier copy of this key sits on the chain before any free slot; a
	// different key met on the way costs one comparison.
	for k := h; ; k++ {
		prev, ok := w.keys[k]
		if !ok {
			w.keys[k] = block
			break
		}
		if err := w.same(prev, block); err != nil {
			return err
		}
	}
	w.regions = append(w.regions, region{alloc.Block{Addr: block, Words: words}, int32(sh), slot})
	return nil
}

// same fails when block, holding w.key, repeats the earlier entry block prev
// or prev's key. The block check comes first: two slots naming one block also
// name one key, and only this check says which fault it is.
func (w *walker) same(prev, block nvm.Addr) error {
	if prev == block {
		return fmt.Errorf("block %d (key %q) referenced by both this slot and an earlier one", block, w.key)
	}
	keyLen, _ := unpackHeader(w.heap.Load(prev))
	w.other = appendKey(w.heap, prev, keyLen, w.other[:0])
	if bytes.Equal(w.other, w.key) {
		return fmt.Errorf("duplicate key %q", w.key)
	}
	return nil
}

// appendKey appends the keyLen key bytes of the entry block at block to dst.
func appendKey(heap *nvm.Heap, block nvm.Addr, keyLen int, dst []byte) []byte {
	n := len(dst) + keyLen
	for w := 0; w*8 < keyLen; w++ {
		dst = binary.LittleEndian.AppendUint64(dst, heap.Load(block+1+nvm.Addr(w)))
	}
	return dst[:n]
}
