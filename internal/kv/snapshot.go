package kv

// Snapshot export: the bulk-load source for replication catch-up. A replica
// joining a live store cannot tail the group-commit stream from the
// beginning (the primary's in-memory stream log is bounded), so the primary
// hands it the store's full contents as of a quiesced point — the same
// quiesced point a checkpoint watermark is written at — and the replica
// tails the stream from the sequence number recorded there.

import (
	"fmt"

	"crafty/internal/nvm"
)

// SnapshotEntry is one live key/value pair emitted by Snapshot. Both slices
// alias a per-call scratch buffer only until the callback returns; callers
// that retain them must copy.
type SnapshotEntry struct {
	Key   []byte
	Value []byte
}

// Snapshot walks the whole index non-transactionally and emits every live
// entry, in shard order. Exactly like Verify, it requires the store to be
// quiesced: no transaction in flight and every thread's log synced (the
// craftykv server runs it inside its SYNC barrier, alongside Checkpoint, so
// the emitted state is the same rollback-proof state the checkpoint
// watermark describes). Iteration stops at the first callback error, which
// is returned.
//
// Entries mid-migration are emitted once: a shard's old table is scanned
// too, but reinsertion into the active table removes the old slot in the
// same transaction, so a live block is referenced by exactly one slot
// (Verify checks this invariant).
func (s *Store) Snapshot(heap *nvm.Heap, emit func(e SnapshotEntry) error) error {
	var scratch []byte
	for sh := 0; sh < s.shards; sh++ {
		hdr := s.shardHeader(sh)
		tables := [][2]uint64{{heap.Load(hdr + shTable), heap.Load(hdr + shSlots)}}
		if old := heap.Load(hdr + shOld); nvm.Addr(old) != nvm.NilAddr {
			tables = append(tables, [2]uint64{old, heap.Load(hdr + shOldSlots)})
		}
		for _, t := range tables {
			table, slots := nvm.Addr(t[0]), t[1]
			for i := uint64(0); i < slots; i++ {
				w := heap.Load(table + nvm.Addr(i*slotWords))
				if w == slotEmpty || w == slotTombstone {
					continue
				}
				block := slotBlock(w)
				if block == nvm.NilAddr || int(block) >= heap.Words() {
					return fmt.Errorf("kv: snapshot: shard %d slot %d references block %d out of range", sh, i, block)
				}
				keyLen, valLen := unpackHeader(heap.Load(block))
				if keyLen == 0 || keyLen >= 1<<16 || int(block)+blockWords(keyLen, valLen) > heap.Words() {
					return fmt.Errorf("kv: snapshot: shard %d slot %d block %d has corrupt header (key %d, value %d)", sh, i, block, keyLen, valLen)
				}
				scratch = loadBytes(heap, block+1, keyLen, scratch[:0])
				scratch = loadBytes(heap, block+1+nvm.Addr((keyLen+7)/8), valLen, scratch)
				if err := emit(SnapshotEntry{Key: scratch[:keyLen], Value: scratch[keyLen:]}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// loadBytes appends n bytes stored word-packed at base to dst — the
// non-transactional sibling of appendBytes, for quiesced walks.
func loadBytes(heap *nvm.Heap, base nvm.Addr, n int, dst []byte) []byte {
	for w := 0; w*8 < n; w++ {
		v := heap.Load(base + nvm.Addr(w))
		for i := 0; i < 8 && w*8+i < n; i++ {
			dst = append(dst, byte(v>>(8*i)))
		}
	}
	return dst
}
