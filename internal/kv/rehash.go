package kv

import (
	"fmt"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Incremental per-shard rehash.
//
// A shard moves through three states, all recorded in its persistent header
// so a crash at any point leaves a resumable protocol:
//
//	IDLE:      old == 0, pending == 0. One active table serves everything.
//	ZEROING:   pending != 0. A new table — double the size, or the same size
//	           when tombstones filled the old one — has been allocated and is
//	           being zeroed transactionally, zeroBatchWords per mutating
//	           operation (the arena's own zeroing is not transactional, so a
//	           table must be written through a Tx before any slot of it may
//	           be trusted after a crash). The active table still serves all
//	           traffic, past its load threshold — the margin below is sized
//	           so zeroing plus migration finish before it can fill.
//	MIGRATING: old != 0. The zeroed table became active; lookups consult the
//	           new table then the old, inserts go to the new table, and each
//	           mutating operation migrates up to migrateBatch live entries
//	           (tombstoning their old slots so old-table probe chains stay
//	           intact). When the cursor passes the end, the old table is
//	           freed (deferred to commit by the TxLog) and the shard is IDLE.
//
// Every step is part of some user transaction, so the whole protocol is
// failure atomic for free: a crash rolls back to a prefix of committed
// steps, never a torn table.
//
// Progress argument: rehash starts when used > 3/4 * slots, leaving at least
// slots/4 insertions before the active table can fill. Zeroing the at most
// 2*slots pending words takes ceil(2*slots/zeroBatchWords) mutating
// operations and migration at most ceil(slots/migrateBatch); with the
// package's constants that sum stays safely under slots/4 for every table
// size >= 16 slots, and only insertions (which drive both cursors) consume
// the margin. The new table never fills either: a same-size one starts with
// at most 5/8 * slots live entries and, by the same margin, receives fewer
// than slots/4 insertions before the protocol ends.

// maybeStartRehash begins a rehash if the shard is IDLE and past its load
// threshold. Called with the post-insert used count. The new table doubles
// the old one unless live entries fill at most rebuildNum/rebuildDen of the
// slots: then tombstones are what filled the table, and the shard is rebuilt
// at its own size, which drops them (migration copies live entries only). A
// table already at maxSlotsPerShard cannot double, so the insert that would
// need it to fails with ErrIndexFull and rolls back with its transaction.
func (s *Store) maybeStartRehash(tx ptm.Tx, hdr nvm.Addr, used, slots uint64) error {
	if used*loadDen <= slots*loadNum {
		return nil
	}
	if tx.Load(hdr+shOld) != 0 || tx.Load(hdr+shPending) != 0 {
		return nil // already in progress
	}
	pendingSlots := slots
	if tx.Load(hdr+shLive)*rebuildDen > slots*rebuildNum {
		pendingSlots = slots * 2
	}
	if pendingSlots > maxSlotsPerShard {
		return fmt.Errorf("%w: %d slots cannot double", ErrIndexFull, slots)
	}
	s.stampShard(tx, hdr)
	pending := tx.Alloc(int(pendingSlots) * slotWords)
	tx.Store(hdr+shPending, uint64(pending))
	tx.Store(hdr+shPendingSlots, pendingSlots)
	tx.Store(hdr+shZeroCursor, 0)
	return nil
}

// stepRehash advances the shard's rehash, if one is in progress, by one
// bounded batch. Mutating operations call it first, so rehash progress rides
// on the workload's own transactions. The returned mask describes what the
// step did; it is volatile staging for post-commit metrics (the body may
// re-execute, so callers fold it only after their transaction commits) and
// may be discarded by callers with no off-path fold point.
func (s *Store) stepRehash(tx ptm.Tx, hdr nvm.Addr) rehashStep {
	if pending := nvm.Addr(tx.Load(hdr + shPending)); pending != nvm.NilAddr {
		return s.stepZeroing(tx, hdr, pending)
	}
	if old := nvm.Addr(tx.Load(hdr + shOld)); old != nvm.NilAddr {
		return s.stepMigration(tx, hdr, old)
	}
	return 0
}

// stepZeroing zeroes the next batch of the pending table; when it completes,
// the pending table becomes the active one and the previous active table
// becomes the migration source.
func (s *Store) stepZeroing(tx ptm.Tx, hdr, pending nvm.Addr) rehashStep {
	s.stampShard(tx, hdr)
	pendingWords := tx.Load(hdr+shPendingSlots) * slotWords
	cursor := tx.Load(hdr + shZeroCursor)
	end := cursor + zeroBatchWords
	if end > pendingWords {
		end = pendingWords
	}
	for w := cursor; w < end; w++ {
		tx.Store(pending+nvm.Addr(w), 0)
	}
	tx.Store(hdr+shZeroCursor, end)
	if end < pendingWords {
		return stepZeroBatch
	}
	// Swap: the zeroed table becomes active; begin migration.
	tx.Store(hdr+shOld, tx.Load(hdr+shTable))
	tx.Store(hdr+shOldSlots, tx.Load(hdr+shSlots))
	tx.Store(hdr+shTable, uint64(pending))
	tx.Store(hdr+shSlots, tx.Load(hdr+shPendingSlots))
	tx.Store(hdr+shPending, 0)
	tx.Store(hdr+shPendingSlots, 0)
	tx.Store(hdr+shZeroCursor, 0)
	tx.Store(hdr+shUsed, 0)
	tx.Store(hdr+shMigrate, 0)
	return stepZeroBatch | stepTableSwap
}

// stepMigration moves up to migrateBatch live entries from the old table into
// the active one, then frees the old table once the cursor passes its end.
func (s *Store) stepMigration(tx ptm.Tx, hdr, old nvm.Addr) rehashStep {
	s.stampShard(tx, hdr)
	oldSlots := tx.Load(hdr + shOldSlots)
	table := nvm.Addr(tx.Load(hdr + shTable))
	slots := tx.Load(hdr + shSlots)
	cursor := tx.Load(hdr + shMigrate)
	moved := 0
	for cursor < oldSlots && moved < migrateBatch {
		slot := old + nvm.Addr(cursor*slotWords)
		w := tx.Load(slot)
		cursor++
		if w == slotEmpty || w == slotTombstone {
			continue
		}
		reinsert(tx, hdr, table, slots, w)
		tx.Store(slot, slotTombstone)
		moved++
	}
	tx.Store(hdr+shMigrate, cursor)
	if cursor == oldSlots {
		tx.Store(hdr+shOld, 0)
		tx.Store(hdr+shOldSlots, 0)
		tx.Store(hdr+shMigrate, 0)
		tx.Free(old)
		return stepMigrateBatch | stepRehashDone
	}
	return stepMigrateBatch
}

// reinsert copies a migrated live slot word into the active table. The word
// stores every hash bit the probe sequence of a table of up to
// maxSlotsPerShard slots uses (slotHash), so no key bytes need to be read.
// Migration never fails: the active table has room for every entry of the
// old one (see the progress argument above).
func reinsert(tx ptm.Tx, hdr, table nvm.Addr, slots uint64, w uint64) {
	idx := slotHashOf(w) & (slots - 1)
	for n := uint64(0); n < slots; n++ {
		slot := table + nvm.Addr(((idx+n)&(slots-1))*slotWords)
		switch t := tx.Load(slot); t {
		case slotEmpty, slotTombstone:
			tx.Store(slot, w)
			if t == slotEmpty {
				tx.Store(hdr+shUsed, tx.Load(hdr+shUsed)+1)
			}
			return
		}
	}
	panic("kv: migration target table full (sizing invariant violated)")
}
