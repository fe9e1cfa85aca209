package kv

// Bounded recovery: the checkpoint watermark and the O(dirty) reopen path.
//
// A checkpoint persists a *verified watermark*: the store's current epoch,
// recorded after every shard dirtied in that epoch has passed verification
// and had its reachable blocks asserted against the allocator. Mutating
// transactions stamp their shard's shEpoch word with the store's current
// epoch (see stampShard), so at any moment "stamp > watermark epoch" is
// exactly "structurally mutated since the last checkpoint" — and because the
// stamp is written through the mutating transaction, post-crash rollback
// keeps it consistent with the mutations it covers for free.
//
// The watermark itself is written crash-atomically without a transaction:
// two one-line slots, alternated by sequence number, each carrying a
// checksum over its payload. A torn write invalidates at most the slot being
// written; the reader takes the valid slot with the largest sequence number
// and falls back to the full-verify path when neither parses. A watermark is
// only trustworthy because it is written under the caller's durability
// barrier (every thread's log quiesced): after the barrier, no transaction
// that committed before it can ever be rolled back, so the verified state
// the watermark describes is the state any future recovery will reproduce.
//
// Reopen then does O(dirty) work: verify the shards stamped past the
// watermark, enumerate only their reachable blocks, and *assert* them
// against the arena state the header scavenge rebuilt — undo-logged
// alloc/free header flips (alloc.TxLog) are what make the scavenged headers
// exact after rollback, demoting the whole-store reconcile from load-bearing
// recovery step to escape hatch.

import (
	"fmt"
	"time"

	"crafty/internal/alloc"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Watermark slot layout: two slots of one cache line each at the end of the
// root region. A slot's checksum covers its first ckChecksum words; sequence
// numbers start at 1 and pick the slot (seq % 2), so the previous watermark
// survives any torn write of the next one.
const (
	ckptSlots = 2

	ckSeq       = 0 // monotone sequence number, 1-based
	ckEpoch     = 1 // epoch whose dirty shards were verified
	ckShards    = 2 // shard count, cross-checked at reopen
	ckEntries   = 3 // live entries store-wide at the checkpoint
	ckLiveWords = 4 // arena words allocated at the checkpoint
	ckUsedWords = 5 // arena high-water mark at the checkpoint
	ckChecksum  = 6 // FNV-1a over words 0..5
)

// ckptBase returns the watermark region's address (the root region's last
// two lines).
func (s *Store) ckptBase() nvm.Addr {
	return s.root + nvm.Addr((1+2*s.shards)*nvm.WordsPerLine)
}

// ckptChecksum mixes a slot's payload words (FNV-1a); the zero payload of a
// never-written slot does not checksum to its zero checksum word.
func ckptChecksum(words [ckChecksum]uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// watermark is a decoded checkpoint slot.
type watermark struct {
	seq       uint64
	epoch     uint64
	shards    uint64
	entries   uint64
	liveWords uint64
	usedWords uint64
}

// readWatermark returns the valid slot with the largest sequence number, or
// ok == false when neither slot parses (no checkpoint ever completed, or the
// region was lost).
func (s *Store) readWatermark(heap *nvm.Heap) (watermark, bool) {
	var best watermark
	ok := false
	for slot := 0; slot < ckptSlots; slot++ {
		base := s.ckptBase() + nvm.Addr(slot*nvm.WordsPerLine)
		var payload [ckChecksum]uint64
		for i := range payload {
			payload[i] = heap.Load(base + nvm.Addr(i))
		}
		if payload[ckSeq] == 0 || heap.Load(base+ckChecksum) != ckptChecksum(payload) {
			continue
		}
		if !ok || payload[ckSeq] > best.seq {
			best = watermark{
				seq:       payload[ckSeq],
				epoch:     payload[ckEpoch],
				shards:    payload[ckShards],
				entries:   payload[ckEntries],
				liveWords: payload[ckLiveWords],
				usedWords: payload[ckUsedWords],
			}
			ok = true
		}
	}
	return best, ok
}

// writeWatermark persists w into the slot its sequence number selects:
// payload first, checksum last, one flush-and-drain for the line. A crash
// anywhere in between leaves that slot failing its checksum and the other
// slot intact.
func (s *Store) writeWatermark(heap *nvm.Heap, f *nvm.Flusher, w watermark) {
	base := s.ckptBase() + nvm.Addr(int(w.seq%ckptSlots)*nvm.WordsPerLine)
	payload := [ckChecksum]uint64{w.seq, w.epoch, w.shards, w.entries, w.liveWords, w.usedWords}
	for i, v := range payload {
		heap.Store(base+nvm.Addr(i), v)
	}
	heap.Store(base+ckChecksum, ckptChecksum(payload))
	f.FlushRange(base, nvm.WordsPerLine)
	f.Drain()
}

// CheckpointReport summarizes one checkpoint pass.
type CheckpointReport struct {
	Seq         uint64 // watermark sequence number written
	Epoch       uint64 // epoch the watermark covers
	DirtyShards int    // shards verified this pass
	Entries     uint64 // live entries in the verified shards
	Coalesced   int    // free-block merges performed while quiesced
}

// Checkpoint verifies every shard dirtied in the current epoch, coalesces
// the arena's free lists, persists a new watermark, and advances the epoch.
// The caller must have quiesced the store: no transaction may be in flight,
// and every thread's log must have been durably synced (core.SyncDurable or
// the engine's equivalent) — the sync is what makes the verified state
// rollback-proof, and is the only moment free-block coalescing is safe (a
// merged header must never shadow a header a future rollback restores). The
// craftykv server runs Checkpoint inside its SYNC barrier.
func (s *Store) Checkpoint(eng ptm.Engine) (CheckpointReport, error) {
	start := time.Now()
	var rep CheckpointReport
	heap := eng.Heap()
	arena := arenaOf(eng)
	if arena == nil {
		return rep, fmt.Errorf("kv: engine %s does not expose an allocation arena to checkpoint", eng.Name())
	}
	epoch := s.epoch.Load()
	var dirty []int
	var entries uint64
	for sh := 0; sh < s.shards; sh++ {
		hdr := s.shardHeader(sh)
		entries += heap.Load(hdr + shLive)
		if heap.Load(hdr+shEpoch) >= epoch {
			dirty = append(dirty, sh)
		}
	}
	dirtyRep, err := s.verifyShards(heap, dirty)
	if err != nil {
		return rep, fmt.Errorf("kv: checkpoint verification: %w", err)
	}
	reachable, err := s.reachableBlocksOf(heap, dirty)
	if err != nil {
		return rep, fmt.Errorf("kv: checkpoint reachability: %w", err)
	}
	if err := arena.AssertLive(reachable); err != nil {
		return rep, fmt.Errorf("kv: checkpoint arena assert: %w", err)
	}
	rep.Coalesced = arena.Coalesce()

	seq := uint64(1)
	if prev, ok := s.readWatermark(heap); ok {
		if prev.epoch >= epoch {
			return rep, fmt.Errorf("kv: checkpoint epoch %d not past the persisted watermark's %d", epoch, prev.epoch)
		}
		seq = prev.seq + 1
	}
	st := arena.Stats()
	s.writeWatermark(heap, heap.NewFlusher(), watermark{
		seq:       seq,
		epoch:     epoch,
		shards:    uint64(s.shards),
		entries:   entries,
		liveWords: uint64(st.LiveWords),
		usedWords: uint64(st.UsedWords),
	})
	s.epoch.Store(epoch + 1)

	rep.Seq = seq
	rep.Epoch = epoch
	rep.DirtyShards = len(dirty)
	rep.Entries = dirtyRep.Entries
	// Checkpoint runs quiesced, off every transaction path.
	s.ms.Checkpoints.Inc(0)
	s.ms.CheckpointShards.Add(0, uint64(len(dirty)))
	s.ms.CheckpointNs.ObserveSince(start)
	return rep, nil
}

// ReopenOptions selects how ReopenWith recovers the index.
type ReopenOptions struct {
	// Paranoid forces the full path — whole-index verification and an exact
	// arena reconcile — even when a valid checkpoint watermark exists. This
	// is the escape hatch (craftyrecover -paranoid): it additionally catches
	// cross-shard corruption between shards the watermark calls clean, and
	// releases any frontier tail the header scavenge had to quarantine.
	Paranoid bool
}

// ReopenReport describes what a reopen had to do.
type ReopenReport struct {
	Shards         int    // index shards total
	VerifiedShards int    // shards actually verified
	Entries        uint64 // live entries in the verified shards
	Tombstones     uint64 // tombstones in the verified shards
	Rehashing      int    // verified shards mid-rehash
	WatermarkSeq   uint64 // sequence of the watermark used (0 = none usable)
	WatermarkEpoch uint64 // epoch of the watermark used
	FullVerify     bool   // the full verify + reconcile path ran
	FallbackReason string // why the bounded path was not taken ("" when it was)
	VerifyTime     time.Duration
	ArenaTime      time.Duration
}

// ReopenWith re-materializes a store from its root address after the
// engine-level recovery has run, doing work bounded by the store's dirty set
// when a checkpoint watermark allows it: only shards stamped past the
// watermark's epoch are verified, only their reachable blocks are asserted
// against the arena state the header scavenge rebuilt, and every other
// shard is trusted exactly as the checkpoint verified it. When no usable
// watermark exists (none written, torn slots, stale shape) — or when
// opts.Paranoid is set, or the arena assert fails — it falls back to the
// full path: whole-index verification plus an exact arena reconcile whose
// success is the zero-leak guarantee. A verification failure of a dirty
// shard is corruption and fails the reopen outright on either path.
func ReopenWith(eng ptm.Engine, root nvm.Addr, opts ReopenOptions) (*Store, ReopenReport, error) {
	var rep ReopenReport
	heap := eng.Heap()
	if got := heap.Load(root + offMagic); got != magicWord {
		return nil, rep, fmt.Errorf("kv: no store at %d (magic %#x)", root, got)
	}
	if got := heap.Load(root + offVersion); got != version {
		return nil, rep, fmt.Errorf("%w: store at %d has version %d, this build reads %d", ErrVersion, root, got, version)
	}
	s := newStore(eng, root, int(heap.Load(root+offShards)))
	if s.shards < 1 || s.shards&(s.shards-1) != 0 {
		return nil, rep, fmt.Errorf("kv: corrupt shard count %d", s.shards)
	}
	rep.Shards = s.shards
	arena := arenaOf(eng)
	if arena == nil {
		return nil, rep, fmt.Errorf("kv: engine %s does not expose an allocation arena to rebuild", eng.Name())
	}

	w, haveW := s.readWatermark(heap)
	if haveW {
		rep.WatermarkSeq = w.seq
		rep.WatermarkEpoch = w.epoch
	}
	switch {
	case opts.Paranoid:
		rep.FallbackReason = "paranoid"
	case !haveW:
		rep.FallbackReason = "no valid checkpoint watermark"
	case w.shards != uint64(s.shards):
		rep.FallbackReason = fmt.Sprintf("watermark covers %d shards, store has %d", w.shards, s.shards)
	}
	if rep.FallbackReason != "" {
		err := s.reopenFull(heap, arena, &rep)
		if err != nil {
			return nil, rep, err
		}
		prepareArena(eng)
		return s, rep, nil
	}

	var dirty []int
	maxStamp := w.epoch
	for sh := 0; sh < s.shards; sh++ {
		stamp := heap.Load(s.shardHeader(sh) + shEpoch)
		if stamp > maxStamp {
			maxStamp = stamp
		}
		if stamp > w.epoch {
			dirty = append(dirty, sh)
		}
	}
	start := time.Now()
	vrep, err := s.verifyShards(heap, dirty)
	if err != nil {
		return nil, rep, err
	}
	rep.VerifyTime = time.Since(start)
	reachable, err := s.reachableBlocksOf(heap, dirty)
	if err != nil {
		return nil, rep, err
	}
	start = time.Now()
	if err := arena.AssertLive(reachable); err != nil {
		// The scavenged headers disagree with the dirty shards' reachable
		// set — e.g. a reachable frontier block swallowed by a quarantined
		// tail. The reconcile repairs exactly this, so fall back rather
		// than fail.
		rep.FallbackReason = fmt.Sprintf("arena assert: %v", err)
		if ferr := s.reopenFull(heap, arena, &rep); ferr != nil {
			return nil, rep, ferr
		}
		prepareArena(eng)
		return s, rep, nil
	}
	rep.ArenaTime = time.Since(start)
	rep.VerifiedShards = len(dirty)
	rep.Entries = vrep.Entries
	rep.Tombstones = vrep.Tombstones
	rep.Rehashing = vrep.Rehashing
	s.epoch.Store(maxStamp + 1)
	prepareArena(eng)
	return s, rep, nil
}

// reopenFull is the whole-store path: verify every shard and reconcile the
// arena against the complete reachable set (the zero-leak form).
func (s *Store) reopenFull(heap *nvm.Heap, arena *alloc.Arena, rep *ReopenReport) error {
	rep.FullVerify = true
	start := time.Now()
	vrep, err := s.Verify(heap)
	if err != nil {
		return err
	}
	rep.VerifyTime = time.Since(start)
	reachable, err := s.reachableBlocks(heap)
	if err != nil {
		return err
	}
	start = time.Now()
	// Recover's reconciling form fails unless live + free words exactly
	// cover the arena's high-water mark, so a successful return is the
	// zero-leak guarantee.
	if _, err := arena.Recover(reachable); err != nil {
		return fmt.Errorf("kv: reconciling arena with the index: %w", err)
	}
	rep.ArenaTime = time.Since(start)
	rep.VerifiedShards = s.shards
	rep.Entries = vrep.Entries
	rep.Tombstones = vrep.Tombstones
	rep.Rehashing = vrep.Rehashing

	maxStamp := uint64(0)
	for sh := 0; sh < s.shards; sh++ {
		if stamp := heap.Load(s.shardHeader(sh) + shEpoch); stamp > maxStamp {
			maxStamp = stamp
		}
	}
	if w, ok := s.readWatermark(heap); ok && w.epoch > maxStamp {
		maxStamp = w.epoch
	}
	s.epoch.Store(maxStamp + 1)
	return nil
}
