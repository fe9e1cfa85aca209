// Package kv implements a concurrent, crash-consistent key-value store
// programmed entirely against the engine-neutral ptm interface, so the same
// store runs unchanged over Crafty, its variants, NV-HTM, DudeTM, the
// non-durable baseline, and the classic logging engines.
//
// The index is a sharded open-addressing hash table kept entirely in
// persistent memory. Sharding keeps each transaction's HTM read/write sets
// small and confines conflicts to keys that hash to the same shard, which is
// what lets throughput scale with threads under skewed (YCSB-style) traffic.
// Values are variable length: each entry owns a block carved from the
// engine's allocation arena through Tx.Alloc, whose replayable TxLog protocol
// (internal/alloc) makes allocation safe under Crafty's re-executing phases.
// Deletes tombstone their slot, and each shard rehashes incrementally — a
// bounded batch of work per mutating operation — when its load factor is
// exceeded, so no single transaction ever grows beyond the HTM capacity or a
// logging engine's log budget. See DESIGN.md ("Durable key-value store") for
// the full protocol.
//
// Every word the store ever reads is written through a transaction, so after
// a crash the index is exactly the committed prefix of operations: recovery
// is the engine's (e.g. crafty.Recover), after which Reopen verifies the
// index and rebuilds the volatile allocator state from the blocks still
// reachable through it.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"crafty/internal/alloc"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Persistent layout.
//
// Root region (carved once by Create):
//
//	line 0:             magic, version, shards, initial slots per shard
//	lines 1..2*shards:  shard headers, two cache lines each
//	last 2 lines:       checkpoint watermark, two slots of one line each
//	                    (see checkpoint.go)
//
// Shard header (2 lines). The first line is read-mostly (rewritten only at
// rehash state transitions) and the second is write-hot (counters and
// cursors), so read-only lookups never take a cache-line conflict against
// concurrent counter updates in the same shard:
//
//	line 0: active table addr, active slots, old table addr, old slots,
//	        pending table addr, pending slots
//	line 1: live entries, used slots (live + tombstones, active table),
//	        zeroing cursor (words), migration cursor (old-table slots)
//
// Hash tables are arrays of one-word slots: 0 = empty, 1 = tombstone, else a
// live entry packed as
//
//	bit 63:       set (so a live slot is never 0 or 1)
//	bits 62..32:  slotHashBits bits of the key's hash, the ones above the
//	              shard index that slotStart reads
//	bits 31..0:   the entry block's line index (arena blocks are cache-line
//	              aligned, so the line names the block)
//
// Blocks hold one header word packing the key and value lengths, then the
// key bytes and value bytes, eight per word.
const (
	magicWord = 0x6b76634653544f52 // "kvcFSTOR"
	version   = 2

	offMagic        = 0
	offVersion      = 1
	offShards       = 2
	offInitialSlots = 3

	// Shard header word offsets (within the shard's two-line region).
	shTable        = 0
	shSlots        = 1
	shOld          = 2
	shOldSlots     = 3
	shPending      = 4
	shPendingSlots = 5
	shLive         = 8
	shUsed         = 9
	shZeroCursor   = 10
	shMigrate      = 11
	// shEpoch is the shard's persistent dirty stamp: every transaction that
	// structurally mutates the shard (insert, replace, delete, any rehash
	// step) writes the store's current epoch here, through the transaction,
	// so the stamp rolls back with the mutations it covers. A checkpoint
	// records the epoch up to which every shard was verified; reopen treats a
	// shard as dirty exactly when its stamp exceeds the checkpointed epoch.
	// It shares the write-hot header line with the counters, so stamping
	// costs mutating transactions no additional cache line.
	shEpoch = 12

	shardHeaderWords = 2 * nvm.WordsPerLine

	slotWords     = 1
	slotEmpty     = 0
	slotTombstone = 1
	slotLive      = uint64(1) << 63
	slotLineBits  = 32
	slotHashBits  = 63 - slotLineBits
	slotLineMask  = uint64(1)<<slotLineBits - 1
	slotHashMask  = uint64(1)<<slotHashBits - 1

	// maxSlotsPerShard is the largest table the stored hash bits can index:
	// migration re-derives an entry's probe start from them alone. A shard
	// that would have to grow past it refuses the insert with ErrIndexFull.
	maxSlotsPerShard = 1 << slotHashBits
	// maxHeapWords is the largest heap whose every line a slot can name.
	maxHeapWords = (slotLineMask + 1) * nvm.WordsPerLine

	// Load factor threshold: a shard starts rehashing when more than
	// loadNum/loadDen of its active slots are used (live + tombstones). The
	// rehash doubles the table when more than rebuildNum/rebuildDen of the
	// slots hold live entries, and otherwise rebuilds it at its own size to
	// drop the tombstones.
	loadNum, loadDen       = 3, 4
	rebuildNum, rebuildDen = 5, 8

	// zeroBatchWords bounds how many pending-table words one mutating
	// operation zeroes; migrateBatch bounds how many live entries it moves.
	// Both keep every transaction within the emulated HTM's write capacity
	// (512 lines) and the logging engines' per-transaction log budgets.
	zeroBatchWords = 256
	migrateBatch   = 16
)

// Config sizes a store at creation.
type Config struct {
	// Shards is the number of index shards (power of two). More shards mean
	// smaller per-transaction footprints and fewer cross-thread conflicts.
	// Default 64.
	Shards int
	// InitialSlotsPerShard is each shard's starting table size in slots
	// (power of two, minimum 16). Default 64. Size it near
	// 2*expectedKeys/Shards to avoid any rehash during steady state.
	InitialSlotsPerShard int
}

func (c Config) withDefaults() (Config, error) {
	if c.Shards == 0 {
		c.Shards = 64
	}
	if c.InitialSlotsPerShard == 0 {
		c.InitialSlotsPerShard = 64
	}
	if c.Shards&(c.Shards-1) != 0 || c.Shards < 1 {
		return c, fmt.Errorf("kv: Shards %d is not a power of two", c.Shards)
	}
	if c.InitialSlotsPerShard&(c.InitialSlotsPerShard-1) != 0 || c.InitialSlotsPerShard < 16 || c.InitialSlotsPerShard > maxSlotsPerShard {
		return c, fmt.Errorf("kv: InitialSlotsPerShard %d is not a power of two in [16, %d]", c.InitialSlotsPerShard, maxSlotsPerShard)
	}
	return c, nil
}

// Typed failures.
var (
	// ErrIndexFull fails an insert that would need its shard's table to grow
	// past maxSlotsPerShard, the largest a slot's stored hash bits can index.
	ErrIndexFull = errors.New("kv: shard index full")
	// ErrVersion fails ReopenWith on a store written in another persistent
	// format version.
	ErrVersion = errors.New("kv: unsupported store version")
)

// Store is a durable key-value store over one engine's heap. The volatile
// struct only caches immutable facts (the root address, the shard count, and
// the engine's per-transaction write budget); all mutable state is
// persistent, so a Store can be re-materialized from its root address after a
// crash with Reopen.
type Store struct {
	root   nvm.Addr
	shards int
	// shardBits is log2(shards): the hash bits shardOf consumes, which
	// slotStart skips.
	shardBits uint

	// txBudget is the engine's per-transaction write budget
	// (ptm.WriteBudgeter), captured at Create/Reopen; Apply splits its shard
	// groups so no group transaction's estimated writes exceed it.
	txBudget int

	// epoch is the stamp mutating transactions write into their shard's
	// shEpoch word. It starts one past the last checkpoint's epoch (or past
	// the largest stamp found at reopen) and advances only when Checkpoint
	// persists a new watermark, so "stamp > watermark epoch" is exactly
	// "mutated since the last checkpoint".
	epoch atomic.Uint64

	// ms is the store's off-path instrument block (see metrics.go); never
	// nil. AdoptMetrics swaps it to carry counters across store
	// incarnations.
	ms *Metrics
}

// arenaOf returns eng's allocation arena if the engine exposes one (every
// engine in this repository does).
func arenaOf(eng ptm.Engine) *alloc.Arena {
	if h, ok := eng.(interface{ Arena() *alloc.Arena }); ok {
		return h.Arena()
	}
	return nil
}

// prepareArena turns off the arena's zero fill: the store transactionally
// writes every word it later reads, and the non-transactional fill would
// destroy the pre-images that post-crash rollback needs to restore reused
// blocks (see DESIGN.md).
func prepareArena(eng ptm.Engine) {
	if a := arenaOf(eng); a != nil {
		a.SetZeroFill(false)
	}
}

// Create carves and initializes a new store on eng's heap, using th to run
// the initialization transactions. Creation is not itself failure atomic
// (like a mkfs, it must run to completion before the store exists); the magic
// word is written last, so Reopen detects an interrupted Create.
func Create(eng ptm.Engine, th ptm.Thread, cfg Config) (*Store, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if words := eng.Heap().Words(); uint64(words) > maxHeapWords {
		return nil, fmt.Errorf("kv: heap of %d words is larger than the %d a slot can address", words, maxHeapWords)
	}
	prepareArena(eng)
	root, err := eng.Heap().Carve((1 + 2*cfg.Shards + ckptSlots) * nvm.WordsPerLine)
	if err != nil {
		return nil, fmt.Errorf("kv: carving root region: %w", err)
	}
	s := newStore(eng, root, cfg.Shards)
	s.epoch.Store(1)
	for sh := 0; sh < cfg.Shards; sh++ {
		hdr := s.shardHeader(sh)
		if err := th.Atomic(func(tx ptm.Tx) error {
			table := tx.Alloc(cfg.InitialSlotsPerShard * slotWords)
			tx.Store(hdr+shTable, uint64(table))
			tx.Store(hdr+shSlots, uint64(cfg.InitialSlotsPerShard))
			return nil
		}); err != nil {
			return nil, fmt.Errorf("kv: initializing shard %d: %w", sh, err)
		}
		// Zero the table transactionally, in batches: the arena's own zeroing
		// is not transactional, so only words written through a Tx are
		// guaranteed to read back as written after a crash.
		if err := s.zeroRegion(th, nvm.Addr(mustLoad(th, hdr+shTable)), cfg.InitialSlotsPerShard*slotWords); err != nil {
			return nil, err
		}
	}
	if err := th.Atomic(func(tx ptm.Tx) error {
		tx.Store(root+offVersion, version)
		tx.Store(root+offShards, uint64(cfg.Shards))
		tx.Store(root+offInitialSlots, uint64(cfg.InitialSlotsPerShard))
		tx.Store(root+offMagic, magicWord)
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// newStore caches the store's immutable facts. shards is a power of two
// (Config.withDefaults enforces it at Create, ReopenWith checks it before any
// probe).
func newStore(eng ptm.Engine, root nvm.Addr, shards int) *Store {
	return &Store{
		root:      root,
		shards:    shards,
		shardBits: uint(bits.TrailingZeros(uint(shards))),
		txBudget:  ptm.TxWriteBudgetOf(eng, defaultTxBudget),
		ms:        new(Metrics),
	}
}

// Reopen re-materializes a store from its root address after the engine-level
// recovery has run (e.g. crafty.Recover followed by crafty.Reopen, which
// scavenges the arena's persistent block headers). It always takes the full
// path — the whole index is verified and the arena reconciled against the
// verified reachable set, failing if a single word is left unaccounted —
// regardless of any checkpoint watermark. ReopenWith is the bounded-recovery
// form that verifies only shards dirtied since the last checkpoint. eng must
// expose its arena (every engine in this repository does).
func Reopen(eng ptm.Engine, root nvm.Addr) (*Store, error) {
	s, _, err := ReopenWith(eng, root, ReopenOptions{Paranoid: true})
	return s, err
}

// stampShard marks the shard dirty for the current epoch; every structural
// mutation (insert, replace, delete, rehash step) calls it inside its own
// transaction, so a rolled-back mutation rolls its stamp back too. The
// read-before-write keeps the common restamp a pure load (the word shares
// the write-hot counter line, so no extra cache line joins the write set
// either way). In-place value updates deliberately do not stamp: they change
// no slot, no counter, and no allocation, so nothing the reopen verification
// checks depends on them.
func (s *Store) stampShard(tx ptm.Tx, hdr nvm.Addr) {
	e := s.epoch.Load()
	if tx.Load(hdr+shEpoch) != e {
		tx.Store(hdr+shEpoch, e)
	}
}

// Root returns the store's root address; keep it with the heap (alongside the
// engine layout) so the store can be found again after a crash.
func (s *Store) Root() nvm.Addr { return s.root }

// Shards returns the number of index shards.
func (s *Store) Shards() int { return s.shards }

// ShardOf returns the index shard key hashes to. Request schedulers use it to
// route operations so same-shard traffic shares a queue — and therefore a
// group commit — without reimplementing the store's hash.
func (s *Store) ShardOf(key []byte) int { return s.shardOf(hashKey(key)) }

// TxBudget returns the per-transaction write budget Apply splits its groups
// by (the engine's ptm.WriteBudgeter hint, captured at Create/Reopen).
func (s *Store) TxBudget() int { return s.txBudget }

func (s *Store) shardHeader(sh int) nvm.Addr {
	return s.root + nvm.WordsPerLine + nvm.Addr(sh*shardHeaderWords)
}

// hashKey mixes the key bytes (FNV-1a) through a 64-bit finalizer so that
// both the shard choice (low bits) and the slot choice (higher bits) are
// well distributed.
func hashKey(key []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (s *Store) shardOf(h uint64) int { return int(h & uint64(s.shards-1)) }

// slotHash returns the bits of hash h a slot stores: the slotHashBits bits
// above the shard index. They hold every bit slotStart reads for tables of
// up to maxSlotsPerShard slots, so a slot alone re-derives its entry's probe
// sequence during migration, and they are the fingerprint a probe compares
// before it reads any key bytes.
func (s *Store) slotHash(h uint64) uint64 { return (h >> s.shardBits) & slotHashMask }

// slotStart returns the probe start index for hash h in a table of the given
// size.
func (s *Store) slotStart(h uint64, slots uint64) uint64 {
	return s.slotHash(h) & (slots - 1)
}

// packSlot builds the live slot word for stored hash bits hash (slotHash) and
// the cache-line-aligned block at block.
func packSlot(hash uint64, block nvm.Addr) uint64 {
	return slotLive | hash<<slotLineBits | uint64(block)/nvm.WordsPerLine
}

// slotHashOf and slotBlock unpack a live slot word.
func slotHashOf(w uint64) uint64  { return w >> slotLineBits & slotHashMask }
func slotBlock(w uint64) nvm.Addr { return nvm.Addr(w&slotLineMask) * nvm.WordsPerLine }

// Entry block layout helpers. The header word packs the key length in its
// upper 32 bits and the value length in its lower 32 bits; key bytes and then
// value bytes follow, eight per word, zero padded.
func blockWords(keyLen, valLen int) int {
	return 1 + (keyLen+7)/8 + (valLen+7)/8
}

func packHeader(keyLen, valLen int) uint64 {
	return uint64(keyLen)<<32 | uint64(valLen)
}

func unpackHeader(w uint64) (keyLen, valLen int) {
	return int(w >> 32), int(w & 0xffffffff)
}

// storeBytes writes b into consecutive words at base, eight bytes per word,
// little endian, zero padding the final word. Full words are assembled with
// a single unaligned load instead of a byte loop — the byte shuffling runs
// once per word of every value written, so it is hot.
func storeBytes(tx ptm.Tx, base nvm.Addr, b []byte) {
	w := 0
	for ; (w+1)*8 <= len(b); w++ {
		tx.Store(base+nvm.Addr(w), binary.LittleEndian.Uint64(b[w*8:]))
	}
	if w*8 < len(b) {
		var v uint64
		for i := 0; w*8+i < len(b); i++ {
			v |= uint64(b[w*8+i]) << (8 * i)
		}
		tx.Store(base+nvm.Addr(w), v)
	}
}

// appendBytes appends n bytes stored at base to dst and returns it.
func appendBytes(tx ptm.Tx, base nvm.Addr, n int, dst []byte) []byte {
	w := 0
	for ; (w+1)*8 <= n; w++ {
		dst = binary.LittleEndian.AppendUint64(dst, tx.Load(base+nvm.Addr(w)))
	}
	if w*8 < n {
		v := tx.Load(base + nvm.Addr(w))
		for i := 0; w*8+i < n; i++ {
			dst = append(dst, byte(v>>(8*i)))
		}
	}
	return dst
}

// bytesEqual reports whether the n bytes at base equal b, comparing word by
// word without allocating.
func bytesEqual(tx ptm.Tx, base nvm.Addr, b []byte) bool {
	w := 0
	for ; (w+1)*8 <= len(b); w++ {
		if tx.Load(base+nvm.Addr(w)) != binary.LittleEndian.Uint64(b[w*8:]) {
			return false
		}
	}
	if w*8 < len(b) {
		var want uint64
		for i := 0; w*8+i < len(b); i++ {
			want |= uint64(b[w*8+i]) << (8 * i)
		}
		if tx.Load(base+nvm.Addr(w)) != want {
			return false
		}
	}
	return true
}

// writeBlock allocates and fills an entry block for key/value.
func writeBlock(tx ptm.Tx, key, value []byte) nvm.Addr {
	b := tx.Alloc(blockWords(len(key), len(value)))
	tx.Store(b, packHeader(len(key), len(value)))
	storeBytes(tx, b+1, key)
	storeBytes(tx, b+1+nvm.Addr((len(key)+7)/8), value)
	return b
}

// blockMatches reports whether the block at addr holds exactly key.
func blockMatches(tx ptm.Tx, addr nvm.Addr, key []byte) bool {
	keyLen, _ := unpackHeader(tx.Load(addr))
	if keyLen != len(key) {
		return false
	}
	return bytesEqual(tx, addr+1, key)
}

// probe scans the table for key (by stored hash bits, then full key compare)
// and returns the address of the matching slot, or NilAddr. It stops at the
// first empty slot; tombstones are skipped.
func (s *Store) probe(tx ptm.Tx, table nvm.Addr, slots uint64, h uint64, key []byte) nvm.Addr {
	tag := packSlot(s.slotHash(h), 0)
	idx := s.slotStart(h, slots)
	for n := uint64(0); n < slots; n++ {
		slot := table + nvm.Addr(((idx+n)&(slots-1))*slotWords)
		switch w := tx.Load(slot); w {
		case slotEmpty:
			return nvm.NilAddr
		case slotTombstone:
			continue
		default:
			if w&^slotLineMask == tag && blockMatches(tx, slotBlock(w), key) {
				return slot
			}
		}
	}
	return nvm.NilAddr
}

// find locates key's slot in the shard, searching the active table and — when
// a migration is in progress — the old table too.
func (s *Store) find(tx ptm.Tx, hdr nvm.Addr, h uint64, key []byte) nvm.Addr {
	if slot := s.probe(tx, nvm.Addr(tx.Load(hdr+shTable)), tx.Load(hdr+shSlots), h, key); slot != nvm.NilAddr {
		return slot
	}
	if old := nvm.Addr(tx.Load(hdr + shOld)); old != nvm.NilAddr {
		return s.probe(tx, old, tx.Load(hdr+shOldSlots), h, key)
	}
	return nvm.NilAddr
}

// slotValue appends the value of the entry a found slot points at to dst. It
// is the one place a slot becomes value bytes: block address, header, the
// value words past the key.
func slotValue(tx ptm.Tx, slot nvm.Addr, dst []byte) []byte {
	block := slotBlock(tx.Load(slot))
	keyLen, valLen := unpackHeader(tx.Load(block))
	return appendBytes(tx, block+1+nvm.Addr((keyLen+7)/8), valLen, dst)
}

// lookup is the store's one read: it finds key (hash h) in the shard at hdr
// and appends its value to dst. GetTx, Get, and both of Apply's read arms
// (the group body and the per-op body) are this function under a different
// transaction; it performs no persistent writes.
func (s *Store) lookup(tx ptm.Tx, hdr nvm.Addr, h uint64, key, dst []byte) ([]byte, bool) {
	slot := s.find(tx, hdr, h, key)
	if slot == nvm.NilAddr {
		return dst, false
	}
	return slotValue(tx, slot, dst), true
}

// GetTx looks key up within the caller's transaction, appending the value to
// dst. GetTx performs no persistent writes, so a transaction that only calls
// it commits on Crafty's read-only fast path.
func (s *Store) GetTx(tx ptm.Tx, key []byte, dst []byte) ([]byte, bool) {
	h := hashKey(key)
	return s.lookup(tx, s.shardHeader(s.shardOf(h)), h, key, dst)
}

// PutTx inserts or updates key within the caller's transaction. Updates
// replace the entry's block (allocating the new one and freeing the old one
// through the transaction, so an abort leaks nothing and a commit frees
// exactly once); inserts claim a slot and bump the shard's counters. Each
// call also advances the shard's incremental rehash by one bounded batch.
func (s *Store) PutTx(tx ptm.Tx, key, value []byte) error {
	// The staged rehash-step mask is discarded: an externally composed
	// transaction gives the store no post-commit fold point, and metrics must
	// never be stamped from inside the body itself.
	_, err := s.putTxStep(tx, hashKey(key), key, value)
	return err
}

// putTxStep is PutTx returning the staged rehash-step mask for callers that
// own the enclosing transaction (Put, the Apply fallback) and can fold it
// after commit.
func (s *Store) putTxStep(tx ptm.Tx, h uint64, key, value []byte) (rehashStep, error) {
	if err := validatePut(key, value); err != nil {
		return 0, err
	}
	hdr := s.shardHeader(s.shardOf(h))
	step := s.stepRehash(tx, hdr)
	return step, s.putSlot(tx, hdr, h, key, value)
}

// validatePut enforces the header-packing limits shared by the per-op
// (PutTx) and group-execution (Apply) write paths: key length must fit the
// 16-bit header field and value length the 32-bit one.
func validatePut(key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("kv: empty key")
	}
	if len(key) >= 1<<16 || len(value) >= 1<<32 {
		return fmt.Errorf("kv: key (%d) or value (%d) too large", len(key), len(value))
	}
	return nil
}

// putSlot is the shard-local insert-or-update: PutTx after validation and the
// rehash step, shared with the group-execution path (Apply), whose batched
// transactions keep rehash stepping on the per-op path instead.
func (s *Store) putSlot(tx ptm.Tx, hdr nvm.Addr, h uint64, key, value []byte) error {
	if slot := s.find(tx, hdr, h, key); slot != nvm.NilAddr {
		old := slotBlock(tx.Load(slot))
		keyLen, oldValLen := unpackHeader(tx.Load(old))
		if blockWords(keyLen, oldValLen) == blockWords(keyLen, len(value)) {
			// In-place update: the new value occupies exactly the old one's
			// words, so the slot, the key bytes, and the allocator are left
			// untouched — only the value words (and the header, if the byte
			// length changed within the same final word) are rewritten.
			// Failure atomicity is the transaction's as always: the undo log
			// restores the old value words if the transaction rolls back,
			// and Verify sees an identical block footprint. This is the
			// common case for fixed-schema workloads (YCSB values) and what
			// makes steady-state updates allocator-free.
			if oldValLen != len(value) {
				tx.Store(old, packHeader(keyLen, len(value)))
			}
			storeBytes(tx, old+1+nvm.Addr((keyLen+7)/8), value)
			return nil
		}
		s.stampShard(tx, hdr)
		tx.Store(slot, packSlot(s.slotHash(h), writeBlock(tx, key, value)))
		tx.Free(old)
		return nil
	}

	table := nvm.Addr(tx.Load(hdr + shTable))
	slots := tx.Load(hdr + shSlots)
	idx := s.slotStart(h, slots)
	for n := uint64(0); n < slots; n++ {
		slot := table + nvm.Addr(((idx+n)&(slots-1))*slotWords)
		w := tx.Load(slot)
		if w != slotEmpty && w != slotTombstone {
			continue
		}
		s.stampShard(tx, hdr)
		tx.Store(slot, packSlot(s.slotHash(h), writeBlock(tx, key, value)))
		tx.Store(hdr+shLive, tx.Load(hdr+shLive)+1)
		if w == slotEmpty {
			used := tx.Load(hdr+shUsed) + 1
			tx.Store(hdr+shUsed, used)
			return s.maybeStartRehash(tx, hdr, used, slots)
		}
		return nil
	}
	return fmt.Errorf("%w: %d slots, none free", ErrIndexFull, slots)
}

// deleteTxStep removes key within the caller's transaction, reporting whether
// it was present, and returns the staged rehash-step mask for the caller, who
// owns the enclosing transaction, to fold after commit. The slot becomes a
// tombstone (reclaimed by the next rehash) and the entry's block is freed at
// commit.
func (s *Store) deleteTxStep(tx ptm.Tx, h uint64, key []byte) (bool, rehashStep) {
	hdr := s.shardHeader(s.shardOf(h))
	step := s.stepRehash(tx, hdr)
	return s.deleteSlot(tx, hdr, h, key), step
}

// deleteSlot is the shard-local delete: deleteTxStep after the rehash step,
// shared with the group-execution path (Apply).
func (s *Store) deleteSlot(tx ptm.Tx, hdr nvm.Addr, h uint64, key []byte) bool {
	slot := s.find(tx, hdr, h, key)
	if slot == nvm.NilAddr {
		return false
	}
	s.stampShard(tx, hdr)
	block := slotBlock(tx.Load(slot))
	tx.Store(slot, slotTombstone)
	tx.Store(hdr+shLive, tx.Load(hdr+shLive)-1)
	tx.Free(block)
	return true
}

// ScanTx iterates up to n live entries of the shard key hashes into, starting
// at key's slot and wrapping over the active table — and, mid-migration, over
// the old table too, so entries not yet moved stay visible — appending each
// entry's value to dst and returning the number visited. It models an index
// scan (YCSB workload E); a hash index has no key order, so the "range" is a
// run of the shard's tables. An entry lives in exactly one table, so nothing
// is visited twice.
func (s *Store) ScanTx(tx ptm.Tx, key []byte, n int, dst []byte) ([]byte, int) {
	h := hashKey(key)
	hdr := s.shardHeader(s.shardOf(h))
	seen := 0
	dst, seen = s.scanTable(tx, nvm.Addr(tx.Load(hdr+shTable)), tx.Load(hdr+shSlots), h, n, seen, dst)
	if old := nvm.Addr(tx.Load(hdr + shOld)); old != nvm.NilAddr && seen < n {
		dst, seen = s.scanTable(tx, old, tx.Load(hdr+shOldSlots), h, n, seen, dst)
	}
	return dst, seen
}

// scanTable visits live entries of one table from hash h's probe start.
func (s *Store) scanTable(tx ptm.Tx, table nvm.Addr, slots uint64, h uint64, n, seen int, dst []byte) ([]byte, int) {
	idx := s.slotStart(h, slots)
	for i := uint64(0); i < slots && seen < n; i++ {
		slot := table + nvm.Addr(((idx+i)&(slots-1))*slotWords)
		if w := tx.Load(slot); w == slotEmpty || w == slotTombstone {
			continue
		}
		dst = slotValue(tx, slot, dst)
		seen++
	}
	return dst, seen
}

// Get runs a read-only lookup transaction on the engine's read fast path
// (ptm.Thread.AtomicRead: no log reservation, no persist barriers),
// appending the value to dst[:0] (pass nil to allocate). The returned slice
// aliases dst's storage.
func (s *Store) Get(th ptm.Thread, key, dst []byte) ([]byte, bool, error) {
	a := s.oneOp(OpGet, key, nil, dst[:0])
	defer a.release()
	if err := a.execOp(th, 0); err != nil {
		return nil, false, err
	}
	return a.dst, a.res[0].Found, nil
}

// Put runs an insert-or-update transaction.
func (s *Store) Put(th ptm.Thread, key, value []byte) error {
	a := s.oneOp(OpPut, key, value, nil)
	defer a.release()
	return a.execOp(th, 0)
}

// Delete runs a delete transaction, reporting whether the key was present.
func (s *Store) Delete(th ptm.Thread, key []byte) (bool, error) {
	a := s.oneOp(OpDelete, key, nil, nil)
	defer a.release()
	err := a.execOp(th, 0)
	return a.res[0].Found, err
}

// Len returns the number of live entries, summed over shards in one
// read-only fast-path transaction.
func (s *Store) Len(th ptm.Thread) (uint64, error) {
	var n uint64
	err := th.AtomicRead(func(tx ptm.Tx) error {
		n = 0
		for sh := 0; sh < s.shards; sh++ {
			n += tx.Load(s.shardHeader(sh) + shLive)
		}
		return nil
	})
	return n, err
}

// mustLoad reads one word in a read-only transaction; initialization helper.
func mustLoad(th ptm.Thread, addr nvm.Addr) uint64 {
	var v uint64
	if err := th.AtomicRead(func(tx ptm.Tx) error {
		v = tx.Load(addr)
		return nil
	}); err != nil {
		panic(err)
	}
	return v
}

// zeroRegion zeroes words transactionally in bounded batches.
func (s *Store) zeroRegion(th ptm.Thread, base nvm.Addr, words int) error {
	for start := 0; start < words; start += zeroBatchWords {
		end := start + zeroBatchWords
		if end > words {
			end = words
		}
		if err := th.Atomic(func(tx ptm.Tx) error {
			for w := start; w < end; w++ {
				tx.Store(base+nvm.Addr(w), 0)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
