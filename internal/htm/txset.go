package htm

import "crafty/internal/nvm"

// This file implements the purpose-built read/write-set containers behind the
// emulated hardware transaction data path (see DESIGN.md, "Transaction set
// containers"). RTM tracks both sets per cache line, and so do these: the read
// set is a set of line indices, the write set maps a line index to the words
// of that line the attempt has buffered. The general-purpose Go map is the
// wrong tool for that path: it allocates on construction, hashes through an
// interface-shaped runtime call, and can only be cleared by reallocation or
// iteration. The containers here are shaped by how the emulation actually
// uses its sets:
//
//   - a transaction attempt begins with empty sets and must become ready for
//     the next attempt in O(1) (attempts retry in a tight loop on conflict),
//     so clearing uses an epoch stamp: bumping the epoch invalidates every
//     table slot at once, and backing storage is reused across attempts;
//   - nearly all transactions touch a handful of cache lines (Table 1 of the
//     paper: 2–13 writes per transaction), so membership checks scan a dense
//     array linearly while the set is small and only spill into an
//     open-addressed, power-of-two probe table when it grows past
//     setLinearMax entries;
//   - stores arrive as runs inside a line, and the Log phase alternates
//     between two lines (the undo entry it is appending, the datum it is
//     overwriting), so the write set asks the two entries it used last before
//     it scans or hashes;
//   - commit locks the written lines in sorted order, so every member is also
//     kept in a dense first-touch-order slice, which doubles as the
//     linear-scan fast path and as the source for rehashing.
//
// Neither container is safe for concurrent use; each belongs to exactly one
// transaction attempt, which belongs to exactly one thread.

// setLinearMax is the set size up to which membership is resolved by scanning
// the dense slice; beyond it lookups go through the probe table. Eight
// entries fit in one cache line of uint64s and cover the common transactions.
const setLinearMax = 8

// hash64 is the 64-bit finalizer of MurmurHash3; cheap and good enough to
// keep linear-probe clusters short for line indices.
func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// lineSlot is one probe-table slot of a lineSet, mapping a line to its index
// in the dense slice. A slot holds a valid entry only if its epoch matches the
// set's current epoch.
type lineSlot struct {
	key   uint64
	epoch uint64
	idx   int32
}

// lineSet is a reusable set of cache-line indices: the transaction's read
// set, and the keys of its write set.
type lineSet struct {
	dense []uint64 // members in insertion order; also the linear fast path
	slots []lineSlot
	mask  uint64
	epoch uint64
}

// reset empties the set in O(1), retaining all backing storage. It must be
// called before first use so that the epoch is nonzero and therefore distinct
// from the zero epoch of freshly allocated slots.
func (s *lineSet) reset() {
	s.epoch++
	s.dense = s.dense[:0]
}

// size returns the number of members.
func (s *lineSet) size() int { return len(s.dense) }

// index returns key's position in the dense slice, or -1 if it is no member.
func (s *lineSet) index(key uint64) int {
	if len(s.dense) <= setLinearMax {
		for i, k := range s.dense {
			if k == key {
				return i
			}
		}
		return -1
	}
	for i := hash64(key) & s.mask; ; i = (i + 1) & s.mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			return -1
		}
		if sl.key == key {
			return int(sl.idx)
		}
	}
}

// add inserts key if it is absent, returning its position in the dense slice
// and whether it was.
func (s *lineSet) add(key uint64) (idx int, fresh bool) {
	n := len(s.dense)
	if n <= setLinearMax {
		for i, k := range s.dense {
			if k == key {
				return i, false
			}
		}
		if n == setLinearMax {
			// Crossing the linear-scan threshold: spill into the probe table.
			s.rehash()
		}
	} else if 4*(n+1) > 3*len(s.slots) {
		s.rehash()
	}
	if n >= setLinearMax {
		if i := s.tableAdd(key, n); i != n {
			return i, false
		}
	}
	s.dense = append(s.dense, key)
	return n, true
}

// tableAdd enters key into the probe table as the member at idx unless it is
// there already, and returns the index the table holds for it.
func (s *lineSet) tableAdd(key uint64, idx int) int {
	for i := hash64(key) & s.mask; ; i = (i + 1) & s.mask {
		sl := &s.slots[i]
		if sl.epoch != s.epoch {
			sl.key, sl.idx, sl.epoch = key, int32(idx), s.epoch
			return idx
		}
		if sl.key == key {
			return int(sl.idx)
		}
	}
}

// rehash (re)builds the probe table from the dense slice, growing it so the
// load factor stays below 3/4. Bumping the epoch discards the old contents,
// so the table can be rebuilt in place when capacity already suffices.
func (s *lineSet) rehash() {
	need := 2 * (len(s.dense) + 1)
	capSlots := len(s.slots)
	if capSlots < 4*setLinearMax {
		capSlots = 4 * setLinearMax
	}
	for capSlots < need {
		capSlots *= 2
	}
	if capSlots > len(s.slots) {
		s.slots = make([]lineSlot, capSlots)
		s.mask = uint64(capSlots - 1)
	}
	s.epoch++
	for i, k := range s.dense {
		s.tableAdd(k, i)
	}
}

// lineWrite is what a transaction has buffered for one cache line: which of
// its words (bit k of mask: word k) and their values. A line entered for a
// deferred commit-timestamp store alone has an empty mask until commit.
type lineWrite struct {
	mask uint8
	vals [nvm.WordsPerLine]uint64
}

// set buffers val for word k of the line, over any earlier value.
func (b *lineWrite) set(k uint, val uint64) {
	b.vals[k] = val
	b.mask |= 1 << k
}

// writeSet is the transaction's write set: a reusable map from cache line to
// the words buffered for it, one entry per written line in first-touch order
// (lines.dense[i] is buffered in bufs[i]). A later store to a word overwrites
// the earlier one in place, so an entry is what commit publishes for its line.
type writeSet struct {
	lines lineSet
	bufs  []lineWrite

	// The two entries used last — the Log phase alternates between two — are
	// asked before the scan or probe: mruLine names their lines, mruIdx their
	// indices, and mruLine[lru] is the one used less recently.
	mruLine [2]uint64
	mruIdx  [2]int32
	lru     uint8
}

// reset empties the write set in O(1), retaining all backing storage.
func (w *writeSet) reset() {
	w.lines.reset()
	w.bufs = w.bufs[:0]
	w.mruLine = [2]uint64{noLine, noLine}
}

// size returns the number of distinct written lines.
func (w *writeSet) size() int { return len(w.bufs) }

// recent returns the index of line's entry if it is one of the two used last,
// or -1. It is small enough to inline into Load and Store, which go on to
// lines.index or entry — a call each — only when it says -1.
func (w *writeSet) recent(line uint64) int {
	if w.mruLine[0] == line {
		w.lru = 1
		return int(w.mruIdx[0])
	}
	if w.mruLine[1] == line {
		w.lru = 0
		return int(w.mruIdx[1])
	}
	return -1
}

// entry returns the index of line's entry for a store, when recent does not
// know the line: an unwritten line is admitted with nothing buffered for it
// yet (size grows by one). Either way the entry takes the older recent place;
// a load that misses recent asks lines.index and leaves the places alone.
func (w *writeSet) entry(line uint64) int {
	i, fresh := w.lines.add(line)
	if fresh && i < cap(w.bufs) {
		w.bufs = w.bufs[:i+1]
		w.bufs[i].mask = 0 // the old values are dead storage until masked in
	} else if fresh {
		w.bufs = append(w.bufs, lineWrite{})
	}
	w.mruLine[w.lru], w.mruIdx[w.lru] = line, int32(i)
	w.lru ^= 1
	return i
}

// wordOf returns addr's position in its cache line.
func wordOf(addr nvm.Addr) uint { return uint(addr % nvm.WordsPerLine) }
