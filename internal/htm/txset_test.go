package htm

import (
	"math/rand"
	"testing"

	"crafty/internal/nvm"
)

func TestLineSetBasics(t *testing.T) {
	var s lineSet
	s.reset()
	if s.size() != 0 || s.index(7) >= 0 {
		t.Fatal("fresh set not empty")
	}
	if i, fresh := s.add(7); i != 0 || !fresh {
		t.Fatalf("first add(7) = (%d, %v), want (0, true)", i, fresh)
	}
	if i, fresh := s.add(7); i != 0 || fresh {
		t.Fatalf("second add(7) = (%d, %v), want (0, false)", i, fresh)
	}
	if s.index(7) != 0 || s.index(8) >= 0 {
		t.Fatal("membership wrong after one insert")
	}
	s.reset()
	if s.size() != 0 || s.index(7) >= 0 {
		t.Fatal("reset did not empty the set")
	}
}

// TestLineSetAcrossLinearThreshold is the regression test for the spill bug:
// once the set grows past the linear-scan threshold, adds must still detect
// duplicates (a duplicate dense entry makes the commit protocol deadlock on
// its own line lock).
func TestLineSetAcrossLinearThreshold(t *testing.T) {
	var s lineSet
	s.reset()
	const n = 3 * setLinearMax
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			if at, fresh := s.add(uint64(i * 11)); at != i || !fresh {
				t.Fatalf("round %d: first add(%d) = (%d, %v), want (%d, true)", round, i*11, at, fresh, i)
			}
		}
		for i := 0; i < n; i++ {
			if at, fresh := s.add(uint64(i * 11)); at != i || fresh {
				t.Fatalf("round %d: duplicate add(%d) = (%d, %v), want (%d, false)", round, i*11, at, fresh, i)
			}
			if s.index(uint64(i*11)) != i {
				t.Fatalf("round %d: member %d not found at its dense index", round, i*11)
			}
		}
		if s.size() != n {
			t.Fatalf("round %d: size = %d, want %d", round, s.size(), n)
		}
		seen := make(map[uint64]bool)
		for _, k := range s.dense {
			if seen[k] {
				t.Fatalf("round %d: dense slice holds duplicate %d", round, k)
			}
			seen[k] = true
		}
		s.reset()
	}
}

func TestLineSetAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s lineSet
	for round := 0; round < 50; round++ {
		s.reset()
		ref := make(map[uint64]bool)
		ops := rng.Intn(200)
		for i := 0; i < ops; i++ {
			k := uint64(rng.Intn(64))
			if at, fresh := s.add(k); fresh == ref[k] || s.dense[at] != k {
				t.Fatalf("add(%d) = (%d, %v) with dense[%d] = %d, want fresh = %v", k, at, fresh, at, s.dense[at], !ref[k])
			}
			ref[k] = true
			probe := uint64(rng.Intn(64))
			if got := s.index(probe) >= 0; got != ref[probe] {
				t.Fatalf("index(%d) >= 0 is %v, want %v", probe, got, ref[probe])
			}
		}
		if s.size() != len(ref) {
			t.Fatalf("size = %d, want %d", s.size(), len(ref))
		}
	}
}

// TestWriteSetAgainstMapReference holds the per-line write set to a per-word
// map over lines that are only partly written: every get — of written words,
// of unwritten words of written lines, of unwritten lines — answers as the map
// does, the size is the number of distinct lines, and each entry is exactly
// the map's projection onto its line, in first-touch order. Most rounds stay
// within six lines (the linear scan); every fourth spreads over enough to
// cross into the probe table, and the set is reset between rounds.
func TestWriteSetAgainstMapReference(t *testing.T) {
	// get is Load's read-own-write probe: the most recently used entries,
	// then the scan or the table, then the word's bit.
	get := func(w *writeSet, a nvm.Addr) (uint64, bool) {
		i := w.recent(nvm.LineOf(a))
		if i < 0 {
			i = w.lines.index(nvm.LineOf(a))
		}
		if i < 0 || w.bufs[i].mask>>wordOf(a)&1 == 0 {
			return 0, false
		}
		return w.bufs[i].vals[wordOf(a)], true
	}
	rng := rand.New(rand.NewSource(43))
	var w writeSet
	for round := 0; round < 60; round++ {
		w.reset()
		lines := 6
		if round%4 == 3 {
			lines = 3*setLinearMax + rng.Intn(40)
		}
		addr := func() nvm.Addr {
			return nvm.Addr((100+7*rng.Intn(lines))*nvm.WordsPerLine + rng.Intn(nvm.WordsPerLine))
		}
		ref := make(map[nvm.Addr]uint64)
		var order []uint64
		seen := make(map[uint64]bool)
		for i, ops := 0, rng.Intn(40*lines); i < ops; i++ {
			a, v := addr(), rng.Uint64()
			size := w.size()
			b := &w.bufs[w.entry(nvm.LineOf(a))]
			fresh := w.size() == size+1
			if fresh == seen[nvm.LineOf(a)] {
				t.Fatalf("round %d: entry(line of %d) fresh = %v on a line seen = %v", round, a, fresh, !fresh)
			}
			if fresh {
				if b.mask != 0 {
					t.Fatalf("round %d: admitted entry carries mask %#x", round, b.mask)
				}
				seen[nvm.LineOf(a)] = true
				order = append(order, nvm.LineOf(a))
			}
			b.set(wordOf(a), v)
			ref[a] = v

			probe := addr()
			got, ok := get(&w, probe)
			wantV, wantOK := ref[probe]
			if ok != wantOK || (ok && got != wantV) {
				t.Fatalf("round %d: get(%d) = (%d,%v), want (%d,%v)", round, probe, got, ok, wantV, wantOK)
			}
		}
		if _, ok := get(&w, nvm.Addr(99*nvm.WordsPerLine)); ok {
			t.Fatalf("round %d: get of a never-written line found a value", round)
		}
		if w.size() != len(order) || len(w.bufs) != len(order) {
			t.Fatalf("round %d: size = %d over %d entries, want %d lines", round, w.size(), len(w.bufs), len(order))
		}
		words := 0
		for i, line := range order {
			if w.lines.dense[i] != line {
				t.Fatalf("round %d: entry %d is line %d, want %d (first-touch order)", round, i, w.lines.dense[i], line)
			}
			for k := 0; k < nvm.WordsPerLine; k++ {
				v, written := ref[nvm.Addr(line*nvm.WordsPerLine)+nvm.Addr(k)]
				if masked := w.bufs[i].mask>>k&1 != 0; masked != written {
					t.Fatalf("round %d: line %d word %d masked = %v, written = %v", round, line, k, masked, written)
				}
				if written {
					words++
					if w.bufs[i].vals[k] != v {
						t.Fatalf("round %d: line %d word %d = %d, want %d (in-place update lost)", round, line, k, w.bufs[i].vals[k], v)
					}
				}
			}
		}
		if words != len(ref) {
			t.Fatalf("round %d: entries hold %d words, the map %d", round, words, len(ref))
		}
	}
}

// TestTxSteadyStateAllocs is the allocation regression gate for the tentpole:
// a committed hardware transaction with a handful of writes must not allocate
// once the thread's reusable state is warm.
func TestTxSteadyStateAllocs(t *testing.T) {
	e := newEngine(t, 1<<16, Config{})
	th := e.NewThread(1)
	base := e.Heap().MustCarve(8 * nvm.WordsPerLine)
	body := func(tx *Tx) {
		for w := 0; w < 8; w++ {
			addr := base + nvm.Addr(w*nvm.WordsPerLine)
			tx.Store(addr, tx.Load(addr)+1)
		}
	}
	// Warm up the reusable buffers.
	for i := 0; i < 10; i++ {
		if cause := th.Run(body); cause != CauseNone {
			t.Fatalf("warmup aborted: %v", cause)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if cause := th.Run(body); cause != CauseNone {
			t.Fatalf("transaction aborted: %v", cause)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state committed transaction allocated %v times per run, want 0", allocs)
	}
}

// TestTxLargeTransactionAllocsAmortize checks that even transactions past the
// linear-scan threshold stop allocating once the probe tables have grown.
func TestTxLargeTransactionAllocsAmortize(t *testing.T) {
	e := newEngine(t, 1<<18, Config{})
	th := e.NewThread(1)
	base := e.Heap().MustCarve(64 * nvm.WordsPerLine)
	body := func(tx *Tx) {
		for w := 0; w < 64; w++ {
			addr := base + nvm.Addr(w*nvm.WordsPerLine)
			tx.Store(addr, tx.Load(addr)+1)
		}
	}
	for i := 0; i < 10; i++ {
		if cause := th.Run(body); cause != CauseNone {
			t.Fatalf("warmup aborted: %v", cause)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if cause := th.Run(body); cause != CauseNone {
			t.Fatalf("transaction aborted: %v", cause)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state 64-line transaction allocated %v times per run, want 0", allocs)
	}
}
