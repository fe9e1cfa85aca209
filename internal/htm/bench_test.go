package htm

import (
	"testing"

	"crafty/internal/nvm"
)

// benchEngine builds an engine over an untracked, zero-latency heap, matching
// the configuration the paper's throughput experiments use.
func benchEngine(b *testing.B, words int) *Engine {
	b.Helper()
	h := nvm.NewHeap(nvm.Config{Words: words, PersistLatency: nvm.NoLatency})
	return NewEngine(h, Config{})
}

// BenchmarkHTMLoadStore measures the transactional data path: one committed
// hardware transaction performing 8 loads and 8 stores over 8 cache lines,
// the shape of a typical small Crafty Log phase.
func BenchmarkHTMLoadStore(b *testing.B) {
	e := benchEngine(b, 1<<16)
	th := e.NewThread(1)
	base := e.Heap().MustCarve(8 * nvm.WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cause := th.Run(func(tx *Tx) {
			for w := 0; w < 8; w++ {
				addr := base + nvm.Addr(w*nvm.WordsPerLine)
				tx.Store(addr, tx.Load(addr)+1)
			}
		})
		if cause != CauseNone {
			b.Fatalf("uncontended transaction aborted: %v", cause)
		}
	}
}

// BenchmarkHTMCommit isolates the commit protocol: transactions that write 4
// distinct lines with no transactional reads, so nearly all time is spent in
// lock acquisition, timestamp draw, publication, and line stamping.
func BenchmarkHTMCommit(b *testing.B) {
	e := benchEngine(b, 1<<16)
	th := e.NewThread(1)
	base := e.Heap().MustCarve(4 * nvm.WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cause := th.Run(func(tx *Tx) {
			for w := 0; w < 4; w++ {
				tx.Store(base+nvm.Addr(w*nvm.WordsPerLine), uint64(i))
			}
		})
		if cause != CauseNone {
			b.Fatalf("uncontended transaction aborted: %v", cause)
		}
	}
}

// BenchmarkHTMReadOnly measures a committed read-only transaction (4 lines),
// the fast path Crafty's read-only persistent transactions reduce to.
func BenchmarkHTMReadOnly(b *testing.B) {
	e := benchEngine(b, 1<<16)
	th := e.NewThread(1)
	base := e.Heap().MustCarve(4 * nvm.WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		cause := th.Run(func(tx *Tx) {
			for w := 0; w < 4; w++ {
				sink += tx.Load(base + nvm.Addr(w*nvm.WordsPerLine))
			}
		})
		if cause != CauseNone {
			b.Fatalf("read-only transaction aborted: %v", cause)
		}
	}
	_ = sink
}

// BenchmarkHTMReadLine measures a committed read-only transaction over the
// eight words of two cache lines each — the run of same-line loads a key or
// value read is made of, of which Load admits only the first per line.
func BenchmarkHTMReadLine(b *testing.B) {
	e := benchEngine(b, 1<<16)
	th := e.NewThread(1)
	base := e.Heap().MustCarve(2 * nvm.WordsPerLine)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		cause := th.Run(func(tx *Tx) {
			for w := 0; w < 2*nvm.WordsPerLine; w++ {
				sink += tx.Load(base + nvm.Addr(w))
			}
		})
		if cause != CauseNone {
			b.Fatalf("read-only transaction aborted: %v", cause)
		}
	}
	_ = sink
}

// BenchmarkHTMLogShape is one core.logPhase for a 100-byte PUT as the
// emulation sees it: 19 persistent writes — 13 value words in 2 lines, then 6
// scattered words (slot, header counters, allocator headers) — each a load of
// the old value, an undo entry of two consecutive log words, and the store in
// place; then the rollback pass in reverse (load the new value for the redo
// log, store the old one back), and the commit. 57 distinct words in 13 lines.
func BenchmarkHTMLogShape(b *testing.B) {
	e := benchEngine(b, 1<<16)
	th := e.NewThread(1)
	log := e.Heap().MustCarve(8 * nvm.WordsPerLine)
	value := e.Heap().MustCarve(2*nvm.WordsPerLine) + 3 // 5 words of one line, 8 of the next
	scattered := e.Heap().MustCarve(6 * nvm.WordsPerLine)
	var data [19]nvm.Addr
	for i := range data {
		if i < 13 {
			data[i] = value + nvm.Addr(i)
		} else {
			data[i] = scattered + nvm.Addr((i-13)*nvm.WordsPerLine+i%nvm.WordsPerLine)
		}
	}
	var old [len(data)]uint64
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cause := th.Run(func(tx *Tx) {
			for k, addr := range data {
				old[k] = tx.Load(addr)
				tx.Store(log+nvm.Addr(2*k), uint64(addr))
				tx.Store(log+nvm.Addr(2*k+1), old[k])
				tx.Store(addr, uint64(i))
			}
			for k := len(data) - 1; k >= 0; k-- {
				sink += tx.Load(data[k])
				tx.Store(data[k], old[k])
			}
		})
		if cause != CauseNone {
			b.Fatalf("uncontended transaction aborted: %v", cause)
		}
	}
	_ = sink
}
