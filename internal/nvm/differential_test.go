package nvm

import (
	"math/rand"
	"slices"
	"testing"
)

// recordingPolicy answers as inner does and keeps the addresses it was asked
// about, in order.
type recordingPolicy struct {
	inner CrashPolicy
	asked []Addr
}

func (p *recordingPolicy) Persist(addr Addr) bool {
	p.asked = append(p.asked, addr)
	return p.inner.Persist(addr)
}

// TestDifferentialAgainstPerWordModel drives the per-line mask heap and the
// per-word three-state model it replaced (refmodel_test.go) with the same
// seeded random sequences of stores (single and whole write-set lines), compare-and-swaps,
// flushes, fences and drains on three flushers, and crashes under equal-seeded random policies.
// Nothing a recovery observer can see may differ: the media image after
// every operation that can change it, the visible image after every crash,
// and the sequence of addresses put to the policy — the last being what
// keeps every seeded crash schedule in the repository's other tests where it
// was. The heap is 44 words, so line 0 (whose word 0 is NilAddr) and a
// partial last line are in play throughout.
func TestDifferentialAgainstPerWordModel(t *testing.T) {
	const (
		sequences = 10000
		words     = 44
		opsPerSeq = 64
		flushers  = 3
	)
	for seq := int64(0); seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(seq))
		h := NewHeap(Config{Words: words, PersistLatency: NoLatency, TrackPersistence: true})
		ref := newRefHeap(words)
		var fs [flushers]*Flusher
		var refFs [flushers]*refFlusher
		for i := range fs {
			fs[i], refFs[i] = h.NewFlusher(), ref.NewFlusher()
		}
		addr := func() Addr { return Addr(1 + rng.Intn(words-1)) }

		for op := 0; op < opsPerSeq; op++ {
			f := rng.Intn(flushers)
			switch k := rng.Intn(100); {
			case k < 30:
				a, v := addr(), rng.Uint64()
				h.Store(a, v)
				ref.Store(a, v)
			case k < 40:
				// One entry of a write set: a random line — line 0 and the
				// partial last line among them — and a random non-empty set of
				// its addressable words. The reference stores them one by one.
				line := uint64(rng.Intn((words + WordsPerLine - 1) / WordsPerLine))
				var mask uint8
				var vals [WordsPerLine]uint64
				for mask == 0 {
					for k := 0; k < WordsPerLine; k++ {
						if a := Addr(line*WordsPerLine) + Addr(k); a != NilAddr && a < words && rng.Intn(2) == 0 {
							mask |= 1 << k
							vals[k] = rng.Uint64()
						}
					}
				}
				for k := 0; k < WordsPerLine; k++ {
					if mask>>k&1 != 0 {
						ref.Store(Addr(line*WordsPerLine)+Addr(k), vals[k])
					}
				}
				h.StoreLine(line, mask, &vals)
			case k < 48:
				// Half the swaps name the current value and succeed.
				a, v := addr(), rng.Uint64()
				old := h.Load(a) + uint64(rng.Intn(2))
				if got, want := h.CompareAndSwap(a, old, v), ref.CompareAndSwap(a, old, v); got != want {
					t.Fatalf("seq %d op %d: CompareAndSwap(%d) = %v, reference %v", seq, op, a, got, want)
				}
			case k < 66:
				a := addr()
				fs[f].Flush(a)
				refFs[f].Flush(a)
			case k < 74:
				a := addr()
				n := 1 + rng.Intn(words-int(a))
				fs[f].FlushRange(a, n)
				refFs[f].FlushRange(a, n)
			case k < 86:
				fs[f].Fence()
				refFs[f].Fence()
			case k < 94:
				fs[f].Drain()
				refFs[f].Drain()
			default:
				p := &recordingPolicy{inner: NewRandomPolicy(seq<<8|int64(op), 0.5)}
				refP := &recordingPolicy{inner: NewRandomPolicy(seq<<8|int64(op), 0.5)}
				h.Crash(p)
				ref.Crash(refP)
				if !slices.Equal(p.asked, refP.asked) {
					t.Fatalf("seq %d op %d: crash asked the policy about %v, reference %v", seq, op, p.asked, refP.asked)
				}
				for a := Addr(1); a < words; a++ {
					if got, want := h.Load(a), ref.visible[a].Load(); got != want {
						t.Fatalf("seq %d op %d: visible[%d] after crash = %#x, reference %#x", seq, op, a, got, want)
					}
				}
				// The flushers deliberately outlive the crash with whatever
				// they had outstanding: a stale record must complete the same
				// words in both models.
			}
			media := h.MediaSnapshot()
			for a := range media {
				if want := ref.media[a].Load(); media[a] != want {
					t.Fatalf("seq %d op %d: media[%d] = %#x, reference %#x", seq, op, a, media[a], want)
				}
			}
		}
	}
}
