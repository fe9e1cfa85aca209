package nvm

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// CrashPolicy decides, for each word that had not definitely persisted at the
// moment of a crash, whether it nonetheless reached the media image (for
// example because the cache line was evicted). Implementations act as the
// adversary in crash-consistency tests: recovery must produce a consistent
// state no matter what the policy answers.
type CrashPolicy interface {
	// Persist reports whether the visible value of addr reached media.
	Persist(addr Addr) bool
}

// PersistAll is the most optimistic crash policy: every outstanding write
// reached the media image.
type PersistAll struct{}

// Persist implements CrashPolicy.
func (PersistAll) Persist(Addr) bool { return true }

// PersistNone is the most pessimistic crash policy: no write that was not
// already fenced reached the media image.
type PersistNone struct{}

// Persist implements CrashPolicy.
func (PersistNone) Persist(Addr) bool { return false }

// RandomPolicy persists each outstanding word independently with probability
// P, using a deterministic seed so failures are reproducible. A probability
// around 0.5 maximizes the chance of observing torn multi-word log entries.
type RandomPolicy struct {
	rng *rand.Rand
	p   float64
}

// NewRandomPolicy returns a RandomPolicy with persistence probability p.
func NewRandomPolicy(seed int64, p float64) *RandomPolicy {
	return &RandomPolicy{rng: rand.New(rand.NewSource(seed)), p: p}
}

// Persist implements CrashPolicy.
func (r *RandomPolicy) Persist(Addr) bool { return r.rng.Float64() < r.p }

// Crash simulates a power failure followed by a restart. Every word whose
// persistence was not yet guaranteed is resolved by the policy; then the
// visible image is reset to the media image, modelling the restarted process
// mapping the NVM back in. Crash panics if persistence tracking is disabled,
// since a crash is meaningless without a media image.
//
// Crash must not be called concurrently with transaction execution: the
// caller stops (or abandons) all worker threads first, exactly as a real
// power failure freezes the machine at an arbitrary instant. Tests achieve
// arbitrary crash points by bounding how much work the workers perform before
// the crash is injected.
func (h *Heap) Crash(policy CrashPolicy) {
	if !h.cfg.TrackPersistence {
		panic("nvm: Crash requires Config.TrackPersistence")
	}
	if policy == nil {
		policy = PersistNone{}
	}
	h.crashes.Add(1)
	h.crashMu.Lock()
	defer h.crashMu.Unlock()
	// Lines and, within a line, words are visited in ascending address order,
	// and the policy is asked about exactly the marked words: a seeded
	// RandomPolicy's answers land on the same words whatever the heap's
	// bookkeeping looks like. An unmarked word's visible value already equals
	// its media value, so a line with an empty mask has nothing to resolve
	// and nothing to reset.
	for line := range h.dirty {
		mask := h.dirty[line].Load()
		if mask == 0 {
			continue
		}
		h.dirty[line].Store(0)
		for ; mask != 0; mask &= mask - 1 {
			w := line*WordsPerLine + bits.TrailingZeros32(mask)
			if policy.Persist(Addr(w)) {
				h.media[w].Store(h.visible[w].Load())
			} else {
				h.visible[w].Store(h.media[w].Load())
			}
		}
	}
}

// MediaSnapshot returns a copy of the media image (the recovery observer's
// view). It is primarily useful for asserting what would survive a crash
// without actually resetting the visible image.
func (h *Heap) MediaSnapshot() []uint64 {
	if !h.cfg.TrackPersistence {
		panic("nvm: MediaSnapshot requires Config.TrackPersistence")
	}
	h.crashMu.Lock()
	defer h.crashMu.Unlock()
	out := make([]uint64, len(h.media))
	for w := range h.media {
		out[w] = h.media[w].Load()
	}
	return out
}

// MediaLoad returns the media (persisted) value of addr.
func (h *Heap) MediaLoad(addr Addr) uint64 {
	if !h.cfg.TrackPersistence {
		panic("nvm: MediaLoad requires Config.TrackPersistence")
	}
	h.Check(addr)
	return h.media[addr].Load()
}

// String describes the heap configuration; useful in test failure messages.
func (h *Heap) String() string {
	return fmt.Sprintf("nvm.Heap{words=%d, latency=%s, tracking=%v}", len(h.visible), h.latency, h.cfg.TrackPersistence)
}
