package htm

import (
	"math/rand"
	"sync/atomic"

	"crafty/internal/nvm"
)

// Stats counts hardware transaction outcomes for one thread or aggregated
// across threads. Commits plus the abort counts equal the number of attempts.
type Stats struct {
	Commits        uint64
	Aborts         [NumCauses]uint64 // indexed by AbortCause; index 0 unused
	ExplicitCommit uint64            // commits of read-only transactions (no writes published)
}

// Total returns the total number of hardware transaction attempts.
func (s Stats) Total() uint64 {
	n := s.Commits
	for _, a := range s.Aborts {
		n += a
	}
	return n
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Commits += other.Commits
	s.ExplicitCommit += other.ExplicitCommit
	for i := range s.Aborts {
		s.Aborts[i] += other.Aborts[i]
	}
}

// Thread is one worker's handle onto the emulated HTM device. A Thread must
// not be used concurrently from multiple goroutines; it owns the per-thread
// flusher whose outstanding cache-line write-backs are completed by each
// transaction commit (fence semantics).
type Thread struct {
	eng     *Engine
	id      int
	rng     *rand.Rand
	flusher *nvm.Flusher

	commits        atomic.Uint64
	readOnly       atomic.Uint64
	aborts         [NumCauses]atomic.Uint64
	inTransaction  bool
	currentAborted bool

	// tx is the thread's reusable transaction handle: one instance, reset
	// between attempts, so the steady-state data path allocates nothing.
	tx Tx
}

var threadIDs atomic.Int64

// NewThread registers a new worker thread with the engine. seed controls the
// thread's spurious-abort randomness; passing the worker index keeps runs
// reproducible.
func (e *Engine) NewThread(seed int64) *Thread {
	return &Thread{
		eng:     e,
		id:      int(threadIDs.Add(1)),
		rng:     rand.New(rand.NewSource(seed ^ 0x7f4a7c159e3779b9)),
		flusher: e.heap.NewFlusher(),
	}
}

// Flusher returns the thread's persist handle. Flushes issued on it are
// completed (fenced) whenever one of the thread's hardware transactions
// commits, mirroring the SFENCE semantics of RTM commit that Crafty relies
// on.
func (t *Thread) Flusher() *nvm.Flusher { return t.flusher }

// Engine returns the device the thread is registered with.
func (t *Thread) Engine() *Engine { return t.eng }

// ID returns the thread's engine-unique identifier.
func (t *Thread) ID() int { return t.id }

// CommitTS returns the commit timestamp of this thread's most recent
// committed hardware transaction: the version its writes were published
// under, or the global clock value at commit for a read-only transaction.
// It replaces per-transaction commit callbacks (which would allocate a
// closure per transaction) and is only meaningful after Run returns
// CauseNone.
func (t *Thread) CommitTS() uint64 { return t.tx.commitTS }

// Stats returns a snapshot of this thread's hardware transaction outcomes.
func (t *Thread) Stats() Stats {
	var s Stats
	s.Commits = t.commits.Load()
	s.ExplicitCommit = t.readOnly.Load()
	for i := range s.Aborts {
		s.Aborts[i] = t.aborts[i].Load()
	}
	return s
}

// htmAbort is the panic payload used to unwind an aborted transaction.
type htmAbort struct {
	cause AbortCause
}

// Run executes body inside one hardware transaction attempt and returns
// CauseNone if it committed, or the abort cause otherwise. Run never retries:
// best-effort HTM gives no progress guarantee, so retry and fallback policy
// belong to the caller (Crafty retries a bounded number of times and then
// falls back to the single global lock).
//
// The body observes opaque (always consistent) memory through tx.Load and
// publishes its writes atomically if and only if Run returns CauseNone.
func (t *Thread) Run(body func(tx *Tx)) (cause AbortCause) {
	if t.inTransaction {
		panic("htm: nested hardware transactions are not supported (RTM flattens and this emulation forbids them)")
	}
	t.inTransaction = true
	defer func() { t.inTransaction = false }()

	tx := &t.tx
	tx.reset(t)
	inBody := true
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(htmAbort)
			if !ok {
				if !inBody || tx.snapshotValid() {
					panic(r) // programming error; do not swallow
				}
				// The body faulted in an attempt that was already doomed: a
				// line it read has been republished. Opacity covers the heap
				// only, so a body that consults volatile state beside it (the
				// allocator's block map) can find that state ahead of its
				// snapshot and fault on the disagreement. RTM aborts a
				// transaction that faults; a genuine bug faults again on the
				// retry, from a valid snapshot.
				ab = htmAbort{cause: CauseConflict}
			}
			cause = ab.cause
			t.aborts[ab.cause].Add(1)
		}
	}()

	// Spurious ("zero") aborts can strike at any time; striking at begin is
	// sufficient to reproduce their statistical effect.
	if p := t.eng.cfg.SpuriousAbortProb; p > 0 && t.rng.Float64() < p {
		panic(htmAbort{cause: CauseZero})
	}

	body(tx)
	inBody = false
	tx.commit()
	t.commits.Add(1)
	if tx.writes.size() == 0 {
		t.readOnly.Add(1)
	}
	return CauseNone
}
