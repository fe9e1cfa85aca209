package ptm

import (
	"errors"
	"fmt"
	"time"

	"crafty/internal/htm"
	"crafty/internal/nvm"
)

// ROTx is the Tx handed to every AtomicRead body, on every engine: Load
// serves from one of two concrete sources — the hardware transaction of the
// current speculative attempt, or the heap directly when the caller holds a
// lock that makes direct reads a snapshot — and every mutation fails the
// transaction via FailReadOnly. The sources are two fields and a branch
// rather than an interface because loads are the entire cost of a read-only
// body, and an interface-typed source would put a second dynamic dispatch
// (the first is ptm.Tx itself) on each. Engines keep one ROTx per thread,
// pointed at the heap once at Register, so the read path allocates nothing.
type ROTx struct {
	// Heap serves loads whenever no speculative attempt is running.
	Heap *nvm.Heap

	hwtx *htm.Tx // the attempt ReadElided is running; nil on the direct paths
}

// Load implements Tx.
func (r *ROTx) Load(addr nvm.Addr) uint64 {
	if r.hwtx != nil {
		return r.hwtx.Load(addr)
	}
	return r.Heap.Load(addr)
}

// Store implements Tx by failing the read-only transaction.
func (r *ROTx) Store(nvm.Addr, uint64) { FailReadOnly() }

// Alloc implements Tx by failing the read-only transaction.
func (r *ROTx) Alloc(int) nvm.Addr { FailReadOnly(); return nvm.NilAddr }

// Free implements Tx by failing the read-only transaction.
func (r *ROTx) Free(nvm.Addr) { FailReadOnly() }

// ReadDirect runs body once against direct heap reads. The caller supplies
// what makes those a snapshot: a reader-writer lock held shared (the logging
// engines), the single global lock (ReadElided's fallback), or its own
// external synchronization (Crafty's thread-unsafe mode). A body error comes
// back wrapped in ErrAborted, a mutation as ErrReadOnlyTx.
func (r *ROTx) ReadDirect(body func(tx Tx) error) (err error) {
	defer CatchReadOnly(&err)
	r.hwtx = nil
	if berr := body(r); berr != nil {
		return fmt.Errorf("%w: %w", ErrAborted, berr)
	}
	return nil
}

// ReadElided is the read-only transaction of every engine that elides a
// single global lock with hardware transactions (Crafty, NV-HTM, DudeTM,
// Non-durable): body runs in one hardware transaction on hw that first reads
// the lock word at sgl, so a lock holder aborts it. A failed attempt waits for
// the lock to be free before the next; after maxRetries+1 of them the body
// runs to completion under the lock itself, reading the heap directly — a
// read-only body has nothing to log, so that always makes progress.
//
// way reports how the transaction ran, OutcomeReadOnly for the hardware
// transaction or OutcomeSGL for the lock, whether or not err is nil; dwell is
// how long the lock was held (zero on the hardware way). The caller counts
// both into its own statistics after ReadElided returns, which keeps every
// instrument outside the hardware transaction.
func (r *ROTx) ReadElided(hw *htm.Thread, sgl nvm.Addr, maxRetries int, body func(tx Tx) error) (way Outcome, dwell time.Duration, err error) {
	defer CatchReadOnly(&err)
	way = OutcomeReadOnly
	eng := hw.Engine()
	for failures := 0; failures <= maxRetries; failures++ {
		var userErr error
		cause := hw.Run(func(hwtx *htm.Tx) {
			if hwtx.Load(sgl) != 0 {
				hwtx.Abort()
			}
			r.hwtx = hwtx
			if userErr = body(r); userErr != nil {
				hwtx.Abort()
			}
		})
		if userErr != nil {
			return way, 0, fmt.Errorf("%w: %w", ErrAborted, userErr)
		}
		if cause == htm.CauseNone {
			return way, 0, nil
		}
		// If the lock is what aborted the attempt, retrying before it is free
		// would only burn the budget; if it was not, this is one load.
		eng.AwaitSGL(sgl)
	}

	// With every speculative transaction excluded and in-flight commits
	// quiesced, direct heap reads are a consistent snapshot.
	eng.AcquireSGL(sgl)
	t0 := time.Now()
	defer func() {
		eng.ReleaseSGL(sgl)
		dwell = time.Since(t0)
	}()
	return OutcomeSGL, 0, r.ReadDirect(body)
}

// NoteRead folds one ReadDirect or ReadElided result into the calling
// thread's own statistics — a committed read under the way it ran, a body
// error as a user abort, a mutation attempt as neither — and returns err.
func NoteRead(outcomes *[NumOutcomes]uint64, userAborts *uint64, way Outcome, err error) error {
	switch {
	case err == nil:
		outcomes[way]++
	case errors.Is(err, ErrAborted):
		*userAborts++
	}
	return err
}

// roViolation is the panic payload FailReadOnly unwinds the body with.
// A panic (rather than a recorded flag) stops the body at the first
// violation, so a miswritten "read" can never keep executing against state
// it believes it has modified.
type roViolation struct{}

// FailReadOnly aborts the executing read-only transaction body; it never
// returns. It is safe to unwind through a hardware transaction attempt: a
// read-only body buffers no writes and holds no commit-protocol locks.
func FailReadOnly() { panic(roViolation{}) }

// CatchReadOnly converts a FailReadOnly unwind into ErrReadOnlyTx. The two
// functions above that run AtomicRead bodies defer it; any other panic is
// re-raised untouched.
func CatchReadOnly(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(roViolation); ok {
			*err = ErrReadOnlyTx
			return
		}
		panic(r)
	}
}
