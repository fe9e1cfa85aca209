package core

import (
	"crafty/internal/obs"
)

// Metrics holds the engine's off-path instruments: rare-event counters for
// the fallback and log-maintenance machinery that the per-thread outcome
// counters (Thread.outcomes, merged by Engine.Stats) do not cover. Every
// increment happens outside hardware transaction bodies — on the SGL path
// after the lock is held, in the log-room bookkeeping that runs between
// transactions, or after a commit — so instrumentation never joins a write
// set and never double-counts a re-executed body. Stripes are thread slots.
//
// An Engine allocates its own Metrics; a server that replaces engines across
// crash/recovery cycles can carry the counters over with AdoptMetrics so the
// observed totals span incarnations.
type Metrics struct {
	// SGLEntries counts write transactions that exhausted their retries and
	// completed under the single global lock; SGLReads counts read-only
	// bodies that did the same. SGLDwellNs is the wall time the lock was
	// held, stamped with time.Now after release — legal here because the SGL
	// path is already the slow path and runs no hardware transaction of its
	// own around the measurement points.
	SGLEntries obs.Counter
	SGLReads   obs.Counter
	SGLDwellNs obs.Histogram

	// LogWraps counts circular undo-log wraps (the head returning to slot 0
	// after a Section 5.2 overwrite check); HalfSwaps counts the first
	// append into a freshly entered log half (the moment the overwrite check
	// for that half is run); ForcedEmpties counts empty LOGGED sequences
	// forced into delinquent threads' logs (including SyncDurable markers).
	LogWraps      obs.Counter
	HalfSwaps     obs.Counter
	ForcedEmpties obs.Counter

	// LogFreeWrites counts the committed stores to blocks their transaction
	// carved from the arena frontier, which took no undo entry. ptm.Stats'
	// Writes counts them too, so core.writes stays comparable across
	// engines. Added after commit, outside any hardware transaction.
	LogFreeWrites obs.Counter
}

// RegisterInto publishes the metrics under prefix (e.g. "core") in r.
func (m *Metrics) RegisterInto(r *obs.Registry, prefix string) {
	r.RegisterCounter(prefix+".sgl.entries", &m.SGLEntries)
	r.RegisterCounter(prefix+".sgl.reads", &m.SGLReads)
	r.RegisterHistogram(prefix+".sgl.dwell_ns", &m.SGLDwellNs)
	r.RegisterCounter(prefix+".log.wraps", &m.LogWraps)
	r.RegisterCounter(prefix+".log.half_swaps", &m.HalfSwaps)
	r.RegisterCounter(prefix+".log.forced_empties", &m.ForcedEmpties)
	r.RegisterCounter(prefix+".logfree_writes", &m.LogFreeWrites)
}

// Metrics returns the engine's instrument block.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// AdoptMetrics makes the engine record into m instead of its own block, so
// counters survive an engine replacement (crash/recovery). Call it before
// the engine's threads start running transactions.
func (e *Engine) AdoptMetrics(m *Metrics) {
	if m != nil {
		e.metrics = m
	}
}
