package kv

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// Group execution: Store.Apply commits K independent operations in
// min(K, shards) durable transactions instead of K, so a batch pays the
// engine's per-transaction costs — on Crafty one Log-phase HTM commit, one
// LOGGED/COMMITTED marker pair, one batched flush — once per shard group
// rather than once per key. See DESIGN.md §9 ("Group execution").
//
// Grouping is by shard so that one group's transaction touches one shard's
// probe chains and entry blocks, keeping its HTM read/write sets small and
// its conflicts confined to that shard (a batch that read every shard in one
// hardware transaction would blow the read-set capacity). Each
// group is additionally split so its estimated persistent write count stays
// within the engine's per-transaction write budget (ptm.WriteBudgeter), which
// bounds every group transaction by the HTM write capacity and the undo-log
// half exactly as the incremental rehash bounds its zeroing and migration
// batches.

// OpKind selects what one batch operation does.
type OpKind uint8

// The batch operation kinds.
const (
	// OpGet looks the key up; the result's Value aliases the batch's value
	// buffer (nil when missing, with Found false).
	OpGet OpKind = iota
	// OpPut inserts or updates the key.
	OpPut
	// OpDelete removes the key; the result's Found reports whether it was
	// present.
	OpDelete
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one operation of a batch.
type Op struct {
	Kind  OpKind
	Key   []byte
	Value []byte // OpPut only
}

// OpResult is the outcome of one batch operation.
type OpResult struct {
	// Found reports presence: for OpGet, whether the key exists; for
	// OpDelete, whether it existed. Always true for a successful OpPut.
	Found bool
	// Value is the value read by OpGet, aliasing the dst buffer Apply
	// returns; nil for missing keys and for non-get operations.
	Value []byte
	// Err is the operation's failure, nil on success. An operation that was
	// part of a group whose transaction failed carries ErrGroupAborted
	// unless it caused the failure itself.
	Err error

	// Volatile processing state: the precomputed key hash, the value span
	// into the shared dst buffer (resolved into Value only once every group
	// has run and dst's storage is final), and the group-membership flag.
	hash   uint64
	off, n int
	done   bool
}

// ErrGroupAborted marks an operation that failed only because another
// operation (or the engine) failed the group's transaction: per-group
// execution is all-or-nothing, so none of the group's effects are visible.
var ErrGroupAborted = errors.New("kv: operation aborted with its group")

// errGroupFallback is the internal body signal that a group's shard cannot be
// batch-committed right now (a rehash is in progress, or the group's inserts
// could push the shard past its rehash threshold); the group's operations are
// re-run individually so rehash stepping keeps its one-step-per-transaction
// progress rate.
var errGroupFallback = errors.New("kv: group requires per-op execution")

// defaultTxBudget is the per-transaction write budget assumed when an engine
// does not expose one; it is far below every real engine's bound.
const defaultTxBudget = 256

// opWriteCost estimates the persistent word writes one operation can perform
// inside a group transaction: a put worst-case claims a slot (1: slots are one
// word), bumps both shard counters (2), stamps the shard's dirty epoch (1),
// fills a fresh entry block, and — when it replaces — flips the old block's
// allocation header (1) alongside the new block's (1); a delete tombstones its
// slot (1), drops the live counter (1), stamps the epoch (1), and flips its
// block's header (1); a get writes nothing.
func opWriteCost(op *Op) int {
	switch op.Kind {
	case OpPut:
		return 6 + blockWords(len(op.Key), len(op.Value))
	case OpDelete:
		return 4
	default:
		return 0
	}
}

// validateOp screens statically invalid operations so they fail alone with a
// typed error instead of aborting their whole group.
func validateOp(op *Op) error {
	switch op.Kind {
	case OpGet, OpDelete:
		return nil
	case OpPut:
		return validatePut(op.Key, op.Value)
	default:
		return fmt.Errorf("kv: unknown op kind %d", op.Kind)
	}
}

// applyState is the reusable per-call state of one Apply run. It is pooled so
// the steady-state hot path allocates nothing: the transaction bodies are
// bound once, when the state is created, and re-pointed at the current batch
// through the state's fields.
type applyState struct {
	s   *Store
	ops []Op
	res []OpResult
	dst []byte

	// Current group.
	members []int  // op indices, in submission order
	skip    []bool // parallel to members: puts superseded by a later put
	shard   int
	puts    int // OpPut members (potential new inserts)
	writes  bool
	baseDst int
	errIdx  int   // member index whose op failed the group body (-1 none)
	opErr   error // its error
	cur     int   // op index for the per-op fallback bodies

	// Metrics staging: the rehash-step mask the per-op write body stages for
	// execOp's post-commit fold (bodies may re-execute; instruments are only
	// touched after Atomic returns).
	lastStep rehashStep

	// Write-combining scratch: for each distinct key seen while walking the
	// group backward, the op index of its nearest later member.
	seenH   []uint64
	seenIdx []int

	// one and oneRes back ops and res when the state carries a single
	// operation for Store.Get/Put/Delete (oneOp), so those allocate nothing.
	one    [1]Op
	oneRes [1]OpResult

	// Pre-bound transaction bodies (one closure each per state lifetime).
	groupBody func(tx ptm.Tx) error
	writeBody func(tx ptm.Tx) error
	readBody  func(tx ptm.Tx) error
}

var applyPool = sync.Pool{
	New: func() any {
		a := &applyState{}
		a.groupBody = a.runGroup
		a.writeBody = a.runWriteOp
		a.readBody = a.runReadOp
		return a
	},
}

// Apply executes a batch of independent operations, grouping them by shard
// and committing each group in a single durable transaction, so K operations
// cost at most min(K, shards) transactions (plus budget splits) instead of K.
// Results are returned in op order in res (reused if non-nil, one entry per
// op); values read by OpGet are appended to dst and alias its returned
// storage.
//
// Semantics: operations on the same shard execute in submission order within
// their group; groups execute in order of each shard's first occurrence, so
// cross-shard operations are not globally ordered — batch operations must be
// independent. Each group is all-or-nothing: if its transaction fails, every
// member carries an error (the causing op its own, the rest ErrGroupAborted)
// and no member's effects are visible, while other groups stand. Statically
// invalid operations (empty or oversized keys) fail alone without aborting
// their group. A shard mid-rehash falls back to per-op transactions so the
// incremental rehash keeps its one-bounded-step-per-transaction progress
// rate; the returned results are identical either way.
//
// The returned error is reserved for batch-level failures (nil today);
// per-operation outcomes, including engine failures, are in the results.
func (s *Store) Apply(th ptm.Thread, ops []Op, res []OpResult, dst []byte) ([]OpResult, []byte, error) {
	res = res[:0]
	if len(ops) == 0 {
		return res, dst, nil
	}
	a := applyPool.Get().(*applyState)
	a.s, a.ops, a.dst = s, ops, dst

	for i := range ops {
		res = append(res, OpResult{hash: hashKey(ops[i].Key), off: -1})
		if err := validateOp(&ops[i]); err != nil {
			res[i].Err = err
			res[i].done = true
		}
	}
	a.res = res

	for i := range ops {
		if res[i].done {
			continue
		}
		a.beginGroup(s.shardOf(res[i].hash))
		budget := s.txBudget
		for j := i; j < len(ops); j++ {
			if res[j].done || s.shardOf(res[j].hash) != a.shard {
				continue
			}
			cost := opWriteCost(&ops[j])
			// Close the group at the write budget, but never leave it empty:
			// a single oversized op runs alone and takes its own outcome.
			if len(a.members) > 0 && budget < cost {
				break
			}
			budget -= cost
			a.members = append(a.members, j)
			a.skip = append(a.skip, false)
			if ops[j].Kind == OpPut {
				a.puts++
			}
			if ops[j].Kind != OpGet {
				a.writes = true
			}
		}
		a.combineGroup()
		a.commitGroup(th)
	}

	// dst's storage is final: resolve every get span into its value slice.
	for i := range res {
		if res[i].off >= 0 {
			res[i].Value = a.dst[res[i].off : res[i].off+res[i].n]
		}
	}
	res, dst = a.res, a.dst
	a.release()
	return res, dst, nil
}

// oneOp readies a pooled state to run one operation alone through execOp:
// what Get, Put and Delete are. dst receives a get's value. Fields are set
// one by one — a whole-struct copy of pointer-carrying types costs a typed
// memmove on the per-op hot path.
func (s *Store) oneOp(kind OpKind, key, value, dst []byte) *applyState {
	a := applyPool.Get().(*applyState)
	op, r := &a.one[0], &a.oneRes[0]
	op.Kind, op.Key, op.Value = kind, key, value
	r.hash, r.off, r.Found = hashKey(key), -1, false
	a.s, a.ops, a.res, a.dst = s, a.one[:], a.oneRes[:], dst
	return a
}

// beginGroup resets the per-group state.
func (a *applyState) beginGroup(shard int) {
	a.members = a.members[:0]
	a.skip = a.skip[:0]
	a.shard = shard
	a.puts = 0
	a.writes = false
	a.baseDst = len(a.dst)
	a.errIdx = -1
	a.opErr = nil
}

// combineGroup write-combines the group: a put whose nearest later same-key
// member is also a put is superseded — no operation in between can observe
// its value, and the group commits atomically, so executing only the final
// put yields an identical store state and identical results for every other
// op. Superseded puts are skipped by the group body (saving their block
// writes entirely, which is what makes skewed update batches cheaper per op
// than per-op execution) and still report success. The per-op fallback
// ignores the marks: without the group's atomicity, a later put's failure
// must not retroactively falsify an earlier put's reported success.
func (a *applyState) combineGroup() {
	if a.puts < 2 {
		return
	}
	a.seenH = a.seenH[:0]
	a.seenIdx = a.seenIdx[:0]
	for k := len(a.members) - 1; k >= 0; k-- {
		i := a.members[k]
		op := &a.ops[i]
		found := -1
		for t := range a.seenH {
			if a.seenH[t] == a.res[i].hash && bytes.Equal(a.ops[a.seenIdx[t]].Key, op.Key) {
				found = t
				break
			}
		}
		if found < 0 {
			a.seenH = append(a.seenH, a.res[i].hash)
			a.seenIdx = append(a.seenIdx, i)
			continue
		}
		if op.Kind == OpPut && a.ops[a.seenIdx[found]].Kind == OpPut {
			// Superseded; the tracked later put stays the nearest relevant
			// member for anything even earlier.
			a.skip[k] = true
			continue
		}
		a.seenIdx[found] = i
	}
}

// release drops references to the caller's slices and returns the state to
// the pool (the index scratch stays for reuse).
func (a *applyState) release() {
	a.s = nil
	a.ops = nil
	a.res = nil
	a.dst = nil
	a.one[0].Key, a.one[0].Value = nil, nil
	applyPool.Put(a)
}

// commitGroup runs the current group in one transaction, falling back to
// per-op execution when the shard cannot be batch-committed, and records the
// members' outcomes.
func (a *applyState) commitGroup(th ptm.Thread) {
	stripe := stripeOf(th)
	var err error
	if a.writes {
		err = th.Atomic(a.groupBody)
	} else {
		//crafty:txsafe runGroup's putSlot/deleteSlot branches are unreachable here: this arm runs only when a.writes is false, i.e. every member is an OpGet
		err = th.AtomicRead(a.groupBody)
	}
	if err == nil {
		// Off-path stamp: the group's transaction has committed.
		a.s.ms.ApplyGroups.Inc(stripe)
		a.s.ms.ApplyGroupOps.Observe(int64(len(a.members)))
		for _, i := range a.members {
			a.res[i].done = true
			if a.ops[i].Kind == OpPut {
				a.res[i].Found = true
			}
		}
		return
	}
	if errors.Is(err, errGroupFallback) {
		a.s.ms.ApplyFallbacks.Inc(stripe)
		a.fallback(th)
		return
	}
	a.s.ms.ApplyGroupAborts.Inc(stripe)
	// The group's transaction failed: all-or-nothing, typed per op.
	for k, i := range a.members {
		a.res[i].done = true
		a.res[i].off = -1
		a.res[i].Found = false
		if k == a.errIdx {
			a.res[i].Err = a.opErr
		} else {
			a.res[i].Err = fmt.Errorf("%w: %w", ErrGroupAborted, err)
		}
	}
}

// runGroup is the group transaction body. Engines may re-execute it, so it
// resets every volatile output it produces on entry.
func (a *applyState) runGroup(tx ptm.Tx) error {
	s := a.s
	hdr := s.shardHeader(a.shard)
	a.dst = a.dst[:a.baseDst]
	a.errIdx = -1
	a.opErr = nil
	for _, i := range a.members {
		a.res[i].off = -1
		a.res[i].Found = false
	}

	if a.writes {
		// A shard mid-rehash keeps its one-step-per-transaction progress
		// rate on the per-op path; a group whose inserts could push the
		// shard past the rehash threshold (or fill its table) does the same,
		// so a batched transaction never has to start or step a rehash.
		if tx.Load(hdr+shOld) != 0 || tx.Load(hdr+shPending) != 0 {
			return errGroupFallback
		}
		used := tx.Load(hdr + shUsed)
		slots := tx.Load(hdr + shSlots)
		if (used+uint64(a.puts))*loadDen > slots*loadNum {
			return errGroupFallback
		}
	}

	for k, i := range a.members {
		if a.skip[k] {
			continue
		}
		op := &a.ops[i]
		r := &a.res[i]
		switch op.Kind {
		case OpGet:
			a.getOp(tx, hdr, i)
		case OpPut:
			if err := s.putSlot(tx, hdr, r.hash, op.Key, op.Value); err != nil {
				a.errIdx, a.opErr = k, err
				return err
			}
		case OpDelete:
			r.Found = s.deleteSlot(tx, hdr, r.hash, op.Key)
		}
	}
	return nil
}

// getOp is the body of one get, in a group or alone: the store's lookup,
// with the value's span in dst recorded for Apply to resolve once dst's
// storage is final. The caller has reset the result (bodies re-execute).
func (a *applyState) getOp(tx ptm.Tx, hdr nvm.Addr, i int) {
	r := &a.res[i]
	off := len(a.dst)
	if a.dst, r.Found = a.s.lookup(tx, hdr, r.hash, a.ops[i].Key, a.dst); r.Found {
		r.off, r.n = off, len(a.dst)-off
	}
}

// execOp runs operation i in a transaction of its own, exactly as Get, Put
// and Delete do — they are this function on a one-op state — and as a group
// that cannot be batch-committed falls back to: a mutating op steps the
// shard's rehash one bounded batch and, once committed, folds the step it
// staged into the metrics; a read rides the read-only fast path.
func (a *applyState) execOp(th ptm.Thread, i int) error {
	a.cur = i
	if a.ops[i].Kind == OpGet {
		a.baseDst = len(a.dst)
		return th.AtomicRead(a.readBody)
	}
	err := th.Atomic(a.writeBody)
	if err == nil {
		a.s.ms.noteRehash(stripeOf(th), a.lastStep)
	}
	return err
}

// fallback re-runs the current group's operations individually, so a shard
// mid-rehash keeps its one-step-per-transaction progress rate.
func (a *applyState) fallback(th ptm.Thread) {
	for _, i := range a.members {
		err := a.execOp(th, i)
		r := &a.res[i]
		r.done = true
		if err != nil {
			r.Err = err
			r.off = -1
			r.Found = false
		} else if a.ops[i].Kind == OpPut {
			r.Found = true
		}
	}
}

// runWriteOp is the per-op body for puts and deletes. Each (re-)execution
// overwrites lastStep; execOp's fold sees the committed execution's mask.
func (a *applyState) runWriteOp(tx ptm.Tx) error {
	op, r := &a.ops[a.cur], &a.res[a.cur]
	if op.Kind == OpPut {
		var err error
		a.lastStep, err = a.s.putTxStep(tx, r.hash, op.Key, op.Value)
		return err
	}
	r.Found, a.lastStep = a.s.deleteTxStep(tx, r.hash, op.Key)
	return nil
}

// runReadOp is the per-op body for gets. Reset on entry: engines may
// re-execute the body.
func (a *applyState) runReadOp(tx ptm.Tx) error {
	a.dst = a.dst[:a.baseDst]
	a.res[a.cur].off = -1
	a.getOp(tx, a.s.shardHeader(a.s.shardOf(a.res[a.cur].hash)), a.cur)
	return nil
}
