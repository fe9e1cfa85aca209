// Package repl replicates a craftykv primary to replicas over TCP.
//
// The replication unit is the scheduler's drained batch: after a worker's
// Store.Apply group commit returns, the worker appends the batch's committed
// mutations to a shared in-memory Log under a global sequence number. A
// streamer per replica connection walks the log in order and ships whole
// groups; the replica re-submits each group through its own scheduler, so
// per-key ordering is preserved (a key always maps to the same shard, and a
// shard's ops keep their relative order through both schedulers) and the
// replica's on-NVM state is always a prefix of whole groups — the same crash
// invariant DESIGN.md §9 proves for a single node, extended across the wire.
//
// The log is bounded and volatile. A replica that falls off its tail (or
// whose generation disagrees after a primary crash rolled back streamed
// groups) is resynced from a full snapshot taken at a quiesced point, then
// tails the stream from the sequence recorded there.
//
// The stream is internal/wire's frame codec over kv.Op — the client port's
// handshake, framing and decoder on their own range of frame types (DESIGN.md
// §12 has the table). Both ends open with the handshake; the replica says
// HELLO pos gen; the primary answers ERR, or STREAM gen from, or the store as
// SNAPCHUNK frames closed by SNAPEND gen seq, and from then on sends GROUP and
// FENCE frames, which the replica answers with ACK seq durable. Any decode
// error or sequence gap (netfault drops, half-written frames) drops the
// connection and the replica re-handshakes from its recorded position; groups
// are idempotent so overlap is harmless, and a snapshot cut short of its
// SNAPEND applies nothing.
package repl

import (
	"sync"

	"crafty/internal/kv"
)

// Group is one scheduler batch's committed mutations (puts and deletes) under
// one stream sequence number. Sequences are contiguous from 1.
type Group struct {
	Seq uint64
	Ops []kv.Op
}

// Log is the primary's bounded in-memory ring of recent groups. Workers
// append; per-replica streamers read with WaitFrom. When the ring overflows,
// the oldest groups are dropped and any streamer still needing them gets a
// not-covered result, forcing that replica through the snapshot path.
type Log struct {
	mu     sync.Mutex
	cond   *sync.Cond
	groups []Group // retained groups, contiguous seqs
	next   uint64  // next sequence to assign
	cap    int
	closed bool
}

// NewLog builds a log retaining at most capGroups groups.
func NewLog(capGroups int) *Log {
	if capGroups < 1 {
		capGroups = 1
	}
	l := &Log{next: 1, cap: capGroups}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Append assigns the next sequence to ops and retains a deep copy (callers
// reuse their buffers). Returns the assigned sequence.
func (l *Log) Append(ops []kv.Op) uint64 {
	cp := make([]kv.Op, len(ops))
	var n int
	for _, op := range ops {
		n += len(op.Key) + len(op.Value)
	}
	buf := make([]byte, 0, n)
	for i, op := range ops {
		buf = append(buf, op.Key...)
		k := buf[len(buf)-len(op.Key):]
		buf = append(buf, op.Value...)
		v := buf[len(buf)-len(op.Value):]
		cp[i] = kv.Op{Kind: op.Kind, Key: k, Value: v}
	}
	l.mu.Lock()
	seq := l.next
	l.next++
	l.groups = append(l.groups, Group{Seq: seq, Ops: cp})
	if len(l.groups) > l.cap {
		drop := len(l.groups) - l.cap
		l.groups = append(l.groups[:0], l.groups[drop:]...)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return seq
}

// LastSeq returns the highest assigned sequence (0 before the first Append).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Covers reports whether a streamer positioned at seq (next wanted: seq+1)
// can be served from the retained window without a snapshot.
func (l *Log) Covers(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return seq+1 >= l.firstLocked()
}

// firstLocked is the lowest retained sequence, or next if nothing is
// retained (an empty log covers only seq = next-1, i.e. "caught up").
func (l *Log) firstLocked() uint64 {
	if len(l.groups) > 0 {
		return l.groups[0].Seq
	}
	return l.next
}

// SkipTo advances the sequence counter so the next Append gets seq+1 —
// promotion uses it to keep stream positions meaningful across a failover
// (the promoted replica continues numbering where its applied prefix ended).
func (l *Log) SkipTo(seq uint64) {
	l.mu.Lock()
	if seq+1 > l.next {
		l.next = seq + 1
		l.groups = l.groups[:0]
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Clear drops every retained group without touching the sequence counter.
// The primary calls it after a CRASH recovery: groups streamed before the
// crash may have been rolled back, so every replica must resync from a
// snapshot (Covers now fails for any position behind next-1).
func (l *Log) Clear() {
	l.mu.Lock()
	l.groups = l.groups[:0]
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Close wakes all waiters permanently; WaitFrom returns not-ok.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Broadcast wakes blocked WaitFrom callers so they can re-check their stop
// predicate (session close, pending fence).
func (l *Log) Broadcast() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// WaitFrom blocks until groups at sequence ≥ from are available, then
// appends up to max of them to dst and returns it with ok=true. It returns
// early with an empty slice and ok=true when stop() is true (the caller has
// other work: a fence to send, a dead connection to notice). ok=false means
// the log cannot serve this position anymore — trimmed past it, cleared
// after a crash, or closed — and the session must fall back to a snapshot.
func (l *Log) WaitFrom(from uint64, stop func() bool, max int, dst []Group) ([]Group, bool) {
	dst = dst[:0]
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if stop != nil && stop() {
			return dst, true
		}
		if l.closed {
			return dst, false
		}
		if from < l.firstLocked() {
			return dst, false
		}
		if from < l.next {
			break
		}
		l.cond.Wait()
	}
	first := l.firstLocked()
	for i := int(from - first); i < len(l.groups) && len(dst) < max; i++ {
		dst = append(dst, l.groups[i])
	}
	return dst, true
}

// Retained returns a copy of the currently retained groups, oldest first.
// Drill tests read it after killing a primary to compute the exact state an
// honest replica must hold.
func (l *Log) Retained() []Group {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Group, len(l.groups))
	copy(out, l.groups)
	return out
}
