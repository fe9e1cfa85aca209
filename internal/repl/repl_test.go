package repl

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"crafty/internal/kv"
	"crafty/internal/repl/netfault"
)

// memApplier is an in-memory Applier: a map plus the recorded position —
// the replica-host contract without a real store underneath.
type memApplier struct {
	mu      sync.Mutex
	data    map[string]string
	pos     uint64
	gen     uint64
	fences  int
	applies int
}

func newMemApplier() *memApplier { return &memApplier{data: map[string]string{}} }

func (a *memApplier) ApplyGroups(gs []Group) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.applies++
	for _, g := range gs {
		for _, op := range g.Ops {
			if op.Kind == kv.OpDelete {
				delete(a.data, string(op.Key))
			} else {
				a.data[string(op.Key)] = string(op.Value)
			}
		}
		a.pos = g.Seq
	}
	return nil
}

func (a *memApplier) ApplySnapshot(entries []kv.Op, seq, gen uint64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.data = map[string]string{}
	for _, e := range entries {
		a.data[string(e.Key)] = string(e.Value)
	}
	a.pos, a.gen = seq, gen
	return nil
}

func (a *memApplier) Fence() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.fences++
	return nil
}

func (a *memApplier) Position() (uint64, uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pos, a.gen, nil
}

func (a *memApplier) position() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.pos
}

func (a *memApplier) generation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gen
}

func (a *memApplier) snapshot() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.data))
	for k, v := range a.data {
		out[k] = v
	}
	return out
}

// fakePrimaryState is the "store" behind a test Primary: a map mutated in
// lockstep with Log.Append, snapshotted under the same lock so snapshot
// state and sequence agree (the quiesced-point contract).
type fakePrimaryState struct {
	mu   sync.Mutex
	data map[string]string
	log  *Log
	gen  uint64
}

func newFakePrimaryState(capGroups int) *fakePrimaryState {
	return &fakePrimaryState{data: map[string]string{}, log: NewLog(capGroups), gen: 1}
}

func (s *fakePrimaryState) apply(ops []kv.Op) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		if op.Kind == kv.OpDelete {
			delete(s.data, string(op.Key))
		} else {
			s.data[string(op.Key)] = string(op.Value)
		}
	}
	return s.log.Append(ops)
}

func (s *fakePrimaryState) put(k, v string) uint64 {
	return s.apply([]kv.Op{{Kind: kv.OpPut, Key: []byte(k), Value: []byte(v)}})
}

func (s *fakePrimaryState) snapshotFunc() SnapshotFunc {
	return func() ([]kv.Op, uint64, uint64, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		var entries []kv.Op
		for k, v := range s.data {
			entries = append(entries, kv.Op{Kind: kv.OpPut, Key: []byte(k), Value: []byte(v)})
		}
		return entries, s.log.LastSeq(), s.gen, nil
	}
}

func (s *fakePrimaryState) snapshot() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.data))
	for k, v := range s.data {
		out[k] = v
	}
	return out
}

// quietAfter returns t.Logf, muted once the test's cleanups begin: a session
// goroutine that outlives its test (Stop and Close do not wait for them) may
// still have a diagnostic to log, and logging to a finished test panics.
func quietAfter(t *testing.T) func(format string, args ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() {
		mu.Lock()
		done = true
		mu.Unlock()
	})
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

func startPrimary(t *testing.T, s *fakePrimaryState) (*Primary, string) {
	t.Helper()
	p := NewPrimary(PrimaryConfig{
		Log:      s.log,
		Snapshot: s.snapshotFunc(),
		Gen: func() uint64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.gen
		},
		Logf: quietAfter(t),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); p.Close() })
	go p.Serve(l)
	return p, l.Addr().String()
}

func startReplica(t *testing.T, addr string, a Applier, dial func(string) (net.Conn, error)) *Replica {
	t.Helper()
	r := NewReplica(ReplicaConfig{
		Addr:        addr,
		Dial:        dial,
		Applier:     a,
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Logf:        quietAfter(t),
	})
	t.Cleanup(r.Stop)
	go r.Run()
	return r
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestSnapshotThenTail: a fresh replica (pos 0, gen 0) joining a live
// primary gets a snapshot of the existing state and then tails new groups.
func TestSnapshotThenTail(t *testing.T) {
	s := newFakePrimaryState(64)
	for i := 0; i < 10; i++ {
		s.put(fmt.Sprintf("pre%d", i), "v")
	}
	p, addr := startPrimary(t, s)
	a := newMemApplier()
	r := startReplica(t, addr, a, nil)

	waitUntil(t, "snapshot applied", func() bool { return r.AppliedSeq() >= 10 })
	if r.Snapshots() != 1 {
		t.Fatalf("Snapshots = %d, want 1 (gen 0 ≠ 1 forces resync)", r.Snapshots())
	}
	// Now tail live groups, including deletes.
	s.put("live", "yes")
	s.apply([]kv.Op{{Kind: kv.OpDelete, Key: []byte("pre3")}})
	waitUntil(t, "tail caught up", func() bool { return a.position() == s.log.LastSeq() })
	if !mapsEqual(a.snapshot(), s.snapshot()) {
		t.Fatalf("replica %v != primary %v", a.snapshot(), s.snapshot())
	}
	waitUntil(t, "ack caught up", func() bool { return p.Lag() == 0 })
}

// TestResumeFromPosition: a replica whose position the log still covers
// tails directly — no snapshot transfer.
func TestResumeFromPosition(t *testing.T) {
	s := newFakePrimaryState(64)
	p, addr := startPrimary(t, s)
	for i := 0; i < 5; i++ {
		s.put(fmt.Sprintf("k%d", i), "v1")
	}
	a := newMemApplier()
	a.pos, a.gen = 3, 1 // pretend groups 1..3 were applied in a prior session
	for i := 0; i < 3; i++ {
		a.data[fmt.Sprintf("k%d", i)] = "v1"
	}
	r := startReplica(t, addr, a, nil)
	waitUntil(t, "resume caught up", func() bool { return a.position() == s.log.LastSeq() })
	if r.Snapshots() != 0 || p.Snapshots() != 0 {
		t.Fatalf("resume took a snapshot (replica %d, primary %d)", r.Snapshots(), p.Snapshots())
	}
	if !mapsEqual(a.snapshot(), s.snapshot()) {
		t.Fatalf("replica %v != primary %v", a.snapshot(), s.snapshot())
	}
}

// TestTrimmedLogForcesSnapshot: a replica positioned before the log's
// retained window resyncs via snapshot instead of hanging.
func TestTrimmedLogForcesSnapshot(t *testing.T) {
	s := newFakePrimaryState(4) // tiny window
	p, addr := startPrimary(t, s)
	for i := 0; i < 20; i++ {
		s.put(fmt.Sprintf("k%02d", i), "v")
	}
	a := newMemApplier()
	a.pos, a.gen = 2, 1 // long fallen off the 4-group window
	startReplica(t, addr, a, nil)
	waitUntil(t, "snapshot resync", func() bool { return a.position() == s.log.LastSeq() })
	if p.Snapshots() == 0 {
		t.Fatal("expected a snapshot transfer for a trimmed position")
	}
	if !mapsEqual(a.snapshot(), s.snapshot()) {
		t.Fatalf("replica %v != primary %v", a.snapshot(), s.snapshot())
	}
}

// TestGenerationMismatchForcesSnapshot: after the primary's generation
// bumps (crash recovery rolled back streamed groups), a reconnecting
// replica is resynced even though its sequence looks plausible.
func TestGenerationMismatchForcesSnapshot(t *testing.T) {
	s := newFakePrimaryState(64)
	p, addr := startPrimary(t, s)
	for i := 0; i < 5; i++ {
		s.put(fmt.Sprintf("k%d", i), "v")
	}
	a := newMemApplier()
	a.pos, a.gen = 5, 1
	// Simulate the primary crashing: gen bump + log clear; replica state
	// diverges (holds a key the primary rolled back).
	a.data["rolled-back"] = "ghost"
	s.mu.Lock()
	s.gen = 2
	s.mu.Unlock()
	s.log.Clear()
	s.put("after-crash", "v2")

	startReplica(t, addr, a, nil)
	waitUntil(t, "gen resync", func() bool { return mapsEqual(a.snapshot(), s.snapshot()) })
	if p.Snapshots() == 0 {
		t.Fatal("expected snapshot on generation mismatch")
	}
	if g := a.generation(); g != 2 {
		t.Fatalf("replica gen = %d, want 2", g)
	}
	if _, ok := a.snapshot()["rolled-back"]; ok {
		t.Fatal("divergent key survived the resync")
	}
}

// TestWaitDurable: the sync-mode fence — WaitDurable returns only after the
// replica applied through seq and ran its durability barrier.
func TestWaitDurable(t *testing.T) {
	s := newFakePrimaryState(64)
	p, addr := startPrimary(t, s)
	a := newMemApplier()
	startReplica(t, addr, a, nil)
	waitUntil(t, "replica attached", func() bool { return p.Replicas() == 1 })

	seq := s.put("durable-key", "v")
	if err := p.WaitDurable(seq, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	fences, pos := a.fences, a.pos
	a.mu.Unlock()
	if fences == 0 {
		t.Fatal("WaitDurable returned without the replica fencing")
	}
	if pos < seq {
		t.Fatalf("durable ack at pos %d before seq %d was applied", pos, seq)
	}
	// Caught-up fence: no new groups, fence alone round-trips.
	if err := p.WaitDurable(seq, 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestWaitDurableNoReplica: sync mode fails loudly, not silently, when no
// replica is attached or the ack never comes.
func TestWaitDurableNoReplica(t *testing.T) {
	s := newFakePrimaryState(64)
	p, _ := startPrimary(t, s)
	seq := s.put("k", "v")
	if err := p.WaitDurable(seq, 100*time.Millisecond); err == nil {
		t.Fatal("WaitDurable succeeded with no replica")
	}
}

// TestNetfaultLossyStreamHeals: every write-side fault the netfault wrapper
// can inject (drops, partials, severs, delays) ends, at worst, in a
// reconnect from the recorded position; the replica always converges and
// never holds a torn state. Seeds are fixed — failures replay exactly.
func TestNetfaultLossyStreamHeals(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := newFakePrimaryState(1024)
			_, addr := startPrimary(t, s)
			a := newMemApplier()
			dial := netfault.Dialer(func() netfault.Policy {
				return netfault.NewRandomPolicy(seed, netfault.Probs{Drop: 0.05, Delay: 0.05, Partial: 0.03, Sever: 0.02})
			})
			r := startReplica(t, addr, a, dial)
			for i := 0; i < 300; i++ {
				s.put(fmt.Sprintf("k%03d", i%50), fmt.Sprintf("v%d", i))
				if i%10 == 0 {
					time.Sleep(time.Millisecond) // let faults interleave
				}
			}
			waitUntil(t, "lossy stream convergence", func() bool {
				return a.position() == s.log.LastSeq() && mapsEqual(a.snapshot(), s.snapshot())
			})
			t.Logf("seed %d: reconnects=%d snapshots=%d", seed, r.Reconnects(), r.Snapshots())
		})
	}
}

// TestPrimarySeverForcesReconnect: Sever drops sessions; replicas come back
// on their own and resume.
func TestPrimarySeverForcesReconnect(t *testing.T) {
	s := newFakePrimaryState(64)
	p, addr := startPrimary(t, s)
	a := newMemApplier()
	r := startReplica(t, addr, a, nil)
	waitUntil(t, "attached", func() bool { return p.Replicas() == 1 })
	s.put("before", "v")
	waitUntil(t, "caught up", func() bool { return a.position() == s.log.LastSeq() })

	p.Sever()
	s.put("after", "v")
	waitUntil(t, "reconnected and resumed", func() bool {
		return a.position() == s.log.LastSeq() && mapsEqual(a.snapshot(), s.snapshot())
	})
	if r.Reconnects() == 0 {
		t.Fatal("expected a reconnect after Sever")
	}
}

// TestLogTrimAndCovers: the ring honors its cap and Covers tracks the
// retained window exactly.
func TestLogTrimAndCovers(t *testing.T) {
	l := NewLog(3)
	if !l.Covers(0) {
		t.Fatal("empty log must cover position 0")
	}
	for i := 1; i <= 5; i++ {
		l.Append([]kv.Op{{Kind: kv.OpDelete, Key: []byte{byte(i)}}})
	}
	if l.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d", l.LastSeq())
	}
	// Retained window is [3,5]: positions 2..5 are serveable (next wanted
	// group ≥ 3), positions 0..1 are not.
	for pos := uint64(0); pos <= 5; pos++ {
		want := pos >= 2
		if l.Covers(pos) != want {
			t.Fatalf("Covers(%d) = %v, want %v", pos, l.Covers(pos), want)
		}
	}
	gs, ok := l.WaitFrom(3, nil, 10, nil)
	if !ok || len(gs) != 3 || gs[0].Seq != 3 {
		t.Fatalf("WaitFrom(3) = %d groups ok=%v", len(gs), ok)
	}
	if _, ok := l.WaitFrom(2, nil, 10, nil); ok {
		t.Fatal("WaitFrom(2) served a trimmed position")
	}
	l.Clear()
	if l.Covers(4) {
		t.Fatal("Clear left old positions covered")
	}
	if !l.Covers(5) {
		t.Fatal("a caught-up replica (pos = LastSeq) must stay covered after Clear")
	}
}
