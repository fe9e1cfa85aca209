package kv

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"crafty/internal/core"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// ckptHarness is one store on a Crafty engine with persistence tracking,
// plus the crash/recover/reopen plumbing the checkpoint tests share.
type ckptHarness struct {
	t      *testing.T
	heap   *nvm.Heap
	cfg    core.Config
	layout core.Layout
	eng    *core.Engine
	th     ptm.Thread
	s      *Store
	root   nvm.Addr
}

func newCkptHarness(t *testing.T, heapWords int, shards int) *ckptHarness {
	t.Helper()
	heap := nvm.NewHeap(nvm.Config{
		Words:            heapWords,
		PersistLatency:   nvm.NoLatency,
		TrackPersistence: true,
	})
	cfg := core.Config{ArenaWords: heapWords / 2}
	eng, err := core.NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := &ckptHarness{t: t, heap: heap, cfg: cfg, layout: eng.Layout(), eng: eng}
	h.th = eng.Register()
	s, err := Create(eng, h.th, Config{Shards: shards, InitialSlotsPerShard: 16})
	if err != nil {
		t.Fatal(err)
	}
	h.s, h.root = s, s.Root()
	return h
}

// quiesce syncs the harness thread's log, making everything it committed
// rollback-proof — the precondition for Checkpoint and for deterministic
// post-crash contents.
func (h *ckptHarness) quiesce() {
	h.t.Helper()
	if err := h.th.(interface{ SyncDurable() error }).SyncDurable(); err != nil {
		h.t.Fatal(err)
	}
}

func (h *ckptHarness) checkpoint() CheckpointReport {
	h.t.Helper()
	h.quiesce()
	rep, err := h.s.Checkpoint(h.eng)
	if err != nil {
		h.t.Fatalf("checkpoint: %v", err)
	}
	return rep
}

// crash injects a power failure and runs the engine-level recovery, leaving
// the harness ready for ReopenWith. The kv store handle is invalid after.
func (h *ckptHarness) crash(policy nvm.CrashPolicy) {
	h.t.Helper()
	h.eng.Close()
	h.heap.Crash(policy)
	report, err := core.Recover(h.heap, h.layout)
	if err != nil {
		h.t.Fatalf("recover: %v", err)
	}
	eng, err := core.Open(h.heap, h.layout, h.cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	eng.AdvanceClock(report.MaxTimestamp)
	h.eng = eng
	h.th = eng.Register()
	h.s = nil
}

func (h *ckptHarness) reopen(opts ReopenOptions) (*Store, ReopenReport) {
	h.t.Helper()
	s, rep, err := ReopenWith(h.eng, h.root, opts)
	if err != nil {
		h.t.Fatalf("reopen (opts %+v): %v", opts, err)
	}
	return s, rep
}

func (h *ckptHarness) put(k, v string) {
	h.t.Helper()
	if err := h.s.Put(h.th, []byte(k), []byte(v)); err != nil {
		h.t.Fatal(err)
	}
}

// expectAll checks every key in want against the store (value or absence).
func (h *ckptHarness) expectAll(s *Store, want map[string]string) {
	h.t.Helper()
	for k, v := range want {
		got, ok, err := s.Get(h.th, []byte(k), nil)
		if err != nil {
			h.t.Fatal(err)
		}
		if v == "" {
			if ok {
				h.t.Fatalf("key %s: got %q, want absent", k, got)
			}
			continue
		}
		if !ok || string(got) != v {
			h.t.Fatalf("key %s: got %q (present=%v), want %q", k, got, ok, v)
		}
	}
}

// TestCheckpointBoundsReopen is the bounded-recovery happy path: after a
// checkpoint, only the shards dirtied afterwards are verified at reopen, and
// the bounded reopen serves exactly the same state as a paranoid full one.
func TestCheckpointBoundsReopen(t *testing.T) {
	const shards = 32
	h := newCkptHarness(t, 1<<22, shards)
	want := map[string]string{}
	for i := 0; i < 600; i++ {
		k, v := fmt.Sprintf("base-%04d", i), fmt.Sprintf("val-%04d", i)
		h.put(k, v)
		want[k] = v
	}
	crep := h.checkpoint()
	if crep.Seq != 1 || crep.Epoch != 1 {
		t.Fatalf("first checkpoint: %+v", crep)
	}

	// Dirty a confined set of shards: only keys hashing to shards 0..3.
	dirtyShards := map[int]bool{}
	for i, n := 0, 0; n < 40; i++ {
		k := fmt.Sprintf("dirty-%04d", i)
		if sh := h.s.ShardOf([]byte(k)); sh < 4 {
			v := fmt.Sprintf("dv-%04d", i)
			h.put(k, v)
			want[k] = v
			dirtyShards[sh] = true
			n++
		}
	}
	h.quiesce()

	h.crash(nvm.NewRandomPolicy(7, 0.5))
	s2, rep := h.reopen(ReopenOptions{})
	if rep.FullVerify {
		t.Fatalf("bounded reopen fell back: %s", rep.FallbackReason)
	}
	if rep.WatermarkSeq != 1 || rep.WatermarkEpoch != 1 {
		t.Fatalf("wrong watermark used: %+v", rep)
	}
	if rep.VerifiedShards != len(dirtyShards) {
		t.Fatalf("verified %d shards, want the %d dirtied since the checkpoint", rep.VerifiedShards, len(dirtyShards))
	}
	h.expectAll(s2, want)

	// Equivalence: the paranoid reopen of the same heap sees the same state.
	s3, rep3 := h.reopen(ReopenOptions{Paranoid: true})
	if !rep3.FullVerify || rep3.VerifiedShards != shards {
		t.Fatalf("paranoid reopen: %+v", rep3)
	}
	h.expectAll(s3, want)
	checkArenaAccounting(t, h.eng)

	// The bounded-reopened store must keep serving writes and checkpoint
	// again (epoch resumed past every surviving stamp).
	h.s = s2
	for i := 0; i < 50; i++ {
		h.put(fmt.Sprintf("post-%d", i), "pv")
	}
	if rep := h.checkpoint(); rep.Seq != 2 {
		t.Fatalf("post-recovery checkpoint: %+v", rep)
	}
}

// TestCheckpointWorstCaseCrash crashes immediately after a checkpoint with
// persist probability 0 — every word the checkpoint left unfenced dies. The
// watermark write is explicitly drained, so the bounded path must survive
// with zero dirty shards and intact data.
func TestCheckpointWorstCaseCrash(t *testing.T) {
	h := newCkptHarness(t, 1<<21, 8)
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)
		h.put(k, v)
		want[k] = v
	}
	h.checkpoint()
	h.crash(nvm.NewRandomPolicy(11, 0))
	s2, rep := h.reopen(ReopenOptions{})
	if rep.FullVerify || rep.VerifiedShards != 0 {
		t.Fatalf("clean-checkpoint reopen did work: %+v", rep)
	}
	h.expectAll(s2, want)
	checkArenaAccounting(t, h.eng)
}

// TestTornWatermarkFallsBack corrupts the watermark slots every way a torn
// checkpoint write can — bad checksum on the newest slot, stale sequence,
// both slots destroyed — and checks recovery always lands on the previous
// watermark or the full verify, never a wrong answer.
func TestTornWatermarkFallsBack(t *testing.T) {
	const shards = 16
	seedStore := func(t *testing.T) (*ckptHarness, map[string]string) {
		h := newCkptHarness(t, 1<<21, shards)
		want := map[string]string{}
		for i := 0; i < 300; i++ {
			k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i)
			h.put(k, v)
			want[k] = v
		}
		h.checkpoint() // seq 1
		for i := 0; i < 60; i++ {
			k, v := fmt.Sprintf("mid-%03d", i), fmt.Sprintf("mv%03d", i)
			h.put(k, v)
			want[k] = v
		}
		h.checkpoint() // seq 2, the newest
		for i := 0; i < 30; i++ {
			k, v := fmt.Sprintf("late-%03d", i), fmt.Sprintf("lv%03d", i)
			h.put(k, v)
			want[k] = v
		}
		h.quiesce()
		return h, want
	}
	slotAddr := func(h *ckptHarness, s *Store, seq uint64) nvm.Addr {
		return s.ckptBase() + nvm.Addr(int(seq%ckptSlots)*nvm.WordsPerLine)
	}

	t.Run("newest-slot-torn", func(t *testing.T) {
		h, want := seedStore(t)
		// Tear the seq-2 slot (flip a payload word; its checksum no longer
		// matches): recovery must fall back to the seq-1 watermark, which
		// calls more shards dirty — strictly more verification, same answer.
		h.heap.Store(slotAddr(h, h.s, 2)+ckEntries, 0xdeadbeef)
		h.crash(nvm.PersistAll{})
		s2, rep := h.reopen(ReopenOptions{})
		if rep.FullVerify {
			t.Fatalf("fell back to full verify with an intact previous slot: %s", rep.FallbackReason)
		}
		if rep.WatermarkSeq != 1 {
			t.Fatalf("used watermark seq %d, want the surviving previous slot (1)", rep.WatermarkSeq)
		}
		h.expectAll(s2, want)
	})

	t.Run("stale-sequence", func(t *testing.T) {
		h, want := seedStore(t)
		// Rewind the newest slot to a stale copy of the older one (valid
		// checksum, seq 1): the reader takes the other slot only when its
		// sequence is higher; with both at seq 1 it still recovers on some
		// valid watermark and verifies everything dirtied past it.
		src, dst := slotAddr(h, h.s, 1), slotAddr(h, h.s, 2)
		for i := 0; i < nvm.WordsPerLine; i++ {
			h.heap.Store(dst+nvm.Addr(i), h.heap.Load(src+nvm.Addr(i)))
		}
		h.crash(nvm.PersistAll{})
		s2, rep := h.reopen(ReopenOptions{})
		if rep.FullVerify {
			t.Fatalf("fell back to full verify: %s", rep.FallbackReason)
		}
		if rep.WatermarkSeq != 1 {
			t.Fatalf("used watermark seq %d, want 1", rep.WatermarkSeq)
		}
		h.expectAll(s2, want)
	})

	t.Run("both-slots-torn", func(t *testing.T) {
		h, want := seedStore(t)
		h.heap.Store(slotAddr(h, h.s, 1)+ckSeq, 0)
		h.heap.Store(slotAddr(h, h.s, 2)+ckChecksum, 12345)
		h.crash(nvm.PersistAll{})
		s2, rep := h.reopen(ReopenOptions{})
		if !rep.FullVerify {
			t.Fatal("reopen trusted a torn watermark")
		}
		if rep.VerifiedShards != shards {
			t.Fatalf("full fallback verified %d/%d shards", rep.VerifiedShards, shards)
		}
		h.expectAll(s2, want)
		checkArenaAccounting(t, h.eng)
	})

	t.Run("shard-count-mismatch", func(t *testing.T) {
		h, want := seedStore(t)
		// A watermark from a differently-shaped store must not bound
		// anything. Rewrite the newest slot with a wrong shard count and a
		// matching checksum.
		base := slotAddr(h, h.s, 2)
		var payload [ckChecksum]uint64
		for i := range payload {
			payload[i] = h.heap.Load(base + nvm.Addr(i))
		}
		payload[ckShards] = uint64(shards * 2)
		for i, v := range payload {
			h.heap.Store(base+nvm.Addr(i), v)
		}
		h.heap.Store(base+ckChecksum, ckptChecksum(payload))
		h.crash(nvm.PersistAll{})
		s2, rep := h.reopen(ReopenOptions{})
		if !rep.FullVerify {
			t.Fatal("reopen trusted a watermark with the wrong shard count")
		}
		h.expectAll(s2, want)
	})
}

// TestCheckpointThenFreeRollback is the undo-logged-free adversarial case
// composed with the bounded reopen: deletes (arena frees) committed after
// the checkpoint but never synced may roll back whole at the crash. The
// restored block headers must then agree exactly with the dirty shards'
// reachable set — rollback un-flips the free's header — for every crash
// outcome the random policy produces.
func TestCheckpointThenFreeRollback(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newCkptHarness(t, 1<<21, 8)
			vals := map[string]string{}
			for i := 0; i < 240; i++ {
				k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("value-%03d-abcdefgh", i)
				h.put(k, v)
				vals[k] = v
			}
			h.checkpoint()

			// Unsynced churn: deletes and replacing puts, both of which free
			// blocks inside their transactions.
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 120; i++ {
				k := fmt.Sprintf("k%03d", rng.Intn(240))
				if rng.Intn(2) == 0 {
					if _, err := h.s.Delete(h.th, []byte(k)); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := h.s.Put(h.th, []byte(k), []byte(fmt.Sprintf("re-%03d", i))); err != nil {
						t.Fatal(err)
					}
				}
			}

			h.crash(nvm.NewRandomPolicy(seed*977, 0.5))
			s2, rep := h.reopen(ReopenOptions{})
			// The dirty shards must verify and their blocks must assert
			// against the rollback-restored headers; a fallback here would
			// mean the undo-logged frees left the header chain inexact.
			if rep.FullVerify {
				t.Fatalf("bounded reopen fell back after free rollback: %s", rep.FallbackReason)
			}
			checkArenaAccounting(t, h.eng)
			// Every key holds its checkpointed value, a post-checkpoint
			// value, or is absent (deleted) — never torn.
			for k, base := range vals {
				got, ok, err := s2.Get(h.th, []byte(k), nil)
				if err != nil {
					t.Fatal(err)
				}
				if ok && string(got) != base && len(got) < 3 {
					t.Fatalf("key %s torn after crash: %q", k, got)
				}
			}
			if _, err := s2.Verify(h.heap); err != nil {
				t.Fatalf("full verify disagrees with bounded reopen: %v", err)
			}
		})
	}
}

// TestVerifyFailureOnDirtyShardIsFatal: a corrupt dirty shard must fail the
// bounded reopen outright — masking real corruption behind the full-verify
// fallback (which would fail the same way, but later and less precisely) is
// exactly the wrong answer the torn-checkpoint tests exist to rule out.
func TestVerifyFailureOnDirtyShardIsFatal(t *testing.T) {
	h := newCkptHarness(t, 1<<21, 8)
	for i := 0; i < 200; i++ {
		h.put(fmt.Sprintf("k%03d", i), "v")
	}
	h.checkpoint()
	h.put("one-more", "v") // dirty at least one shard past the watermark
	h.quiesce()
	sh := h.s.ShardOf([]byte("one-more"))
	hdr := h.s.shardHeader(sh)
	h.crash(nvm.PersistAll{})
	h.heap.Store(hdr+shLive, h.heap.Load(hdr+shLive)+7) // corrupt the counter
	if _, _, err := ReopenWith(h.eng, h.root, ReopenOptions{}); err == nil {
		t.Fatal("bounded reopen accepted a corrupt dirty shard")
	}
}

// TestRecoveryScaling is the bounded-recovery acceptance measurement: two
// stores, one 16x the other, each checkpointed and then dirtied with a
// fixed-size dirty set (4 shards' worth of writes); the bounded reopen's
// wall time must not scale with store size. Dirtiness is tracked per shard,
// so "fixed dirty set" presumes fixed shard size — the shard count scales
// with capacity, exactly as a deployment sizes it — and recovery work is
// then O(dirty shards), independent of the store behind them. The ratio is
// asserted (loosely here, tightly in CI via RECOVERY_SMOKE=1) and logged.
func TestRecoveryScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery scaling measurement")
	}
	if raceEnabled {
		t.Skip("timing measurement is meaningless (and very slow) under the race detector")
	}
	measure := func(t *testing.T, baseKeys, shards, heapWords int) (time.Duration, ReopenReport) {
		h := newCkptHarness(t, heapWords, shards)
		for i := 0; i < baseKeys; i++ {
			h.put(fmt.Sprintf("base-%07d", i), fmt.Sprintf("value-%07d", i))
		}
		h.checkpoint()
		// The fixed dirty set: writes confined to 4 shards, the same number
		// of keys at every store size.
		for i, n := 0, 0; n < 64; i++ {
			k := fmt.Sprintf("dirty-%04d", i)
			if h.s.ShardOf([]byte(k)) < 4 {
				h.put(k, "dv")
				n++
			}
		}
		h.quiesce()
		h.crash(nvm.PersistAll{})
		// Take the fastest of a few runs: reopen is microseconds-scale, and
		// the first run pays one-off cache effects.
		var best time.Duration
		var rep ReopenReport
		for i := 0; i < 5; i++ {
			start := time.Now()
			_, r, err := ReopenWith(h.eng, h.root, ReopenOptions{})
			el := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if r.FullVerify {
				t.Fatalf("scaling measurement fell back to full verify: %s", r.FallbackReason)
			}
			if best == 0 || el < best {
				best, rep = el, r
			}
		}
		return best, rep
	}
	smallT, smallRep := measure(t, 4_000, 64, 1<<22)
	largeT, largeRep := measure(t, 64_000, 1024, 1<<25)
	ratio := float64(largeT) / float64(smallT)
	t.Logf("bounded reopen: small(4k keys)=%v verified %d/%d; large(64k keys)=%v verified %d/%d; ratio %.2f",
		smallT, smallRep.VerifiedShards, smallRep.Shards,
		largeT, largeRep.VerifiedShards, largeRep.Shards, ratio)

	// The CI smoke job asserts the acceptance bound; locally allow headroom
	// for noisy machines but still catch O(store) regressions (a linear
	// reopen would show ratio ~16).
	limit := 8.0
	if os.Getenv("RECOVERY_SMOKE") == "1" {
		limit = 2.0
	}
	if ratio > limit {
		t.Fatalf("bounded reopen scaled with store size: 16x store took %.1fx longer (limit %.1fx)", ratio, limit)
	}
}
