package kv

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crafty/internal/core"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// TestCrashRecovery is the store's end-to-end crash-consistency proof: a
// multi-threaded mixed workload (inserts, versioned updates, deletes) runs
// over Crafty with persistence tracking on, a crash is injected with an
// adversarial random policy (each unflushed word survives with probability
// 0.5, maximizing torn multi-word state), engine recovery rolls the heap back
// to a consistent cut, and Reopen must then verify the whole index. Every
// surviving value must be one the workload actually wrote for that key —
// never a torn mix — and the reopened store must keep serving operations.
func TestCrashRecovery(t *testing.T) {
	for _, persistProb := range []float64{0.0, 0.5, 1.0} {
		persistProb := persistProb
		t.Run(fmt.Sprintf("persist=%.1f", persistProb), func(t *testing.T) {
			testCrashRecovery(t, persistProb)
		})
	}
}

func testCrashRecovery(t *testing.T, persistProb float64) {
	heap := nvm.NewHeap(nvm.Config{
		Words:            1 << 23,
		PersistLatency:   nvm.NoLatency,
		TrackPersistence: true,
	})
	cfg := core.Config{ArenaWords: 1 << 21}
	eng, err := core.NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := eng.Layout()
	setup := eng.Register()
	s, err := Create(eng, setup, Config{Shards: 8, InitialSlotsPerShard: 16})
	if err != nil {
		t.Fatal(err)
	}

	// Each worker owns a disjoint key range and records every value it
	// committed per key; small tables force rehashes mid-run so the crash can
	// land inside the rehash protocol too.
	const workers = 3
	const keysPerWorker = 120
	const opsPerWorker = 900
	written := make([]map[int][]string, workers) // key index -> committed values, in order
	deleted := make([]map[int]bool, workers)     // last committed op was a delete
	threads := make([]ptm.Thread, workers)
	threads[0] = setup
	for w := 1; w < workers; w++ {
		threads[w] = eng.Register()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		written[w] = make(map[int][]string)
		deleted[w] = make(map[int]bool)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			th := threads[w]
			for op := 0; op < opsPerWorker; op++ {
				k := rng.Intn(keysPerWorker)
				key := []byte(fmt.Sprintf("w%d-key%d", w, k))
				if rng.Intn(10) == 0 {
					if _, err := s.Delete(th, key); err != nil {
						errs[w] = err
						return
					}
					deleted[w][k] = true
					continue
				}
				val := fmt.Sprintf("w%d-key%d-v%d", w, k, op)
				if err := s.Put(th, key, []byte(val)); err != nil {
					errs[w] = err
					return
				}
				written[w][k] = append(written[w][k], val)
				deleted[w][k] = false
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Power failure: the adversary decides which unflushed words reached
	// media, then the engine-level recovery rolls back every sequence that
	// might correspond to partially persisted writes.
	root := s.Root()
	heap.Crash(nvm.NewRandomPolicy(42, persistProb))
	report, err := core.Recover(heap, layout)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	eng2, err := core.Open(heap, layout, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	eng2.AdvanceClock(report.MaxTimestamp)

	// Reopen verifies the whole index and rebuilds the allocator.
	s2, err := Reopen(eng2, root)
	if err != nil {
		t.Fatalf("reopen after crash (recovery rolled back %d sequences): %v",
			report.SequencesRolledBack, err)
	}
	checkArenaAccounting(t, eng2)

	// Every surviving value must be one that was actually committed for its
	// key: recovery may roll back whole recent transactions (restoring an
	// older value or removing an inserted key) but must never tear one.
	th2 := eng2.Register()
	var intact, rolledBack int
	for w := 0; w < workers; w++ {
		for k := 0; k < keysPerWorker; k++ {
			key := []byte(fmt.Sprintf("w%d-key%d", w, k))
			v, ok, err := s2.Get(th2, key, nil)
			if err != nil {
				t.Fatal(err)
			}
			history := written[w][k]
			if !ok {
				// Absent is consistent: never inserted, deleted, or every
				// insert rolled back.
				rolledBack++
				continue
			}
			found := false
			for _, h := range history {
				if h == string(v) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("key %s holds %q, which was never committed (history %v)", key, v, history)
			}
			if len(history) > 0 && string(v) == history[len(history)-1] && !deleted[w][k] {
				intact++
			} else {
				rolledBack++
			}
		}
	}
	t.Logf("persist=%.1f: %d sequences rolled back by recovery; %d keys at last value, %d rolled back/absent",
		persistProb, report.SequencesRolledBack, intact, rolledBack)

	// The reopened store must keep working: new inserts, updates of
	// survivors, deletes, and a final verify.
	for i := 0; i < 200; i++ {
		if err := s2.Put(th2, []byte(fmt.Sprintf("post-%d", i)), []byte(fmt.Sprintf("pv%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		v, ok, err := s2.Get(th2, []byte(fmt.Sprintf("post-%d", i)), nil)
		if err != nil || !ok || string(v) != fmt.Sprintf("pv%d", i) {
			t.Fatalf("post-crash insert %d = %q,%v,%v", i, v, ok, err)
		}
	}
	if _, err := s2.Verify(heap); err != nil {
		t.Fatalf("final verify: %v", err)
	}
}

// TestCrashDuringLoad crashes while a single thread is mid-bulk-load, which
// exercises recovery landing inside the zeroing and migration phases of the
// incremental rehash with high probability.
func TestCrashDuringLoad(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			heap := nvm.NewHeap(nvm.Config{
				Words:            1 << 22,
				PersistLatency:   nvm.NoLatency,
				TrackPersistence: true,
			})
			cfg := core.Config{ArenaWords: 1 << 20}
			eng, err := core.NewEngine(heap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			layout := eng.Layout()
			th := eng.Register()
			s, err := Create(eng, th, Config{Shards: 1, InitialSlotsPerShard: 16})
			if err != nil {
				t.Fatal(err)
			}
			// Stop at a load count chosen to sit near a table doubling.
			stop := 12*int(seed) + 380
			for i := 0; i < stop; i++ {
				if err := s.Put(th, []byte(fmt.Sprintf("load-%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			root := s.Root()
			heap.Crash(nvm.NewRandomPolicy(seed, 0.5))
			report, err := core.Recover(heap, layout)
			if err != nil {
				t.Fatal(err)
			}
			eng2, err := core.Open(heap, layout, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng2.Close()
			eng2.AdvanceClock(report.MaxTimestamp)
			s2, err := Reopen(eng2, root)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkArenaAccounting(t, eng2)
			// The surviving prefix must be contiguous in effect: each key is
			// either at its (only) written value or absent, and the store
			// still loads the rest.
			th2 := eng2.Register()
			for i := 0; i < stop; i++ {
				key := []byte(fmt.Sprintf("load-%d", i))
				v, ok, err := s2.Get(th2, key, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ok && string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("key %s torn: %q", key, v)
				}
				if err := s2.Put(th2, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s2.Verify(heap); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// arenaOfEngine digs the arena out of a core engine for occupancy checks.
func checkArenaAccounting(t *testing.T, eng *core.Engine) {
	t.Helper()
	st := eng.Arena().Stats()
	if st.LiveWords+st.FreeWords != st.UsedWords {
		t.Fatalf("arena leaked words after recovery: live %d + free %d != used %d",
			st.LiveWords, st.FreeWords, st.UsedWords)
	}
}

// TestCrashRecoveryLeakFreeCycles is the acceptance test for the
// crash-recoverable allocator: a fixed-key churn workload (updates and
// deletes, so blocks are freed constantly) runs through repeated
// crash/recover/Reopen cycles, and the arena's high-water mark must not grow
// across cycles — previously every cycle leaked all blocks that were free at
// the crash, so sustained operation eventually exhausted the arena.
func TestCrashRecoveryLeakFreeCycles(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{
		Words:            1 << 22,
		PersistLatency:   nvm.NoLatency,
		TrackPersistence: true,
	})
	cfg := core.Config{ArenaWords: 1 << 20}
	eng, err := core.NewEngine(heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	layout := eng.Layout()
	th := eng.Register()
	// Sized so the fixed key set never triggers a rehash: growth here must
	// come only from allocator leaks, which there must be none of.
	s, err := Create(eng, th, Config{Shards: 4, InitialSlotsPerShard: 256})
	if err != nil {
		t.Fatal(err)
	}
	root := s.Root()

	const keys = 200
	// Churn runs on the engine's one worker thread (the setup thread doubles
	// as the worker, so no idle thread's old last-logged sequence forces
	// recovery to rewind the whole run).
	churn := func(w ptm.Thread, st *Store, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 600; op++ {
			k := rng.Intn(keys)
			key := []byte(fmt.Sprintf("key-%04d", k))
			if rng.Intn(4) == 0 {
				if _, err := st.Delete(w, key); err != nil {
					t.Fatal(err)
				}
				continue
			}
			val := []byte(fmt.Sprintf("value-%04d-%08d-padding-to-fixed-len", k, op))
			if err := st.Put(w, key, val); err != nil {
				t.Fatal(err)
			}
		}
	}

	churn(th, s, 1)
	var used []int
	const cycles = 4
	for cycle := 0; cycle < cycles; cycle++ {
		heap.Crash(nvm.NewRandomPolicy(int64(1000+cycle), 0.5))
		report, err := core.Recover(heap, layout)
		if err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		eng2, err := core.Open(heap, layout, cfg)
		if err != nil {
			t.Fatalf("cycle %d: open: %v", cycle, err)
		}
		eng2.AdvanceClock(report.MaxTimestamp)
		s2, err := Reopen(eng2, root)
		if err != nil {
			t.Fatalf("cycle %d: reopen: %v", cycle, err)
		}
		checkArenaAccounting(t, eng2)
		used = append(used, eng2.Arena().Stats().UsedWords)
		churn(eng2.Register(), s2, int64(cycle+2))
		eng.Close()
		eng = eng2
	}
	t.Logf("arena high-water per cycle: %v words", used)
	// The first cycle may still be reaching the workload's steady-state peak;
	// from then on the high-water mark must not move at all — previously it
	// grew every cycle by everything free at that cycle's crash.
	if used[cycles-1] > used[1] {
		t.Fatalf("arena grew across crash/recovery cycles: %v", used)
	}
	eng.Close()
}

// TestCrashMidApplyLandsOnWholeGroups is the group-execution crash proof: a
// sequence of Apply batches runs with every batch's operations partitioned
// into per-shard groups in a fixed order, a RandomPolicy crash is injected,
// and recovery must land on a prefix of whole groups — every group's keys at
// one uniform batch version (all-or-nothing: a group is one transaction),
// with the fully-applied groups forming a prefix of the global group
// execution order — plus the standing zero-leak arena guarantee.
func TestCrashMidApplyLandsOnWholeGroups(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			heap := nvm.NewHeap(nvm.Config{
				Words:            1 << 22,
				PersistLatency:   nvm.NoLatency,
				TrackPersistence: true,
			})
			cfg := core.Config{ArenaWords: 1 << 20}
			eng, err := core.NewEngine(heap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			layout := eng.Layout()
			th := eng.Register()
			// Sized so the fixed key set never rehashes: every batch group
			// must be exactly one transaction (no per-op fallback).
			s, err := Create(eng, th, Config{Shards: 4, InitialSlotsPerShard: 256})
			if err != nil {
				t.Fatal(err)
			}

			// Partition a fixed key set by shard; the groups execute in
			// bucket order within every batch.
			const keys = 32
			buckets := make([][]string, s.Shards())
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("gkey-%02d", k)
				sh := s.ShardOf([]byte(key))
				buckets[sh] = append(buckets[sh], key)
			}
			var groupOrder []int // shards with keys, in execution order
			for sh, b := range buckets {
				if len(b) > 0 {
					groupOrder = append(groupOrder, sh)
				}
			}
			val := func(batch int) string { return fmt.Sprintf("batch-%03d-value", batch) }

			// Load version 0, then run batches 1..B through Apply.
			for _, sh := range groupOrder {
				for _, key := range buckets[sh] {
					if err := s.Put(th, []byte(key), []byte(val(0))); err != nil {
						t.Fatal(err)
					}
				}
			}
			const batches = 10
			var ops []Op
			var res []OpResult
			for b := 1; b <= batches; b++ {
				ops = ops[:0]
				for _, sh := range groupOrder {
					for _, key := range buckets[sh] {
						ops = append(ops, Op{Kind: OpPut, Key: []byte(key), Value: []byte(val(b))})
					}
				}
				var err error
				res, _, err = s.Apply(th, ops, res, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range res {
					if res[i].Err != nil {
						t.Fatalf("batch %d op %d: %v", b, i, res[i].Err)
					}
				}
			}

			root := s.Root()
			heap.Crash(nvm.NewRandomPolicy(seed, 0.5))
			report, err := core.Recover(heap, layout)
			if err != nil {
				t.Fatal(err)
			}
			eng2, err := core.Open(heap, layout, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng2.Close()
			eng2.AdvanceClock(report.MaxTimestamp)
			s2, err := Reopen(eng2, root)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkArenaAccounting(t, eng2)

			// Whole groups: every key of a group at the same version.
			th2 := eng2.Register()
			version := make([]int, len(groupOrder))
			for gi, sh := range groupOrder {
				groupVersion := -1
				for _, key := range buckets[sh] {
					v, ok, err := s2.Get(th2, []byte(key), nil)
					if err != nil || !ok {
						t.Fatalf("key %s lost: ok=%v err=%v", key, ok, err)
					}
					var got int
					if _, err := fmt.Sscanf(string(v), "batch-%03d-value", &got); err != nil {
						t.Fatalf("key %s torn: %q", key, v)
					}
					if groupVersion == -1 {
						groupVersion = got
					} else if got != groupVersion {
						t.Fatalf("group %d (shard %d) half-applied: key %s at batch %d, group at batch %d",
							gi, sh, key, got, groupVersion)
					}
				}
				version[gi] = groupVersion
			}

			// Prefix of whole groups: in execution order, versions are
			// non-increasing and span at most one batch boundary — the
			// applied group transactions are exactly a prefix of the global
			// (batch-major) group sequence.
			vmax, vmin := version[0], version[0]
			for gi := 1; gi < len(version); gi++ {
				if version[gi] > version[gi-1] {
					t.Fatalf("group versions %v not a prefix: group %d newer than group %d", version, gi, gi-1)
				}
				if version[gi] > vmax {
					vmax = version[gi]
				}
				if version[gi] < vmin {
					vmin = version[gi]
				}
			}
			if vmax-vmin > 1 {
				t.Fatalf("group versions %v span more than one batch: rollback was not a suffix", version)
			}
			t.Logf("seed %d: %d sequences rolled back; group versions %v", seed, report.SequencesRolledBack, version)

			// The reopened store keeps serving batched writes.
			ops = ops[:0]
			for _, sh := range groupOrder {
				for _, key := range buckets[sh] {
					ops = append(ops, Op{Kind: OpPut, Key: []byte(key), Value: []byte(val(batches + 1))})
				}
			}
			res, _, err = s2.Apply(th2, ops, res, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res {
				if res[i].Err != nil {
					t.Fatalf("post-crash batch op %d: %v", i, res[i].Err)
				}
			}
			if _, err := s2.Verify(heap); err != nil {
				t.Fatal(err)
			}
			checkArenaAccounting(t, eng2)
		})
	}
}

// TestCrashAfterDeleteBurst crashes immediately after a burst of deletes so
// the adversary can catch frees mid-flight: free-list header flips may have
// persisted for transactions recovery rolls back, and committed deletes'
// flips may be lost. Reopen's reconciliation must resolve both directions
// with zero leaked words.
func TestCrashAfterDeleteBurst(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			heap := nvm.NewHeap(nvm.Config{
				Words:            1 << 22,
				PersistLatency:   nvm.NoLatency,
				TrackPersistence: true,
			})
			cfg := core.Config{ArenaWords: 1 << 20}
			eng, err := core.NewEngine(heap, cfg)
			if err != nil {
				t.Fatal(err)
			}
			layout := eng.Layout()
			th := eng.Register()
			s, err := Create(eng, th, Config{Shards: 2, InitialSlotsPerShard: 16})
			if err != nil {
				t.Fatal(err)
			}
			const n = 150
			for i := 0; i < n; i++ {
				if err := s.Put(th, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("value-%03d-abcdefghijklmnopqrstuvwxyz", i))); err != nil {
					t.Fatal(err)
				}
			}
			// Delete every other key and crash with the frees in flight.
			for i := 0; i < n; i += 2 {
				if _, err := s.Delete(th, []byte(fmt.Sprintf("k%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			root := s.Root()
			heap.Crash(nvm.NewRandomPolicy(seed, 0.5))
			report, err := core.Recover(heap, layout)
			if err != nil {
				t.Fatal(err)
			}
			eng2, err := core.Open(heap, layout, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng2.Close()
			eng2.AdvanceClock(report.MaxTimestamp)
			s2, err := Reopen(eng2, root)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkArenaAccounting(t, eng2)

			th2 := eng2.Register()
			for i := 0; i < n; i++ {
				key := []byte(fmt.Sprintf("k%03d", i))
				v, ok, err := s2.Get(th2, key, nil)
				if err != nil {
					t.Fatal(err)
				}
				if ok && string(v) != fmt.Sprintf("value-%03d-abcdefghijklmnopqrstuvwxyz", i) {
					t.Fatalf("key %s torn: %q", key, v)
				}
				// Overwrite everything: reclaimed blocks must be safely
				// reusable whatever the crash did to the free lists.
				if err := s2.Put(th2, key, []byte(fmt.Sprintf("post-%03d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s2.Verify(heap); err != nil {
				t.Fatalf("final verify: %v", err)
			}
			checkArenaAccounting(t, eng2)
		})
	}
}
