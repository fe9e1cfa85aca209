package kv

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crafty/internal/core"
	"crafty/internal/nondurable"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// newNonDurable builds a fast engine for logic tests.
func newNonDurable(t *testing.T, heapWords, arenaWords int) (ptm.Engine, *nvm.Heap) {
	t.Helper()
	heap := nvm.NewHeap(nvm.Config{Words: heapWords, PersistLatency: nvm.NoLatency})
	eng, err := nondurable.NewEngine(heap, nondurable.Config{ArenaWords: arenaWords})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, heap
}

func mustCreate(t *testing.T, eng ptm.Engine, th ptm.Thread, cfg Config) *Store {
	t.Helper()
	s, err := Create(eng, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustVerify(t *testing.T, s *Store, heap *nvm.Heap) VerifyReport {
	t.Helper()
	rep, err := s.Verify(heap)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestPutGetDelete(t *testing.T) {
	eng, heap := newNonDurable(t, 1<<20, 1<<18)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 16})

	if _, ok, err := s.Get(th, []byte("missing"), nil); err != nil || ok {
		t.Fatalf("get of missing key: ok=%v err=%v", ok, err)
	}
	if err := s.Put(th, []byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(th, []byte("beta"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get(th, []byte("alpha"), nil)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("get alpha = %q, %v, %v", v, ok, err)
	}
	// Update in place, including a size change.
	if err := s.Put(th, []byte("alpha"), []byte("a much longer replacement value")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = s.Get(th, []byte("alpha"), v)
	if !ok || string(v) != "a much longer replacement value" {
		t.Fatalf("updated alpha = %q, %v", v, ok)
	}
	// Empty value is legal.
	if err := s.Put(th, []byte("gamma"), nil); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = s.Get(th, []byte("gamma"), nil)
	if !ok || len(v) != 0 {
		t.Fatalf("empty value = %q, %v", v, ok)
	}
	// Empty key is not.
	if err := s.Put(th, nil, []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}

	if ok, err := s.Delete(th, []byte("beta")); err != nil || !ok {
		t.Fatalf("delete beta: %v, %v", ok, err)
	}
	if ok, err := s.Delete(th, []byte("beta")); err != nil || ok {
		t.Fatalf("double delete reported present: %v, %v", ok, err)
	}
	if _, ok, _ := s.Get(th, []byte("beta"), nil); ok {
		t.Fatal("deleted key still present")
	}
	n, err := s.Len(th)
	if err != nil || n != 2 {
		t.Fatalf("len = %d, %v; want 2", n, err)
	}
	rep := mustVerify(t, s, heap)
	if rep.Entries != 2 {
		t.Fatalf("verify found %d entries, want 2", rep.Entries)
	}
}

// TestApplyAllGets checks the batched read path — an Apply batch of nothing
// but gets, the arm that serves each shard group in one AtomicRead: hits and
// misses interleaved in key order, values aliasing the shared destination
// buffer, a duplicate key, and batches larger than the shard count (so several
// keys share one shard's transaction).
func TestApplyAllGets(t *testing.T) {
	eng, _ := newNonDurable(t, 1<<21, 1<<19)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 64})

	const n = 64
	for i := 0; i < n; i++ {
		key := fmt.Appendf(nil, "key%03d", i)
		val := fmt.Appendf(nil, "value-%03d", i)
		if err := s.Put(th, key, val); err != nil {
			t.Fatal(err)
		}
	}

	var ops []Op
	for i := 0; i < n; i += 2 {
		ops = append(ops, Op{Kind: OpGet, Key: fmt.Appendf(nil, "key%03d", i)})  // present
		ops = append(ops, Op{Kind: OpGet, Key: fmt.Appendf(nil, "nope%03d", i)}) // absent
	}
	ops = append(ops, ops[0]) // duplicate key in one batch

	res, dst, err := s.Apply(th, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ops) {
		t.Fatalf("got %d results for %d keys", len(res), len(ops))
	}
	for i := range ops {
		key := ops[i].Key
		want := ""
		if string(key[:3]) == "key" {
			want = "value-" + string(key[3:])
		}
		switch {
		case res[i].Err != nil:
			t.Fatalf("key %q: %v", key, res[i].Err)
		case want == "" && (res[i].Found || res[i].Value != nil):
			t.Fatalf("key %q: got %q, want miss", key, res[i].Value)
		case want != "" && (!res[i].Found || string(res[i].Value) != want):
			t.Fatalf("key %q: got %q, want %q", key, res[i].Value, want)
		}
	}

	// Reusing the returned buffers must not change the results.
	res, _, err = s.Apply(th, ops[:4], res, dst[:0])
	if err != nil || len(res) != 4 {
		t.Fatalf("reused-buffer batch: %d results, err=%v", len(res), err)
	}
	if string(res[0].Value) != "value-000" || res[1].Found {
		t.Fatalf("reused-buffer batch: got %q, found=%v", res[0].Value, res[1].Found)
	}

	// An empty batch is legal.
	if res, _, err := s.Apply(th, nil, nil, nil); err != nil || len(res) != 0 {
		t.Fatalf("empty batch: %d results, err=%v", len(res), err)
	}
}

// TestApplyAllGetsMatchesGet cross-checks the all-gets Apply arm against
// repeated Get over a randomly populated store, on both a plain HTM engine
// and Crafty (whose read-only fast path serves each shard group in one
// hardware transaction).
func TestApplyAllGetsMatchesGet(t *testing.T) {
	engines := map[string]func(t *testing.T) ptm.Engine{
		"nondurable": func(t *testing.T) ptm.Engine {
			eng, _ := newNonDurable(t, 1<<21, 1<<19)
			return eng
		},
		"crafty": func(t *testing.T) ptm.Engine {
			heap := nvm.NewHeap(nvm.Config{Words: 1 << 21, PersistLatency: nvm.NoLatency})
			eng, err := core.NewEngine(heap, core.Config{ArenaWords: 1 << 19, LogEntries: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { eng.Close() })
			return eng
		},
	}
	for name, build := range engines {
		t.Run(name, func(t *testing.T) {
			eng := build(t)
			th := eng.Register()
			s := mustCreate(t, eng, th, Config{Shards: 8, InitialSlotsPerShard: 64})
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 200; i++ {
				if err := s.Put(th, fmt.Appendf(nil, "k%d", rng.Intn(300)), fmt.Appendf(nil, "v%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			var ops []Op
			for i := 0; i < 300; i++ {
				ops = append(ops, Op{Kind: OpGet, Key: fmt.Appendf(nil, "k%d", i)})
			}
			res, _, err := s.Apply(th, ops, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ops {
				key := ops[i].Key
				want, ok, err := s.Get(th, key, nil)
				if err != nil || res[i].Err != nil {
					t.Fatal(err, res[i].Err)
				}
				switch {
				case ok != res[i].Found:
					t.Fatalf("key %q: Apply found=%v (%q), Get found=%v", key, res[i].Found, res[i].Value, ok)
				case ok && string(res[i].Value) != string(want):
					t.Fatalf("key %q: Apply %q, Get %q", key, res[i].Value, want)
				}
			}
		})
	}
}

// TestGetAllocFree pins the single-key read at zero allocations: the lookup
// rides a pooled one-op apply state with its transaction body bound once,
// like Put and Delete, instead of a closure that escapes per call.
func TestGetAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	eng, _ := newNonDurable(t, 1<<21, 1<<19)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 64})
	key, miss := []byte("present"), []byte("absent")
	if err := s.Put(th, key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, 64)
	get := func() {
		var ok bool
		var err error
		if dst, ok, err = s.Get(th, key, dst); err != nil || !ok || string(dst) != "value" {
			t.Fatalf("Get = %q, %v, %v", dst, ok, err)
		}
		if dst, ok, err = s.Get(th, miss, dst); err != nil || ok || len(dst) != 0 {
			t.Fatalf("Get(absent) = %q, %v, %v", dst, ok, err)
		}
	}
	get()
	if allocs := testing.AllocsPerRun(200, get); allocs != 0 {
		t.Errorf("Get allocates %v per hit+miss pair, want 0", allocs)
	}
}

// TestRandomAgainstModel drives random puts, updates, deletes, and lookups
// against an in-memory model, with tables small enough that every shard
// rehashes several times.
func TestRandomAgainstModel(t *testing.T) {
	eng, heap := newNonDurable(t, 1<<22, 1<<21)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 2, InitialSlotsPerShard: 16})

	model := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	const keySpace = 600
	for op := 0; op < 6000; op++ {
		i := rng.Intn(keySpace)
		switch rng.Intn(10) {
		case 0, 1: // delete
			ok, err := s.Delete(th, key(i))
			if err != nil {
				t.Fatal(err)
			}
			_, want := model[string(key(i))]
			if ok != want {
				t.Fatalf("op %d: delete(%s) = %v, model says %v", op, key(i), ok, want)
			}
			delete(model, string(key(i)))
		case 2, 3, 4, 5: // put (variable-length values)
			val := fmt.Sprintf("value-%d-%s", op, string(make([]byte, rng.Intn(64))))
			if err := s.Put(th, key(i), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[string(key(i))] = val
		default: // get
			v, ok, err := s.Get(th, key(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, exists := model[string(key(i))]
			if ok != exists || (ok && string(v) != want) {
				t.Fatalf("op %d: get(%s) = %q,%v; model %q,%v", op, key(i), v, ok, want, exists)
			}
		}
	}
	if rep := mustVerify(t, s, heap); rep.Entries != uint64(len(model)) {
		t.Fatalf("verify found %d entries, model has %d", rep.Entries, len(model))
	}
	n, _ := s.Len(th)
	if n != uint64(len(model)) {
		t.Fatalf("Len = %d, model has %d", n, len(model))
	}
	for k, want := range model {
		v, ok, err := s.Get(th, []byte(k), nil)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("final get(%s) = %q,%v,%v; want %q", k, v, ok, err, want)
		}
	}
}

// TestRehashGrowth forces a single shard through multiple doublings and
// checks the rehash runs to completion (no shard left mid-migration once
// enough mutating operations have passed).
func TestRehashGrowth(t *testing.T) {
	eng, heap := newNonDurable(t, 1<<22, 1<<21)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 1, InitialSlotsPerShard: 16})

	const keys = 2000
	for i := 0; i < keys; i++ {
		if err := s.Put(th, []byte(fmt.Sprintf("grow-%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < keys; i++ {
		v, ok, err := s.Get(th, []byte(fmt.Sprintf("grow-%d", i)), nil)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get grow-%d = %q,%v,%v", i, v, ok, err)
		}
	}
	rep := mustVerify(t, s, heap)
	if rep.Entries != keys {
		t.Fatalf("verify found %d entries, want %d", rep.Entries, keys)
	}
	hdr := s.shardHeader(0)
	if slots := heap.Load(hdr + shSlots); slots < 2*keys/loadDen {
		t.Fatalf("table never grew: %d slots for %d keys", slots, keys)
	}
	// Updates are mutating operations, so they drain any in-flight rehash.
	for i := 0; i < 600; i++ {
		if err := s.Put(th, []byte("grow-0"), []byte("vv")); err != nil {
			t.Fatal(err)
		}
	}
	if heap.Load(hdr+shOld) != 0 || heap.Load(hdr+shPending) != 0 {
		t.Fatal("rehash still in flight after 600 mutating operations")
	}
	mustVerify(t, s, heap)
}

// TestScan checks ScanTx visits live entries and honors the limit.
func TestScan(t *testing.T) {
	eng, _ := newNonDurable(t, 1<<20, 1<<18)
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 1, InitialSlotsPerShard: 64})
	for i := 0; i < 20; i++ {
		if err := s.Put(th, []byte(fmt.Sprintf("s%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var seen int
	if err := th.Atomic(func(tx ptm.Tx) error {
		_, seen = s.ScanTx(tx, []byte("s3"), 8, nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 8 {
		t.Fatalf("scan visited %d entries, want 8", seen)
	}
}

// TestConcurrent hammers the store from several goroutines over Crafty
// (disjoint key ranges plus a shared hot set) and verifies the index.
func TestConcurrent(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 23, PersistLatency: nvm.NoLatency})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: 1 << 21})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	setup := eng.Register()
	s := mustCreate(t, eng, setup, Config{Shards: 16, InitialSlotsPerShard: 16})

	const workers = 4
	const perWorker = 400
	var wg sync.WaitGroup
	errs := make([]error, workers)
	threads := make([]ptm.Thread, workers)
	threads[0] = setup
	for w := 1; w < workers; w++ {
		threads[w] = eng.Register()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := threads[w]
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%d-%d", w, i%100))
				if i%10 == 9 {
					key = []byte(fmt.Sprintf("hot-%d", i%7)) // shared contended keys
				}
				if err := s.Put(th, key, []byte(fmt.Sprintf("%d:%d", w, i))); err != nil {
					errs[w] = err
					return
				}
				if i%3 == 0 {
					if _, _, err := s.Get(th, key, nil); err != nil {
						errs[w] = err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	rep := mustVerify(t, s, heap)
	// Each worker writes 90 private keys (the 10 i%10==9 iterations of every
	// hundred go to the shared hot set) plus 7 shared hot keys.
	if want := uint64(workers*90 + 7); rep.Entries != want {
		t.Fatalf("verify found %d entries, want %d", rep.Entries, want)
	}
}

// TestReopenWithoutCrash closes a Crafty engine, reattaches to the same heap,
// reopens the store, and keeps operating: adopted blocks must not be handed
// out again.
func TestReopenWithoutCrash(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 22, PersistLatency: nvm.NoLatency})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	layout := eng.Layout()
	th := eng.Register()
	s := mustCreate(t, eng, th, Config{Shards: 4, InitialSlotsPerShard: 16})
	for i := 0; i < 300; i++ {
		if err := s.Put(th, []byte(fmt.Sprintf("p%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	root := s.Root()
	eng.Close()

	eng2, err := core.Open(heap, layout, core.Config{ArenaWords: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	th2 := eng2.Register()
	s2, err := Reopen(eng2, root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		v, ok, err := s2.Get(th2, []byte(fmt.Sprintf("p%d", i)), nil)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("reopened get p%d = %q,%v,%v", i, v, ok, err)
		}
	}
	// New writes must not clobber adopted blocks.
	for i := 0; i < 300; i++ {
		if err := s2.Put(th2, []byte(fmt.Sprintf("q%d", i)), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if v, ok, _ := s2.Get(th2, []byte(fmt.Sprintf("p%d", i)), nil); !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("p%d corrupted after post-reopen writes: %q,%v", i, v, ok)
		}
	}
	mustVerify(t, s2, heap)
}

// TestReopenRejectsGarbage ensures Reopen fails cleanly on a heap with no
// store at the given root.
func TestReopenRejectsGarbage(t *testing.T) {
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 16, PersistLatency: nvm.NoLatency})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := Reopen(eng, heap.MustCarve(64)); err == nil {
		t.Fatal("Reopen accepted a heap without a store")
	}
}
