package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"crafty/internal/core"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
	"crafty/internal/redolog"
	"crafty/internal/undolog"
)

// applyStore builds a store over a Crafty engine with the given shard/slot
// geometry.
func applyStore(t testing.TB, cfg Config, engCfg core.Config) (*Store, *core.Engine, ptm.Thread) {
	t.Helper()
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 22, PersistLatency: nvm.NoLatency})
	if engCfg.ArenaWords == 0 {
		engCfg.ArenaWords = 1 << 20
	}
	eng, err := core.NewEngine(heap, engCfg)
	if err != nil {
		t.Fatal(err)
	}
	th := eng.Register()
	s, err := Create(eng, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, eng, th
}

func TestApplyMixedBatch(t *testing.T) {
	s, _, th := applyStore(t, Config{Shards: 4, InitialSlotsPerShard: 64}, core.Config{})
	if err := s.Put(th, []byte("pre"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: OpPut, Key: []byte("a"), Value: []byte("va")},
		{Kind: OpGet, Key: []byte("a")},                         // sees the same batch's put
		{Kind: OpGet, Key: []byte("missing")},                   // miss
		{Kind: OpPut, Key: []byte("pre"), Value: []byte("new")}, // update
		{Kind: OpDelete, Key: []byte("a")},
		{Kind: OpGet, Key: []byte("a")},       // deleted above (same shard group order)
		{Kind: OpDelete, Key: []byte("nope")}, // absent
		{Kind: OpPut, Key: []byte("b"), Value: []byte("vb")},
	}
	res, _, err := s.Apply(th, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ops) {
		t.Fatalf("%d results for %d ops", len(res), len(ops))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if !res[0].Found || !res[1].Found || string(res[1].Value) != "va" {
		t.Fatalf("batched get after put: %+v", res[1])
	}
	if res[2].Found || res[2].Value != nil {
		t.Fatalf("missing key: %+v", res[2])
	}
	if !res[4].Found {
		t.Fatal("delete of present key reported absent")
	}
	if res[5].Found {
		t.Fatalf("get after same-batch delete: %+v", res[5])
	}
	if res[6].Found {
		t.Fatal("delete of absent key reported present")
	}
	v, ok, err := s.Get(th, []byte("pre"), nil)
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("update through batch: %q %v %v", v, ok, err)
	}
	if _, ok, _ := s.Get(th, []byte("a"), nil); ok {
		t.Fatal("deleted key resurrected")
	}
	if v, ok, _ := s.Get(th, []byte("b"), nil); !ok || string(v) != "vb" {
		t.Fatalf("batched insert lost: %q %v", v, ok)
	}
}

// TestApplyInvalidOpFailsAlone checks static validation failures do not abort
// the rest of the batch.
func TestApplyInvalidOpFailsAlone(t *testing.T) {
	s, _, th := applyStore(t, Config{Shards: 2, InitialSlotsPerShard: 64}, core.Config{})
	ops := []Op{
		{Kind: OpPut, Key: []byte("k1"), Value: []byte("v1")},
		{Kind: OpPut, Key: nil, Value: []byte("v")}, // empty key
		{Kind: OpKind(9), Key: []byte("k")},         // unknown kind
		{Kind: OpPut, Key: []byte("k2"), Value: []byte("v2")},
	}
	res, _, err := s.Apply(th, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Err == nil || res[2].Err == nil {
		t.Fatalf("invalid ops not rejected: %v / %v", res[1].Err, res[2].Err)
	}
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("valid ops dragged down: %v / %v", res[0].Err, res[3].Err)
	}
	for _, k := range []string{"k1", "k2"} {
		if _, ok, _ := s.Get(th, []byte(k), nil); !ok {
			t.Fatalf("key %s missing after batch with invalid sibling", k)
		}
	}
}

// TestApplyAmortizesTransactions is the economy claim: a batch over few
// shards commits in one transaction per shard group, not one per op.
func TestApplyAmortizesTransactions(t *testing.T) {
	s, eng, th := applyStore(t, Config{Shards: 4, InitialSlotsPerShard: 256}, core.Config{})
	var ops []Op
	for i := 0; i < 32; i++ {
		ops = append(ops, Op{Kind: OpPut, Key: fmt.Appendf(nil, "key-%d", i), Value: []byte("value-0123456789")})
	}
	before := eng.Stats().Txns()
	res, _, err := s.Apply(th, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	txns := eng.Stats().Txns() - before
	if txns >= uint64(len(ops)) {
		t.Fatalf("batch of %d ops used %d transactions (no amortization)", len(ops), txns)
	}
	if txns < 4 {
		t.Fatalf("batch over 4 shards used %d transactions (grouping broken?)", txns)
	}
	t.Logf("32 ops over 4 shards: %d transactions", txns)
}

// TestApplySplitsOversizedGroups drives one shard with more write volume than
// the engine's per-transaction budget: Apply must split the group and still
// land every op.
func TestApplySplitsOversizedGroups(t *testing.T) {
	s, eng, th := applyStore(t, Config{Shards: 1, InitialSlotsPerShard: 1024}, core.Config{})
	budget := s.TxBudget()
	val := make([]byte, 128) // 17-word blocks: ~21 estimated writes per put
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	var ops []Op
	for i := 0; i < 64; i++ {
		ops = append(ops, Op{Kind: OpPut, Key: fmt.Appendf(nil, "key-%03d", i), Value: val})
	}
	before := eng.Stats().Txns()
	res, _, err := s.Apply(th, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	txns := int(eng.Stats().Txns() - before)
	wantMin := (64*opWriteCost(&ops[0]) + budget - 1) / budget
	if txns < wantMin {
		t.Fatalf("%d transactions for a %d-op single-shard batch, want >= %d (budget %d not enforced)",
			txns, len(ops), wantMin, budget)
	}
	if txns >= 64 {
		t.Fatalf("%d transactions: splitting degenerated to per-op", txns)
	}
	for i := 0; i < 64; i++ {
		v, ok, err := s.Get(th, fmt.Appendf(nil, "key-%03d", i), nil)
		if err != nil || !ok || string(v) != string(val) {
			t.Fatalf("key %d after split batch: ok=%v err=%v", i, ok, err)
		}
	}
	t.Logf("64 single-shard ops, budget %d: %d transactions", budget, txns)
}

// TestApplyOversizedOpFailsTyped sends one op whose write set cannot fit the
// engine's undo log at all: it must fail alone with ErrTxTooLarge (wrapped in
// the group abort), leaving the rest of the batch and the store intact.
func TestApplyOversizedOpFailsTyped(t *testing.T) {
	s, eng, th := applyStore(t, Config{Shards: 1, InitialSlotsPerShard: 64},
		core.Config{LogEntries: 256})
	huge := make([]byte, 8*400) // 401-word block: overflows a 256-entry log
	ops := []Op{
		{Kind: OpPut, Key: []byte("small-1"), Value: []byte("v1")},
		{Kind: OpPut, Key: []byte("huge"), Value: huge},
		{Kind: OpPut, Key: []byte("small-2"), Value: []byte("v2")},
	}
	res, _, err := s.Apply(th, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("small ops failed: %v / %v", res[0].Err, res[2].Err)
	}
	if !errors.Is(res[1].Err, ptm.ErrTxTooLarge) {
		t.Fatalf("oversized op error = %v, want ErrTxTooLarge", res[1].Err)
	}
	if _, ok, _ := s.Get(th, []byte("huge"), nil); ok {
		t.Fatal("oversized op published")
	}
	for _, k := range []string{"small-1", "small-2"} {
		if _, ok, _ := s.Get(th, []byte(k), nil); !ok {
			t.Fatalf("key %s lost to sibling's capacity failure", k)
		}
	}
	if _, err := s.Verify(eng.Heap()); err != nil {
		t.Fatal(err)
	}
}

// TestApplyFallsBackMidRehash drives a single-shard store across its rehash
// threshold and batches straight through the zeroing and migration phases:
// every batch must land (via the per-op fallback) and the index must verify.
func TestApplyFallsBackMidRehash(t *testing.T) {
	s, eng, th := applyStore(t, Config{Shards: 1, InitialSlotsPerShard: 16}, core.Config{})
	n := 0
	put := func(count int) {
		var ops []Op
		for i := 0; i < count; i++ {
			ops = append(ops, Op{Kind: OpPut, Key: fmt.Appendf(nil, "grow-%04d", n), Value: fmt.Appendf(nil, "value-%04d", n)})
			n++
		}
		res, _, err := s.Apply(th, ops, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("op %d of batch ending at %d: %v", i, n, r.Err)
			}
		}
	}
	// Batches of 8 against a 16-slot shard: the first batches fall back
	// because their inserts could cross the threshold, later ones batch once
	// the table has grown, and several land mid-rehash.
	for n < 600 {
		put(8)
	}
	for i := 0; i < n; i++ {
		v, ok, err := s.Get(th, fmt.Appendf(nil, "grow-%04d", i), nil)
		if err != nil || !ok || string(v) != fmt.Sprintf("value-%04d", i) {
			t.Fatalf("key %d after rehash-crossing batches: %q ok=%v err=%v", i, v, ok, err)
		}
	}
	if _, err := s.Verify(eng.Heap()); err != nil {
		t.Fatal(err)
	}
}

// TestApplyMatchesPerOpSemantics is the differential check: random batches of
// unique-key operations must leave the store exactly where the same
// operations applied individually leave a model map.
func TestApplyMatchesPerOpSemantics(t *testing.T) {
	s, eng, th := applyStore(t, Config{Shards: 8, InitialSlotsPerShard: 64}, core.Config{})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	var ops []Op
	var res []OpResult
	var dst []byte
	for round := 0; round < 60; round++ {
		ops = ops[:0]
		used := map[int]bool{}
		for len(ops) < 12 {
			k := rng.Intn(200)
			if used[k] {
				continue
			}
			used[k] = true
			key := fmt.Appendf(nil, "key-%03d", k)
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, Op{Kind: OpGet, Key: key})
			case 1:
				val := fmt.Appendf(nil, "val-%03d-%04d", k, round)
				ops = append(ops, Op{Kind: OpPut, Key: key, Value: val})
			case 2:
				ops = append(ops, Op{Kind: OpDelete, Key: key})
			}
		}
		var err error
		res, dst, err = s.Apply(th, ops, res, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		for i := range ops {
			key := string(ops[i].Key)
			if res[i].Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, res[i].Err)
			}
			switch ops[i].Kind {
			case OpGet:
				want, ok := model[key]
				if res[i].Found != ok || (ok && string(res[i].Value) != want) {
					t.Fatalf("round %d: get %s = %q/%v, model %q/%v", round, key, res[i].Value, res[i].Found, want, ok)
				}
			case OpPut:
				model[key] = string(ops[i].Value)
			case OpDelete:
				_, ok := model[key]
				if res[i].Found != ok {
					t.Fatalf("round %d: delete %s found=%v, model %v", round, key, res[i].Found, ok)
				}
				delete(model, key)
			}
		}
	}
	for key, want := range model {
		v, ok, err := s.Get(th, []byte(key), nil)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("final %s = %q/%v/%v, want %q", key, v, ok, err, want)
		}
	}
	if n, err := s.Len(th); err != nil || n != uint64(len(model)) {
		t.Fatalf("Len = %d/%v, model %d", n, err, len(model))
	}
	if _, err := s.Verify(eng.Heap()); err != nil {
		t.Fatal(err)
	}
}

// TestApplyWriteCombining checks the duplicate-key rules: a put directly
// superseded by a later put is elided, but an intervening read or delete of
// the same key keeps it.
func TestApplyWriteCombining(t *testing.T) {
	s, eng, th := applyStore(t, Config{Shards: 1, InitialSlotsPerShard: 64}, core.Config{})
	key := []byte("dup")
	other := []byte("other")
	ops := []Op{
		{Kind: OpPut, Key: key, Value: []byte("v1")},   // superseded? no: get in between
		{Kind: OpGet, Key: key},                        // must see v1
		{Kind: OpPut, Key: key, Value: []byte("v2")},   // superseded by v3 (nothing between)
		{Kind: OpPut, Key: other, Value: []byte("ov")}, // different key, irrelevant
		{Kind: OpPut, Key: key, Value: []byte("v3")},   // superseded? no: delete after
		{Kind: OpDelete, Key: key},                     // must delete v3
		{Kind: OpPut, Key: key, Value: []byte("v4")},   // final
		{Kind: OpGet, Key: key},                        // must see v4
	}
	res, _, err := s.Apply(th, ops, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if !res[1].Found || string(res[1].Value) != "v1" {
		t.Fatalf("get between puts saw %q/%v, want v1", res[1].Value, res[1].Found)
	}
	if !res[5].Found {
		t.Fatal("delete after put reported absent")
	}
	if !res[7].Found || string(res[7].Value) != "v4" {
		t.Fatalf("final get saw %q/%v, want v4", res[7].Value, res[7].Found)
	}
	if v, ok, _ := s.Get(th, key, nil); !ok || string(v) != "v4" {
		t.Fatalf("final state %q/%v, want v4", v, ok)
	}
	if v, ok, _ := s.Get(th, other, nil); !ok || string(v) != "ov" {
		t.Fatalf("other key %q/%v, want ov", v, ok)
	}
	if _, err := s.Verify(eng.Heap()); err != nil {
		t.Fatal(err)
	}
}

// TestApplyInPlaceUpdateKeepsArenaFlat checks the in-place update path: a
// same-footprint update allocates nothing, so steady-state update churn keeps
// the arena's live set and high-water mark flat.
func TestApplyInPlaceUpdateKeepsArenaFlat(t *testing.T) {
	s, eng, th := applyStore(t, Config{Shards: 2, InitialSlotsPerShard: 64}, core.Config{})
	for i := 0; i < 16; i++ {
		if err := s.Put(th, fmt.Appendf(nil, "key-%02d", i), []byte("value-00-padded-to-len")); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.Arena().Stats()
	var ops []Op
	var res []OpResult
	for round := 0; round < 20; round++ {
		ops = ops[:0]
		for i := 0; i < 16; i++ {
			ops = append(ops, Op{Kind: OpPut, Key: fmt.Appendf(nil, "key-%02d", i), Value: fmt.Appendf(nil, "value-%02d-padded-to-len", round)})
		}
		var err error
		res, _, err = s.Apply(th, ops, res, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Err != nil {
				t.Fatal(res[i].Err)
			}
		}
	}
	after := eng.Arena().Stats()
	if after.LiveWords != before.LiveWords {
		t.Fatalf("live words %d -> %d across in-place updates", before.LiveWords, after.LiveWords)
	}
	if after.UsedWords != before.UsedWords {
		t.Fatalf("high-water %d -> %d across in-place updates", before.UsedWords, after.UsedWords)
	}
	for i := 0; i < 16; i++ {
		v, ok, err := s.Get(th, fmt.Appendf(nil, "key-%02d", i), nil)
		if err != nil || !ok || string(v) != "value-19-padded-to-len" {
			t.Fatalf("key %d = %q/%v/%v", i, v, ok, err)
		}
	}
	if _, err := s.Verify(eng.Heap()); err != nil {
		t.Fatal(err)
	}
}

// TestApplyRunsOnLoggingEngines checks the batch path is engine-neutral: the
// same batches over the classic logging engines.
func TestApplyRunsOnLoggingEngines(t *testing.T) {
	build := func(name string) (ptm.Engine, error) {
		heap := nvm.NewHeap(nvm.Config{Words: 1 << 21, PersistLatency: nvm.NoLatency})
		if name == "undolog" {
			return undolog.NewEngine(heap, undolog.Config{ArenaWords: 1 << 19})
		}
		return redolog.NewEngine(heap, redolog.Config{ArenaWords: 1 << 19})
	}
	for _, name := range []string{"undolog", "redolog"} {
		t.Run(name, func(t *testing.T) {
			eng, err := build(name)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			th := eng.Register()
			s, err := Create(eng, th, Config{Shards: 4, InitialSlotsPerShard: 64})
			if err != nil {
				t.Fatal(err)
			}
			var ops []Op
			for i := 0; i < 24; i++ {
				ops = append(ops, Op{Kind: OpPut, Key: fmt.Appendf(nil, "k%02d", i), Value: fmt.Appendf(nil, "v%02d", i)})
			}
			res, _, err := s.Apply(th, ops, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("op %d: %v", i, r.Err)
				}
			}
			for i := 0; i < 24; i++ {
				v, ok, err := s.Get(th, fmt.Appendf(nil, "k%02d", i), nil)
				if err != nil || !ok || string(v) != fmt.Sprintf("v%02d", i) {
					t.Fatalf("%s: key %d = %q/%v/%v", name, i, v, ok, err)
				}
			}
		})
	}
}

// TestApplyAllocFree pins the steady-state batch hot path at zero Go
// allocations: reused op, result, and value buffers, pooled run state, and
// pre-bound transaction bodies.
func TestApplyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, _, th := applyStore(t, Config{Shards: 4, InitialSlotsPerShard: 256}, core.Config{})
	const batch = 16
	keys := make([][]byte, batch)
	vals := make([][]byte, batch)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "user%d", i*7)
		vals[i] = fmt.Appendf(nil, "value-%d-0123456789abcdef", i)
		if err := s.Put(th, keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	ops := make([]Op, batch)
	var res []OpResult
	var dst []byte
	round := uint64(0)
	run := func() {
		round++
		for i := range ops {
			if i%2 == 0 {
				ops[i] = Op{Kind: OpPut, Key: keys[i], Value: vals[i]}
			} else {
				ops[i] = Op{Kind: OpGet, Key: keys[i]}
			}
		}
		var err error
		res, dst, err = s.Apply(th, ops, res, dst[:0])
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Err != nil {
				t.Fatal(res[i].Err)
			}
		}
	}
	run() // warm the pool and grow every buffer
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("Apply hot path allocates %v times per batch, want 0", allocs)
	}
}
