package kv

import (
	"fmt"
	"testing"

	"crafty/internal/core"
	"crafty/internal/nvm"
	"crafty/internal/ptm"
)

// benchStore builds a populated store over a Crafty engine.
func benchStore(b *testing.B, records int) (*Store, ptm.Thread) {
	b.Helper()
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 22, PersistLatency: nvm.NoLatency})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: 1 << 20, LogEntries: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	th := eng.Register()
	s, err := Create(eng, th, Config{Shards: 16, InitialSlotsPerShard: 256})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := s.Put(th, fmt.Appendf(nil, "user%d", i), fmt.Appendf(nil, "value-%d-0123456789abcdef", i)); err != nil {
			b.Fatal(err)
		}
	}
	return s, th
}

// BenchmarkKVGetViaAtomic is the "before" of the KV read path: the same
// lookup body executed through the general Atomic machinery.
func BenchmarkKVGetViaAtomic(b *testing.B) {
	s, th := benchStore(b, 1024)
	key := []byte("user512")
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := th.Atomic(func(tx ptm.Tx) error {
			var ok bool
			dst, ok = s.GetTx(tx, key, dst[:0])
			if !ok {
				return fmt.Errorf("missing key")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVGet measures Store.Get, which runs on the read-only fast path
// (AtomicRead): with a reused destination buffer the steady state allocates
// nothing.
func BenchmarkKVGet(b *testing.B) {
	s, th := benchStore(b, 1024)
	key := []byte("user512")
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		var err error
		dst, ok, err = s.Get(th, key, dst[:0])
		if err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkKVLen measures the read-only shard-header sweep.
func BenchmarkKVLen(b *testing.B) {
	s, th := benchStore(b, 1024)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := s.Len(th)
		if err != nil {
			b.Fatal(err)
		}
		sink += n
	}
	_ = sink
}

// benchStoreShards builds a populated store with an explicit shard count for
// the write-batching benchmarks (fewer shards = more ops per group commit, as
// a server routing same-shard traffic to one queue achieves).
func benchStoreShards(b *testing.B, records, shards int) (*Store, ptm.Thread) {
	b.Helper()
	heap := nvm.NewHeap(nvm.Config{Words: 1 << 22, PersistLatency: nvm.NoLatency})
	eng, err := core.NewEngine(heap, core.Config{ArenaWords: 1 << 21, LogEntries: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	th := eng.Register()
	s, err := Create(eng, th, Config{Shards: shards, InitialSlotsPerShard: 1024})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		if err := s.Put(th, fmt.Appendf(nil, "user%d", i), fmt.Appendf(nil, "value-%d-0123456789abcdef", i)); err != nil {
			b.Fatal(err)
		}
	}
	return s, th
}

// benchUpdateKeys pre-renders a deterministic YCSB-A-style update key
// sequence (every op an update of a loaded record) plus a reusable value.
func benchUpdateKeys(n, records int) ([][]byte, []byte) {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "user%d", (i*2654435761)%records)
	}
	return keys, []byte("value-update-0123456789abcdef")
}

// BenchmarkKVPutPerOp is the per-op write baseline: one durable transaction
// per update, the cost Store.Apply amortizes.
func BenchmarkKVPutPerOp(b *testing.B) {
	s, th := benchStoreShards(b, 1024, 4)
	keys, val := benchUpdateKeys(1024, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(th, keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/update")
}

// BenchmarkKVApplyUpdates16 drives the same update mix through Store.Apply in
// batches of 16 over a 4-shard store (~4 updates per group commit): each
// group pays one Log-phase HTM commit, one LOGGED/COMMITTED marker pair, and
// one batched flush for all its updates. The acceptance criterion is >= 1.5x
// BenchmarkKVPutPerOp's per-update throughput; the steady state allocates
// nothing (see TestApplyAllocFree).
func BenchmarkKVApplyUpdates16(b *testing.B) {
	benchApplyUpdates(b, 16)
}

// BenchmarkKVApplyUpdates64 is the same at batch 64 (~16 updates per group).
func BenchmarkKVApplyUpdates64(b *testing.B) {
	benchApplyUpdates(b, 64)
}

func benchApplyUpdates(b *testing.B, batch int) {
	s, th := benchStoreShards(b, 1024, 4)
	keys, val := benchUpdateKeys(1024, 1024)
	ops := make([]Op, batch)
	var res []OpResult
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = Op{Kind: OpPut, Key: keys[(i*batch+j)%len(keys)], Value: val}
		}
		var err error
		res, dst, err = s.Apply(th, ops, res, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/update")
}

// BenchmarkKVApplyMixedA16 batches a 50/50 get/update mix (YCSB A's shape)
// through Apply: reads ride the same group commits as the writes.
func BenchmarkKVApplyMixedA16(b *testing.B) {
	s, th := benchStoreShards(b, 1024, 4)
	keys, val := benchUpdateKeys(1024, 1024)
	const batch = 16
	ops := make([]Op, batch)
	var res []OpResult
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			if j%2 == 0 {
				ops[j] = Op{Kind: OpGet, Key: keys[(i*batch+j)%len(keys)]}
			} else {
				ops[j] = Op{Kind: OpPut, Key: keys[(i*batch+j)%len(keys)], Value: val}
			}
		}
		var err error
		res, dst, err = s.Apply(th, ops, res, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/op")
}
