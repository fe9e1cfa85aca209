package kv

import (
	"testing"

	"crafty/internal/obstest"
)

// TestObsOverheadSmoke (OBS_SMOKE=1) reruns the instrumented kv hot-path
// microbenchmarks — the per-op read, the per-op write (whose pooled one-op
// state keeps the rehash-mask fold allocation-free), and the Apply batch
// path — and holds their allocations per op to the committed BENCH_obs.json
// counts. See internal/obstest for the gate semantics.
func TestObsOverheadSmoke(t *testing.T) {
	obstest.Gate(t, map[string]func(*testing.B){
		"kv/KVGet":            BenchmarkKVGet,
		"kv/KVPutPerOp":       BenchmarkKVPutPerOp,
		"kv/KVApplyUpdates16": BenchmarkKVApplyUpdates16,
	})
}
