package core

import (
	"testing"

	"crafty/internal/obstest"
)

// TestObsOverheadSmoke (OBS_SMOKE=1) reruns the instrumented read-path
// microbenchmarks and holds their allocations per op to the committed
// BENCH_obs.json counts, exactly (they are deterministic across machines):
// an instrument leaking onto a hot path shows up as an allocation. See
// internal/obstest for the gate semantics.
func TestObsOverheadSmoke(t *testing.T) {
	obstest.Gate(t, map[string]func(*testing.B){
		"core/ReadPathAtomic":     BenchmarkReadPathAtomic,
		"core/ReadPathAtomicRead": BenchmarkReadPathAtomicRead,
	})
}
