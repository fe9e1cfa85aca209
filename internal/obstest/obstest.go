// Package obstest is the hot-path allocation gate: it reruns instrumented
// microbenchmarks and holds their allocations per op to the committed counts
// in BENCH_obs.json, exactly. Allocation counts are deterministic across
// machines, so an instrument (or anything else) that starts allocating on a
// hot path fails here on any runner — and so does a path that stops
// allocating while the file still says it does, which would otherwise let it
// slide back unnoticed. Wall-clock is not gated here: a number recorded on
// another machine gates nothing, and time is bench/run.sh's job.
package obstest

import (
	"encoding/json"
	"os"
	"testing"
)

// Baseline is one benchmark's committed record.
type Baseline struct {
	AllocsOp int64 `json:"allocs_op"`
}

// File is the part of BENCH_obs.json the gate reads; the file's other keys
// (when it was recorded, a note) are for people.
type File struct {
	Benchmarks map[string]Baseline `json:"benchmarks"`
}

// Gate runs each benchmark and fails the test unless its allocations per op
// equal the baseline's. Skipped unless OBS_SMOKE=1; OBS_BASELINE names the
// baseline file.
func Gate(t *testing.T, benches map[string]func(*testing.B)) {
	t.Helper()
	if os.Getenv("OBS_SMOKE") == "" {
		t.Skip("set OBS_SMOKE=1 (and OBS_BASELINE=/path/to/BENCH_obs.json) to run the hot-path allocation gate")
	}
	path := os.Getenv("OBS_BASELINE")
	if path == "" {
		t.Fatal("OBS_SMOKE=1 requires OBS_BASELINE to point at BENCH_obs.json")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	for name, fn := range benches {
		base, ok := f.Benchmarks[name]
		if !ok {
			t.Errorf("%s: no baseline in %s", name, path)
			continue
		}
		r := testing.Benchmark(fn)
		allocs := r.AllocsPerOp()
		t.Logf("%s: %d allocs/op (baseline %d), %.1f ns/op here",
			name, allocs, base.AllocsOp, float64(r.T.Nanoseconds())/float64(r.N))
		if allocs != base.AllocsOp {
			t.Errorf("%s: %d allocs/op, baseline %d — fix the hot path, or refresh %s if the change is meant",
				name, allocs, base.AllocsOp, path)
		}
	}
}
