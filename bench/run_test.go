package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testServer builds craftykv from the tree under test once per test binary.
func testServer(t *testing.T) (root, bin string) {
	t.Helper()
	root, err := findRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	bin, err = buildServer(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(killChildren)
	return root, bin
}

// running lists the processes executing bin.
func running(t *testing.T, bin string) []string {
	t.Helper()
	var pids []string
	exes, _ := filepath.Glob("/proc/[0-9]*/exe")
	for _, exe := range exes {
		if target, err := os.Readlink(exe); err == nil && strings.TrimSuffix(target, " (deleted)") == bin {
			pids = append(pids, exe)
		}
	}
	return pids
}

// A run that fails after its server has started must not leave the child
// behind: here the arena is too small for the preload, so set-up fails with
// the server alive.
func TestFailedRunLeavesNoChild(t *testing.T) {
	_, bin := testServer(t)
	opt := &options{seed: 1, seconds: 2, quick: true, nproc: 2, bin: bin, outDir: t.TempDir(), arenaWords: 1 << 16}
	res, err := runServerWorkload(opt, serverMixes[0])
	if err == nil {
		t.Fatalf("a run whose preload cannot fit succeeded: %+v", res)
	}
	if res.Failed == 0 {
		t.Errorf("the failed preload counted no failed operation (error: %v)", err)
	}
	if left := running(t, bin); len(left) != 0 {
		t.Errorf("server processes survive a failed run: %v", left)
	}
	children.Lock()
	defer children.Unlock()
	if len(children.procs) != 0 {
		t.Errorf("%d children still registered", len(children.procs))
	}
}

// The quick pass: every workload with small data and sub-second phases,
// every reply verified, no bounds — what keeps the benchmark's own code
// under `go test`.
func TestQuickSuite(t *testing.T) {
	root, bin := testServer(t)
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	opt := &options{seed: 1, seconds: 2, quick: true, nproc: 2, bin: bin, outDir: t.TempDir()}
	opt.env = environment(root, opt, phasesFor(opt.seconds, false, true))
	results, err := runSuite(sp, opt, workloadNames(sp))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted)
		}
		if res.E2E["ops_per_s"].Value <= 0 {
			t.Errorf("%s: no throughput measured", res.Workload)
		}
	}
	if left := running(t, bin); len(left) != 0 {
		t.Errorf("server processes survive the suite: %v", left)
	}
}

// The traced pass on one server workload and the engine: every per-layer
// name BENCHMARK.json lists is produced, the ladder adds up, the trace file
// is written.
func TestQuickTraced(t *testing.T) {
	root, bin := testServer(t)
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	opt := &options{seed: 1, seconds: 2, quick: true, trace: true, nproc: 2, bin: bin, outDir: t.TempDir()}
	opt.env = environment(root, opt, phasesFor(opt.seconds, true, true))
	results, err := runSuite(sp, opt, []string{"read-single", engineWorkload})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if err := complete(res.Layer, sp.PerLayer); err != nil {
			t.Errorf("%s: %v", res.Workload, err)
		}
		if _, err := os.Stat(filepath.Join(opt.outDir, res.Workload+".trace.json")); err != nil {
			t.Errorf("%s: %v", res.Workload, err)
		}
	}
	l := results[0].Layer
	sum := l["net.echo_ns"].Value + l["wire.decode_ns"].Value + l["kv.request_ns"].Value + l["wire.encode_ns"].Value + l["server.residual_ns"].Value
	if rtt := l["server.solo_rtt_ns"].Value; rtt <= 0 || sum < rtt*0.999 || sum > rtt*1.001 {
		t.Errorf("ladder rungs sum to %.0f ns, solo round trip is %.0f ns", sum, rtt)
	}
	if l["wire.frames_per_op"].Value != 1 {
		t.Errorf("read-single sent %.4f frames per operation, want 1", l["wire.frames_per_op"].Value)
	}
	if results[1].Layer["nvm.fences_per_op"].Value <= 0 {
		t.Errorf("engine-bank fenced nothing")
	}
}
