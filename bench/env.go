package main

import (
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// environment is the stamp every output carries, so a reader can tell
// which box, toolchain and tree a number came from.
func environment(repoRoot string, opt *options, ph phases) map[string]any {
	env := map[string]any{
		"go":          runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu":         cpuModel(),
		"date":        time.Now().UTC().Format(time.RFC3339),
		"seed":        opt.seed,
		"seconds":     opt.seconds,
		"trace":       opt.trace,
		"quick":       opt.quick,
		"connections": connections,
		"server_pool": serverPool,
		"server_env":  strings.Join(serverEnv, " "),
		"phases": map[string]any{
			"setups": ph.setups, "warmup_s": ph.warm.Seconds(), "loaded_s": ph.loaded.Seconds(),
			"traced_loaded_s": ph.traced.Seconds(), "solo_s": ph.solo.Seconds(), "ladder_s": ph.ladder.Seconds(),
			"slices": ph.slices, "tail_rounds": ph.rounds, "tail_puts": ph.puts,
		},
		"sleep_overshoot_us": sleepOvershoot().Seconds() * 1e6,
	}
	env["commit"], env["dirty"] = gitState(repoRoot)
	return env
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitState names the commit under test; outside a git checkout (the
// driver's) it is "unknown".
func gitState(repoRoot string) (commit string, dirty bool) {
	out, err := exec.Command("git", "-C", repoRoot, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, _ := exec.Command("git", "-C", repoRoot, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(strings.TrimSpace(string(st))) > 0
}

// sleepOvershoot measures how late time.Sleep(100µs) returns (median of 51).
// It is why the load is closed-loop here: a generator cannot pace an
// open-loop schedule finer than this, so a reader on a box where it is small
// knows the open-loop curve has become measurable.
func sleepOvershoot() time.Duration {
	const want = 100 * time.Microsecond
	over := make([]time.Duration, 51)
	for i := range over {
		t0 := time.Now()
		time.Sleep(want)
		over[i] = time.Since(t0) - want
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	return over[len(over)/2]
}
