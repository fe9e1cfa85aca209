// Command bench is the repository's benchmark: four closed-loop workloads —
// three against a real craftykv process over TCP, one against the paper's
// engine in process — that verify every reply and print the end-to-end and
// per-layer metrics BENCHMARK.json names. See README.md.
//
//	go run . -seed 1                         every workload, end-to-end metrics
//	go run . -seed 1 -trace 1                the traced run: per-layer metrics
//	go run . -workload churn-text -seed 7    one workload (what the driver runs)
//	go run . -aa 5                           A/A: the suite five times, spreads
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "workload seed: fixes every key, operation kind and value length")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: the traced run, which yields the per-layer metrics")
		quick    = flag.Bool("quick", false, "smoke pass: small data, short phases, full verification, no bounds")
		aa       = flag.Int("aa", 0, "A/A mode: run the suite N times and report each metric's spread against its bound")
		root     = flag.String("root", "", "repository root (default: found from the working directory)")
	)
	flag.Parse()

	// Kill the server child on every way out: normal return and errors go
	// through exit below, signals through this handler, and a crash of this
	// process through the child's parent-death signal (server.go).
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()

	code := 0
	if err := run(*root, *workload, *seed, *seconds, *trace == 1, *quick, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	killChildren()
	os.Exit(code)
}

// findRoot locates the repository: the directory holding BENCHMARK.json and
// cmd/craftykv, at or above the working directory.
func findRoot(start string) (string, error) {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "craftykv")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory with BENCHMARK.json and cmd/craftykv at or above " + start)
		}
		dir = parent
	}
}

func workloadNames(sp *spec) []string {
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func run(root, workload string, seed int64, seconds float64, trace, quick bool, aa int) error {
	if root == "" {
		root = "."
	}
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	names := workloadNames(sp)
	if workload != "" {
		if !slices.Contains(names, workload) {
			return fmt.Errorf("unknown workload %q (BENCHMARK.json has %s)", workload, strings.Join(names, ", "))
		}
		names = []string{workload}
	}
	if seconds == 0 {
		seconds = float64(sp.RunSeconds)
	}
	if quick {
		seconds = 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	outDir := filepath.Join(root, "bench", "out")
	bin, err := buildServer(root, outDir)
	if err != nil {
		return err
	}
	opt := &options{seed: seed, seconds: seconds, trace: trace, quick: quick, nproc: nproc, bin: bin, outDir: outDir}
	opt.env = environment(root, opt, phasesFor(seconds, trace, quick))
	printEnv(opt.env)

	if aa > 0 {
		return runAA(sp, opt, names, aa)
	}
	_, err = runSuite(sp, opt, names)
	return err
}

func printEnv(env map[string]any) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("env %-20s %v\n", k, env[k])
	}
}

// runSuite runs the named workloads once each, prints every metric by name
// with unit and sample count, and ends each workload with the driver's JSON
// line. Any failed operation or missing metric is an error.
func runSuite(sp *spec, opt *options, names []string) ([]*result, error) {
	var results []*result
	var errs []error
	for _, name := range names {
		res, err := runWorkload(opt, name)
		if err != nil {
			errs = append(errs, err)
		}
		res.layer("client.fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
		got, want := res.E2E, sp.EndToEnd
		if opt.trace {
			got, want = res.Layer, sp.PerLayer
			// A layer this workload does not exercise did no work for it.
			for _, m := range want {
				if _, ok := got[m.Name]; !ok && err == nil {
					res.layer(m.Name, 0, 0)
				}
			}
		}
		if err == nil && !opt.quick {
			if err := complete(got, want); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", name, err))
			}
		}
		printMetrics(os.Stdout, name, res.E2E, sp.EndToEnd)
		printMetrics(os.Stdout, name, res.Layer, sp.PerLayer)
		for _, n := range res.Notes {
			fmt.Printf("%-12s note: %s\n", name, n)
		}
		for _, f := range res.Failures {
			fmt.Printf("%-12s FAILED: %s\n", name, f)
		}
		fmt.Printf("%-12s attempted=%d failed=%d fail_ratio=%g\n", name, res.Attempted, res.Failed,
			ratio(float64(res.Failed), float64(res.Attempted)))
		if res.Failed > 0 {
			errs = append(errs, fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted))
		}
		results = append(results, res)
		if len(errs) == 0 {
			fmt.Println(driverLine(res, got, want))
		}
	}
	return results, errors.Join(errs...)
}

func runWorkload(opt *options, name string) (*result, error) {
	if name == engineWorkload {
		return runEngineWorkload(opt)
	}
	for _, mx := range serverMixes {
		if mx.name == name {
			return runServerWorkload(opt, mx)
		}
	}
	return newResult(name), fmt.Errorf("workload %q is in BENCHMARK.json but not in the program", name)
}

// runAA runs the suite n times on the same code, seed and box, prints each
// end-to-end metric's min, median, max, range and quartile spread per
// workload, and fails if any quartile spread — (Q3 − Q1) ÷ median, the
// figure the driver computes — exceeds the metric's bound: the check that the
// bounds in BENCHMARK.json are ones this instrument can actually hold.
func runAA(sp *spec, opt *options, names []string, n int) error {
	values := map[string]map[string][]float64{} // workload → metric → runs
	for i := 0; i < n; i++ {
		fmt.Printf("--- A/A run %d of %d\n", i+1, n)
		results, err := runSuite(sp, opt, names)
		if err != nil {
			return err
		}
		for _, res := range results {
			if values[res.Workload] == nil {
				values[res.Workload] = map[string][]float64{}
			}
			for name, m := range res.E2E {
				values[res.Workload][name] = append(values[res.Workload][name], m.Value)
			}
		}
	}
	fmt.Printf("--- A/A over %d runs: range = (max − min) ÷ median, spread = (Q3 − Q1) ÷ median\n", n)
	fmt.Printf("| workload | metric | unit | min | median | max | range | spread | bound |\n|---|---|---|---|---|---|---|---|---|\n")
	var over []string
	for _, w := range names {
		for _, m := range sp.EndToEnd {
			v := values[w][m.Name]
			if len(v) == 0 {
				continue
			}
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			spread := quartileSpread(s)
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.1f%% | %.1f%% | %.0f%% |\n",
				w, m.Name, m.Unit, s[0], median(s), s[len(s)-1], ratio(s[len(s)-1]-s[0], median(s))*100, spread*100, m.Bound*100)
			if spread > m.Bound {
				over = append(over, w+"/"+m.Name)
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A spread exceeds the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}
