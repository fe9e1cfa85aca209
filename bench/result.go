package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the one place metric names, units, directions and
// bounds are written down. The program reads it so that what it prints and
// what it gates on cannot drift from what the file declares.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWhy    `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(repoRoot string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metric is one measured value and the number of samples behind it.
type metric struct {
	Value float64
	N     uint64
}

// result is one workload's run.
type result struct {
	Workload  string
	Attempted uint64
	Failed    uint64
	Failures  []string // first few failed operations, for the reader
	E2E       map[string]metric
	Layer     map[string]metric
	Notes     []string
}

func newResult(workload string) *result {
	return &result{Workload: workload, E2E: map[string]metric{}, Layer: map[string]metric{}}
}

func (r *result) e2e(name string, v float64, n uint64)   { r.E2E[name] = metric{v, n} }
func (r *result) layer(name string, v float64, n uint64) { r.Layer[name] = metric{v, n} }
func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// quantile stores, in µs, the median over slices of class cls's q-quantile.
// A quantile without minTail samples beyond it is not stored; complete then
// reports the metric as missing.
func (r *result) quantile(name string, rec *recorder, cls int, q float64) {
	if ns, n, ok := rec.sliceQuantile(cls, q); ok {
		r.e2e(name, ns/1e3, n)
	} else {
		r.note("%s: only %d samples, fewer than %d beyond the percentile", name, n, minTail)
	}
}

// complete checks that the run produced exactly the metrics want names: a
// missing one is an error, and an unlisted one would be a name BENCHMARK.json
// does not define.
func complete(got map[string]metric, want []specMetric) error {
	var missing, extra []string
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range got {
		if !names[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("metrics missing: [%s]; not in BENCHMARK.json: [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return nil
}

// print writes the metrics in BENCHMARK.json order, one per line, with unit
// and sample count.
func printMetrics(w io.Writer, workload string, got map[string]metric, want []specMetric) {
	for _, m := range want {
		if v, ok := got[m.Name]; ok {
			fmt.Fprintf(w, "%-12s %-32s %14.4f %-8s n=%d\n", workload, m.Name, v.Value, m.Unit, v.N)
		}
	}
}

// driverLine is the one-line JSON object the driver reads from the end of
// standard output.
func driverLine(r *result, got map[string]metric, want []specMetric) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range want {
		if v, ok := got[m.Name]; ok {
			out.Metrics[m.Name] = mv{v.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}
