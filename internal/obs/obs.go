// Package obs is the engine's allocation-free, race-clean metrics core.
//
// The design contract is "stamp off-path, merge on read":
//
//   - Hot paths record into pre-registered instruments — striped monotonic
//     counters, gauges, fixed-bucket log₂ histograms — with plain atomic
//     stores. No instrument method allocates, takes a lock, or formats
//     anything; the read side (Snapshot, WriteJSON) does all merging and
//     rendering and is the only place allowed to allocate.
//
//   - Nothing is ever recorded from inside a transaction body. On real
//     hardware every store inside an HTM region joins the transaction's
//     write set, so one shared counter word touched by every transaction
//     would make all concurrent transactions conflict and abort against each
//     other; the emulation in internal/htm only tracks nvm.Addr accesses, but
//     the discipline still matters there because transaction bodies re-execute
//     (the Log phase runs the body once, Validate may run it again, retries
//     rerun everything), so an in-body increment double-counts. Instruments
//     are therefore stamped where the engine already does its own outcome
//     accounting: after commit, in fallback paths that hold the SGL, or in
//     plain (non-transactional) code.
//
//   - Latency is measured with time.Now deltas taken outside transaction
//     bodies (before submit / after completion), never inside.
//
// Counters are striped over padded cells so concurrent writers on different
// threads do not share a cache line; callers pass their thread slot or worker
// id as the stripe. Snapshot merges the stripes. Values that some other
// subsystem already maintains (engine outcome totals, heap flush counters)
// are not duplicated: a Registry accepts Func and Sampler entries that pull
// those numbers lazily at snapshot time.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stripes is the number of independent cells a Counter spreads its writers
// over. A power of two; callers pass any non-negative stripe hint (thread
// slot, worker id) and it is masked down.
const Stripes = 16

const stripeMask = Stripes - 1

// cell is one counter stripe, padded out to its own cache line so two
// stripes never false-share.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// Counter is a monotonic counter striped over padded cells. Increments are
// one atomic add on the caller's own stripe; Value merges all stripes.
type Counter struct {
	cells [Stripes]cell
}

// Inc adds 1 on the given stripe.
func (c *Counter) Inc(stripe int) { c.cells[stripe&stripeMask].n.Add(1) }

// Add adds n on the given stripe.
func (c *Counter) Add(stripe int, n uint64) { c.cells[stripe&stripeMask].n.Add(n) }

// Value merges every stripe.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is an instantaneous value (queue depth, open connections).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NumBuckets is the number of fixed log₂ histogram buckets. Bucket i counts
// observations v with bits.Len64(v) == i, i.e. in [2^(i-1), 2^i); bucket 0
// counts zero. 63 buckets cover every non-negative int64, so nothing is ever
// clamped.
const NumBuckets = 64

// Histogram is a fixed-bucket log₂ histogram. Observe is one atomic add on
// the value's bucket plus one on the running sum; there is no locking and no
// allocation. Quantiles are resolved at snapshot time to the upper bound of
// the containing bucket, which for latency-in-nanoseconds gives a factor-of-2
// resolution — enough to tell 1µs from 1ms, which is what the histograms are
// for.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value (negative values count as zero).
func (h *Histogram) Observe(v int64) {
	h.buckets[bucketOf(v)].Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
}

// ObserveN records n occurrences of value v in one shot (batch sizes,
// repeated identical measurements).
func (h *Histogram) ObserveN(v int64, n uint64) {
	if n == 0 {
		return
	}
	h.buckets[bucketOf(v)].Add(n)
	if v > 0 {
		h.sum.Add(uint64(v) * n)
	}
}

// ObserveSince records the elapsed nanoseconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Nanoseconds())
}

// HistogramSnapshot is a merged copy of a histogram's buckets.
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Snapshot copies the histogram. Concurrent observers may land between
// bucket reads; each observation is still counted exactly once in some later
// snapshot.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	return s
}

// Quantile returns the upper bound of the bucket holding the q-th
// observation (0 < q <= 1), or 0 for an empty histogram.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(NumBuckets - 1)
}

// Max returns the upper bound of the highest non-empty bucket.
func (s *HistogramSnapshot) Max() int64 {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return bucketUpper(i)
		}
	}
	return 0
}

// bucketUpper is the exclusive upper bound of bucket i (inclusive for the
// last, which would otherwise overflow int64).
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // math.MaxInt64
	}
	return int64(1) << i
}

// entry kinds inside a Registry.
type entry struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
	f    func() int64
}

// Sample is one merged name/value pair produced at snapshot time.
// Histograms expand into several samples (<name>.count, <name>.sum,
// <name>.p50, <name>.p90, <name>.p99, <name>.max).
type Sample struct {
	Name  string
	Value int64
}

// Registry holds named instruments and renders merged snapshots. Instrument
// registration takes a lock and may allocate; the instruments themselves
// never do. Register instruments once at startup, then hand the returned
// pointers to the hot paths.
type Registry struct {
	mu       sync.Mutex
	entries  []entry
	names    map[string]bool
	samplers []func(emit func(name string, v int64))
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) add(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[e.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", e.name))
	}
	r.names[e.name] = true
	r.entries = append(r.entries, e)
}

// Counter registers and returns a new striped counter.
func (r *Registry) Counter(name string) *Counter {
	c := new(Counter)
	r.add(entry{name: name, c: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name string) *Gauge {
	g := new(Gauge)
	r.add(entry{name: name, g: g})
	return g
}

// Histogram registers and returns a new log₂ histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h := new(Histogram)
	r.add(entry{name: name, h: h})
	return h
}

// RegisterCounter registers an existing counter (shared across registries or
// owned by another subsystem).
func (r *Registry) RegisterCounter(name string, c *Counter) { r.add(entry{name: name, c: c}) }

// RegisterHistogram registers an existing histogram.
func (r *Registry) RegisterHistogram(name string, h *Histogram) { r.add(entry{name: name, h: h}) }

// Func registers a lazy value pulled at snapshot time — the merge point for
// counters some other subsystem already maintains. fn must be safe to call
// from any goroutine.
func (r *Registry) Func(name string, fn func() int64) { r.add(entry{name: name, f: fn}) }

// Sampler registers a bulk snapshot-time source: at each snapshot, fn is
// called with an emit callback and may emit any number of name/value pairs.
// One sampler can pull a whole Stats struct under one lock instead of
// registering a Func (and re-taking the lock) per field. fn must be safe to
// call from any goroutine; names it emits are not uniqueness-checked against
// registered instruments.
func (r *Registry) Sampler(fn func(emit func(name string, v int64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samplers = append(r.samplers, fn)
}

// Snapshot merges every instrument and sampler into a sorted sample list.
// This is the read side: it allocates freely and must not be called from hot
// paths.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	entries := make([]entry, len(r.entries))
	copy(entries, r.entries)
	samplers := make([]func(emit func(string, int64)), len(r.samplers))
	copy(samplers, r.samplers)
	r.mu.Unlock()

	var out []Sample
	emit := func(name string, v int64) { out = append(out, Sample{Name: name, Value: v}) }
	for _, e := range entries {
		switch {
		case e.c != nil:
			emit(e.name, int64(e.c.Value()))
		case e.g != nil:
			emit(e.name, e.g.Value())
		case e.h != nil:
			s := e.h.Snapshot()
			emit(e.name+".count", int64(s.Count))
			emit(e.name+".sum", int64(s.Sum))
			emit(e.name+".p50", s.Quantile(0.50))
			emit(e.name+".p90", s.Quantile(0.90))
			emit(e.name+".p99", s.Quantile(0.99))
			emit(e.name+".max", s.Max())
		case e.f != nil:
			emit(e.name, e.f())
		}
	}
	for _, fn := range samplers {
		fn(emit)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SnapshotMap is Snapshot as a name→value map, for callers that cherry-pick
// a few metrics (the periodic metrics log).
func (r *Registry) SnapshotMap() map[string]int64 {
	samples := r.Snapshot()
	m := make(map[string]int64, len(samples))
	for _, s := range samples {
		m[s.Name] = s.Value
	}
	return m
}

// WriteJSON renders the snapshot as one flat JSON object with sorted keys —
// the payload of craftykv's -metrics endpoint. All values are integers;
// histogram quantiles are in the instrument's own unit (ns for latency
// histograms by convention, the ".._ns" name suffix).
func (r *Registry) WriteJSON(w io.Writer) error {
	samples := r.Snapshot()
	if _, err := io.WriteString(w, "{\n"); err != nil {
		return err
	}
	for i, s := range samples {
		sep := ","
		if i == len(samples)-1 {
			sep = ""
		}
		if _, err := fmt.Fprintf(w, "  %q: %d%s\n", s.Name, s.Value, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// WriteText renders the snapshot as "name value" lines — the payload of the
// INFO wire command.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %d\n", s.Name, s.Value); err != nil {
			return err
		}
	}
	return nil
}
