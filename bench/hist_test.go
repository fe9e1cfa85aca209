package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The histogram must agree with sorted raw samples to within 1% at every
// percentile the benchmark reports, across six orders of magnitude.
func TestHistAgainstRawSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	raw := make([]float64, 200000)
	for i := range raw {
		ns := int64(math.Exp(rng.Float64()*math.Log(1e9/50)) * 50) // log-uniform in [50ns, 1s]
		raw[i] = float64(ns)
		h.record(ns)
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		got, n, ok := h.quantile(q)
		if !ok || n != uint64(len(raw)) {
			t.Fatalf("q=%g: ok=%t n=%d", q, ok, n)
		}
		want := raw[int(q*float64(len(raw)-1))]
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%g: histogram %.0f, raw %.0f, relative error %.4f > 1%%", q, got, want, rel)
		}
	}
	if float64(h.max) != raw[len(raw)-1] {
		t.Errorf("max %d, raw %.0f", h.max, raw[len(raw)-1])
	}
}

// Every bucket's midpoint is within 1% of both of its edges.
func TestHistBucketError(t *testing.T) {
	for _, ns := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 4095, 4096, 1 << 20, 1<<30 + 12345, 1<<39 + 1} {
		b := histBucket(ns)
		if mid := histMid(b); ns > 0 && math.Abs(mid-float64(ns))/float64(ns) > 0.01 {
			t.Errorf("%d ns lands in bucket %d with midpoint %.1f", ns, b, mid)
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestHistTailRule(t *testing.T) {
	var h hist
	for i := 0; i < 999; i++ {
		h.record(int64(1000 + i))
	}
	if _, n, ok := h.quantile(0.99); ok || n != 999 {
		t.Errorf("p99 of 999 samples: ok=%t n=%d, want refused", ok, n)
	}
	if _, _, ok := h.quantile(0.5); !ok {
		t.Errorf("p50 of 999 samples refused")
	}
	h.record(5000)
	if _, _, ok := h.quantile(0.99); !ok {
		t.Errorf("p99 of 1000 samples refused")
	}
	if _, _, ok := h.quantile(0.999); ok {
		t.Errorf("p999 of 1000 samples reported")
	}
	var few hist
	for i := 0; i < 19; i++ {
		few.record(100)
	}
	if _, _, ok := few.quantile(0.5); ok {
		t.Errorf("p50 of 19 samples reported")
	}
}

// Merged slices fall back to coarser groups rather than report a
// percentile from too few samples.
func TestSliceQuantileMerges(t *testing.T) {
	r := newRecorder(1000, 10)
	for s := 0; s < 10; s++ {
		for i := 0; i < 600; i++ { // 600 per slice: p99 needs 1000
			r.observe(int64(s)*1000, int64(1000+i), false)
		}
	}
	if _, n, ok := r.sliceQuantile(0, 0.99); !ok || n != 6000 {
		t.Errorf("p99 over 10x600 samples: ok=%t n=%d, want merged pairs", ok, n)
	}
	if _, _, ok := r.sliceQuantile(1, 0.99); ok {
		t.Errorf("p99 of an empty class reported")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := quartileSpread(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}
