package main

import "math/bits"

// hist is a fixed-memory log-linear latency histogram over nanoseconds:
// values below 2^histSubBits are counted exactly, and every power-of-two
// range above that is split into 2^histSubBits equal buckets, so a bucket's
// midpoint is within 2^-(histSubBits+1) (≈0.4%) of every value it holds —
// fine enough to resolve the benchmark's regression bounds, which the
// server's own log₂ obs histograms (a factor of two per bucket) are not.
// Record never allocates; one histogram is kept per slice and class.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values up to 2^histMaxExp ns (≈18 minutes) are resolved; larger ones
	// land in the last bucket.
	histMaxExp  = 40
	histBuckets = (histMaxExp - histSubBits + 1) * histSub
)

// minTail is the sample count required beyond a percentile before it is
// reported: with fewer, the percentile is a reading of a handful of
// outliers, not of the distribution.
const minTail = 10

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 // position of the leading bit, >= histSubBits
	if e >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(ns>>(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + sub
}

// histMid is the midpoint of bucket b in nanoseconds.
func histMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := b/histSub + histSubBits - 1
	sub := uint64(b % histSub)
	lo := (histSub + sub) << (e - histSubBits)
	width := uint64(1) << (e - histSubBits)
	return float64(lo) + float64(width-1)/2
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile in nanoseconds and the sample count. ok is
// false when fewer than minTail samples lie beyond the quantile (for the
// median: on either side), the one place the "at least ten samples beyond
// it" rule is enforced; callers print n beside every value they report.
func (h *hist) quantile(q float64) (ns float64, n uint64, ok bool) {
	n = h.n
	tail := float64(n) * (1 - q)
	if q <= 0.5 {
		tail = float64(n) * q
	}
	if n == 0 || tail < minTail {
		return 0, n, false
	}
	rank := uint64(q * float64(n-1)) // 0-based rank of the quantile sample
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if seen > rank {
			return histMid(b), n, true
		}
	}
	return float64(h.max), n, true
}
