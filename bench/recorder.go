package main

import (
	"sort"
	"time"
)

// recorder is one connection's measurements of one phase, cut into
// equal-length slices. Everything is preallocated; observe and addOps are
// the only calls made while timing.
type recorder struct {
	start   int64 // phase start, ns since the run's epoch
	sliceNs int64
	slices  []sliceRec
}

// sliceRec is one slice: operations completed and per-request latency,
// reads (index 0) apart from writes (index 1).
type sliceRec struct {
	ops uint64
	lat [2]hist
}

func newRecorder(slice time.Duration, n int) *recorder {
	return &recorder{sliceNs: int64(slice), slices: make([]sliceRec, n)}
}

func (r *recorder) at(t int64) *sliceRec {
	i := int((t - r.start) / r.sliceNs)
	if i < 0 {
		i = 0
	}
	if i >= len(r.slices) {
		i = len(r.slices) - 1
	}
	return &r.slices[i]
}

func (r *recorder) observe(t, lat int64, write bool) {
	cls := 0
	if write {
		cls = 1
	}
	r.at(t).lat[cls].record(lat)
}

func (r *recorder) addOps(t int64, n uint64) { r.at(t).ops += n }

// mergeRecorders sums the connections' recorders slice by slice.
func mergeRecorders(rs []*recorder) *recorder {
	out := &recorder{start: rs[0].start, sliceNs: rs[0].sliceNs, slices: make([]sliceRec, len(rs[0].slices))}
	for _, r := range rs {
		for i := range r.slices {
			out.slices[i].ops += r.slices[i].ops
			out.slices[i].lat[0].merge(&r.slices[i].lat[0])
			out.slices[i].lat[1].merge(&r.slices[i].lat[1])
		}
	}
	return out
}

// opsPerSec is each slice's completed operations per second.
func (r *recorder) opsPerSec() []float64 {
	out := make([]float64, len(r.slices))
	for i := range r.slices {
		out[i] = float64(r.slices[i].ops) / (float64(r.sliceNs) / 1e9)
	}
	return out
}

// fastOpsPerSec is the phase's operations per second with the host's slow
// stretches left out: the phase is cut into thirds, each third contributes
// the mean of the fastest third of its slices, and the three are averaged.
// On this kind of host the disturbance is one-sided and comes in stretches:
// for 0.4 to 4 seconds at a time the core runs at about 60% (its hyperthread
// sibling is busy; steal time stays 0), so the mean and the median over
// slices follow how many such stretches a run caught — between identical
// runs they spread 9% and 7.5% where this spread 5% — while the fastest
// slices of a stretch of six are the undisturbed ones. Thirds, not the whole
// phase, because a workload may itself slow down as it runs (churn-text's
// store doubles) and every part of the phase should count.
func (r *recorder) fastOpsPerSec() float64 {
	v := r.opsPerSec()
	parts := 3
	if len(v) < 6 {
		parts = 1
	}
	var sum float64
	for p := 0; p < parts; p++ {
		part := v[p*len(v)/parts : (p+1)*len(v)/parts]
		sort.Float64s(part)
		fast := part[len(part)-max(1, len(part)/3):]
		var s float64
		for _, x := range fast {
			s += x
		}
		sum += s / float64(len(fast))
	}
	return sum / float64(parts)
}

func (r *recorder) totalOps() (n uint64) {
	for i := range r.slices {
		n += r.slices[i].ops
	}
	return n
}

// sliceQuantile is the median over slices of each slice's q-quantile of
// class cls, in nanoseconds, with the total sample count. When a class is
// too rare for every slice to have minTail samples beyond the quantile,
// adjacent slices are merged — by the smallest factor that gives every
// group enough — before the quantiles are taken; ok is false if even the
// whole phase has too few.
func (r *recorder) sliceQuantile(cls int, q float64) (ns float64, n uint64, ok bool) {
	for group := 1; group <= len(r.slices); group++ {
		if len(r.slices)%group != 0 {
			continue
		}
		vals := make([]float64, 0, len(r.slices)/group)
		n = 0
		for i := 0; i < len(r.slices); i += group {
			var h hist
			for j := i; j < i+group; j++ {
				h.merge(&r.slices[j].lat[cls])
			}
			v, cnt, good := h.quantile(q)
			n += cnt
			if good {
				vals = append(vals, v)
			}
		}
		if len(vals) == len(r.slices)/group {
			return median(vals), n, true
		}
	}
	return 0, n, false
}

// whole merges every slice and both classes into one histogram.
func (r *recorder) whole() *hist {
	h := new(hist)
	for i := range r.slices {
		h.merge(&r.slices[i].lat[0])
		h.merge(&r.slices[i].lat[1])
	}
	return h
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartileSpread is (Q3 − Q1) ÷ median with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), the spread
// the driver computes.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
