// Package stats provides the small statistical toolbox used across the PES
// reproduction: percentiles for latency distributions and an online mean
// estimator used by the predictor.
package stats

import (
	"cmp"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile of a slice already in sort.Float64s
// order, read without a copy: sort once, then read several percentiles.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	rank, lo, hi := percentileRank(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// percentileRank is where the p-th percentile of n > 0 sorted values sits:
// its fractional rank and the two ranks around it, the only values
// PercentileSorted reads.
func percentileRank(n int, p float64) (rank float64, lo, hi int) {
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if n == 1 {
		return 0, 0, 0
	}
	rank = p / 100 * float64(n-1)
	return rank, int(math.Floor(rank)), int(math.Ceil(rank))
}

// SelectPercentiles sets v[i] to PercentileSorted(sorted xs, ps[i]) for ps
// in ascending order without sorting xs: it reorders xs only far enough to
// fix the ranks PercentileSorted reads, each found by a quickselect confined
// to the right of the last rank fixed. The order is sort.Float64s's
// (cmp.Less: NaNs first), and values it holds equal are interchangeable,
// so every percentile is the sorted one's bit for bit, but for the sign of
// a zero and the payload of a NaN, which sort.Float64s leaves in no fixed
// order either. It panics on an empty xs.
func SelectPercentiles(v, xs []float64, ps ...float64) {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	from := 0 // xs[:from] is settled: every rank read so far is fixed
	for i, p := range ps {
		_, lo, hi := percentileRank(len(xs), p)
		for _, k := range [2]int{lo, hi} {
			if k >= from {
				selectRank(xs[from:], k-from)
				from = k + 1
			}
		}
		v[i] = PercentileSorted(xs, p)
	}
}

// selectRank reorders x so that x[k] holds the value of rank k in cmp.Less
// order, with no greater value before it and no smaller one after it.
func selectRank(x []float64, k int) {
	lo, hi := 0, len(x)
	for hi-lo > 12 {
		// A median-of-three pivot and a three-way partition, so runs of
		// equal values (common among latencies) end the search early
		// instead of slowing it.
		pivot := median3(x[lo], x[lo+(hi-lo)/2], x[hi-1])
		lt, i, gt := lo, lo, hi // x[lo:lt] < pivot, x[lt:i] == pivot, x[gt:hi] > pivot
		for i < gt {
			switch c := cmp.Compare(x[i], pivot); {
			case c < 0:
				x[lt], x[i] = x[i], x[lt]
				lt++
				i++
			case c > 0:
				gt--
				x[i], x[gt] = x[gt], x[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && cmp.Less(x[j], x[j-1]); j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

// median3 is the middle of three values in cmp.Less order.
func median3(a, b, c float64) float64 {
	if cmp.Less(b, a) {
		a, b = b, a
	}
	if cmp.Less(c, b) {
		b = c
		if cmp.Less(b, a) {
			b = a
		}
	}
	return b
}

// Running maintains an online mean. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
}

// Add folds a new observation into the running mean.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// Count returns the number of observations folded in so far.
func (r *Running) Count() int { return r.n }

// Mean returns the running mean (0 before any observation).
func (r *Running) Mean() float64 { return r.mean }
