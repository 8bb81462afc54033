// Package stats provides the small statistical toolbox used across the PES
// reproduction: percentiles for latency distributions and an online mean
// estimator used by the predictor.
package stats

import (
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
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
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
