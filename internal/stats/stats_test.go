package stats

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// batchMean is the two-pass reference the online mean must match.
func batchMean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); !almost(got, 5.5, 1e-12) {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := Percentile([]float64{42}, 90); got != 42 {
		t.Errorf("single-element percentile = %v", got)
	}
	// Out-of-range p is clamped.
	if got := Percentile(xs, 150); got != 10 {
		t.Errorf("p150 = %v, want clamp to max", got)
	}
}

func TestRunning(t *testing.T) {
	var r Running
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		r.Add(x)
	}
	if r.Count() != len(xs) {
		t.Errorf("Count = %d", r.Count())
	}
	if !almost(r.Mean(), 5, 1e-12) {
		t.Errorf("running mean %v != 5", r.Mean())
	}
	var empty Running
	if empty.Mean() != 0 || empty.Count() != 0 {
		t.Error("zero-value Running should report zeros")
	}
}

// Property: running mean matches batch mean.
func TestRunningMatchesBatch(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		var r Running
		for i, v := range raw {
			xs[i] = float64(v)
			r.Add(xs[i])
		}
		return almost(r.Mean(), batchMean(xs), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentile is bounded by min and max and monotone in p.
func TestPercentileBounds(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		p := float64(pRaw) / 255 * 100
		v := Percentile(xs, p)
		sort.Float64s(xs)
		return v >= xs[0]-1e-9 && v <= xs[len(xs)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSelectPercentilesMatchesSort: on 20,000 random slices of 1 to 600
// values, with many ties, NaNs, infinities and both ends of the float
// range, every percentile SelectPercentiles reads has the bits that
// sort.Float64s plus PercentileSorted give, for the ranks the results
// tables read and for rank sets that repeat or sit at the ends.
func TestSelectPercentilesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	pick := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 2.5, 5e-324, math.MaxFloat64, -math.MaxFloat64}
	sets := [][]float64{{50, 95, 99}, {95, 99}, {0, 100}, {50, 50, 50}, {1, 2, 3, 4, 99.9}, {-5, 0.1, 100, 150}}
	for trial := range 20_000 {
		n := 1 + rng.IntN(600)
		xs := make([]float64, n)
		distinct := 1 + rng.IntN(n) // few distinct values make many ties
		for i := range xs {
			switch r := rng.IntN(20); {
			case r == 0:
				xs[i] = pick[rng.IntN(len(pick))]
			case r < 10:
				xs[i] = float64(rng.IntN(distinct))
			default:
				xs[i] = rng.NormFloat64() * 100
			}
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		ps := sets[trial%len(sets)]
		got := make([]float64, len(ps))
		SelectPercentiles(got, xs, ps...)
		for i, p := range ps {
			if want := PercentileSorted(sorted, p); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("trial %d (n %d): p%v = %v, want %v", trial, n, p, got[i], want)
			}
		}
		slices.SortFunc(xs, cmp.Compare[float64])
		if !slices.EqualFunc(xs, sorted, func(a, b float64) bool { return a == b || a != a && b != b }) {
			t.Fatalf("trial %d: selection lost or changed values", trial)
		}
	}
}
