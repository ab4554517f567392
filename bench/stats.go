package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", lowest first.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the value is one or two outliers, not a tail.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile that still
// has at least minBeyond of n samples beyond it (50 when none does).
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 { // tolerance: 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (0 for an
// empty sample). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two central values for an
// even count), matching Python's statistics.median that the driver uses.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartileSpread is (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), so a spread
// computed here agrees with the driver's. It needs two samples.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// relRange is (max-min)/median, the calibration measure.
func relRange(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((hi - lo) / med)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsTo(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// ratio is a/b, or 0 when the base is 0 (a count that did not occur in
// this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
