package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count), 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). vs is not modified.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// spread is the run-to-run noise figure printed beside every median:
// (max − min) ÷ median for fewer than four samples, the interquartile
// range ÷ median otherwise. 0 when the median is 0.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) < 2 {
		return 0
	}
	if len(vs) < 4 {
		return (quantile(vs, 1) - quantile(vs, 0)) / math.Abs(m)
	}
	return (quantile(vs, 0.75) - quantile(vs, 0.25)) / math.Abs(m)
}

// relGap is how much worse b is than a, as a share of a, for a metric
// whose direction is given: positive means b regressed.
func relGap(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		return 0
	}
	g := (b - a) / math.Abs(a)
	if higherBetter {
		g = -g
	}
	return g
}

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it: 0.99 from 1000 samples on, 0.9 from 100, otherwise
// the maximum. Returns the quantile used.
func tailQuantile(n int) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n >= 100:
		return 0.9
	default:
		return 1
	}
}
