package main

import (
	"fmt"
	"math"
	"sort"
)

// Percentiles here come from exact samples, never from histogram
// buckets: every observation is kept and the nearest-rank value of the
// sorted set is reported, together with the sample count behind it.

// sampleSet is an exact set of observations of one quantity.
type sampleSet struct {
	vals   []float64
	sorted bool
}

func (s *sampleSet) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
}

func (s *sampleSet) n() int { return len(s.vals) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least a fraction q of all samples at or below
// it. It returns 0 for an empty set.
func (s *sampleSet) quantile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
	return s.vals[rank(q, len(s.vals))-1]
}

// rank is the 1-based nearest rank of quantile q among n samples. The
// epsilon keeps q*n from rounding up past an exact integer (0.9*100).
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func (s *sampleSet) mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t / float64(len(s.vals))
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile picks the highest candidate percentile that still has at
// least minBeyond samples above it in a set of n, or 1 (the maximum)
// when even the median has fewer.
func tailQuantile(n, minBeyond int) float64 {
	for _, q := range tailQuantiles {
		if n > 0 && n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 1
}

// quantileLabel names a quantile as a metric suffix: 0.95 -> "p95",
// 0.999 -> "p99.9", 1 -> "max".
func quantileLabel(q float64) string {
	if q >= 1 {
		return "max"
	}
	return "p" + trimFloat(q*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// median of a small set of readings (set-up repeats).
func median(vals []float64) float64 {
	var s sampleSet
	for _, v := range vals {
		s.add(v)
	}
	return s.quantile(0.5)
}

// tail records a sample set's median and its highest percentile with at
// least ten samples beyond it, as report lines
// <name>_p50_<unit> and <name>_<pNN>_<unit>.
func tail(res *result, name string, s *sampleSet, unit string) {
	q := tailQuantile(s.n(), 10)
	res.e2e(name+"_p50_"+unit, s.quantile(0.5), unit, s.n())
	res.e2e(name+"_"+quantileLabel(q)+"_"+unit, s.quantile(q), unit, s.n())
}
