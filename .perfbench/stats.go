package main

import (
	"fmt"
	"math"
	"sort"
)

// tailMin is the number of samples that must lie beyond the reported
// tail percentile.
const tailMin = 10

// tail returns the highest percentile of xs that has at least tailMin
// samples beyond it: the (tailMin+1)-th largest sample, together with
// its percentile rank 100·(n−tailMin)/n. With tailMin or fewer samples
// no such percentile exists and ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailMin {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	return s[n-tailMin-1], 100 * float64(n-tailMin) / float64(n), true
}

// median returns the middle of xs (the mean of the two middle values
// for even lengths); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pearson returns the correlation coefficient of two equal-length
// series.
func pearson(a, b []float64) (float64, error) {
	if len(a) != len(b) || len(a) < 2 {
		return 0, fmt.Errorf("pearson: need two equal series of at least 2 values, got %d and %d", len(a), len(b))
	}
	ma, mb := sum(a)/float64(len(a)), sum(b)/float64(len(b))
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0, fmt.Errorf("pearson: constant series")
	}
	return sab / math.Sqrt(saa*sbb), nil
}

// interval is a closed-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionWithin returns how much of [lo, hi) the intervals cover, each
// instant counted once however many intervals overlap it. It sorts ivs
// in place.
func unionWithin(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var covered int64
	cur := lo // everything before cur is already counted or outside
	for _, iv := range ivs {
		s, e := max(iv.start, cur), min(iv.end, hi)
		if e > s {
			covered += e - s
			cur = e
		}
	}
	return covered
}
