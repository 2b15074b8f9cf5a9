package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// nsQuantileUS returns quantile q of unsorted nanosecond samples, in µs.
func nsQuantileUS(samples []int64, q float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = float64(s)
	}
	sort.Float64s(v)
	return quantile(v, q) / 1e3
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
