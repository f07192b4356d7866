package main

import (
	"math"
	"sort"
)

// dist summarises a sample: its median and the highest percentile that
// still has at least ten samples beyond it. Below 21 samples that
// percentile is not above the median; Tail is then the maximum and TailPct
// 100.
type dist struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
}

func summarise(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	d := dist{N: n, Median: median(s), Tail: s[n-1], TailPct: 100}
	if n >= 21 {
		// s[n-11] has exactly ten samples above it.
		d.Tail = s[n-11]
		d.TailPct = math.Floor(1000*float64(n-10)/float64(n)) / 10
	}
	return d
}

// median of an already sorted sample.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
