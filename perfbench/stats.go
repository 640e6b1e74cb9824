package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Pctl is a nearest-rank percentile together with the sample count it
// rests on: Beyond is how many samples rank strictly above it, the figure
// that says whether a tail percentile is supported by the data at all.
type Pctl struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs, which
// it sorts in place. An empty sample yields a zero Pctl.
func percentile(xs []float64, q float64) Pctl {
	n := len(xs)
	if n == 0 {
		return Pctl{}
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return Pctl{Value: xs[rank-1], N: n, Beyond: n - rank}
}

// median is the 0.5 nearest-rank percentile's value; xs is sorted in place.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quartiles describes a per-slice sample for the report: its size and its
// first and third quartiles (nearest rank).
func quartiles(xs []float64, what string) string {
	s := append([]float64(nil), xs...)
	q1 := percentile(s, 0.25).Value
	return fmt.Sprintf("%d %s (quartiles %.4g, %.4g)", len(xs), what, q1, percentile(s, 0.75).Value)
}
