package main

import (
	"math"
	"slices"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// latencies collects per-operation latencies in nanoseconds. uint32 keeps a
// multi-million-operation window small; anything above ~4.29 s saturates,
// which no supported workload approaches.
type latencies []uint32

func (l *latencies) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	*l = append(*l, uint32(ns))
}

// quantileMs returns the q-quantile (nearest rank) of l in milliseconds. It
// sorts l in place.
func (l latencies) quantileMs(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	slices.Sort(l)
	i := int(math.Ceil(q*float64(len(l)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(l[i]) / 1e6
}

// median returns the median of xs (mean of the middle pair for even n),
// without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (nearest rank) of xs, without modifying
// xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// ratio returns a/b, or 0 when b is 0 (a counter that saw no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
