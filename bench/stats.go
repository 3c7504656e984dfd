package main

import "sort"

// quantile returns the q-quantile of an ascending slice (nearest
// rank); 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// bestQuartile aggregates repetitions of one timing (passes, windows):
// the value a quarter of them beat. On a shared machine interference
// only ever slows a repetition down, in bursts that outlast several of
// them, so the fast quartile repeats between runs where the median
// does not; it still needs a quarter of the repetitions to be that
// good, unlike a minimum. For a rate, the fast quartile is the upper
// one.
func bestQuartile(times []float64) float64 { return quantile(sorted(times), 0.25) }

func bestQuartileRate(rates []float64) float64 { return quantile(sorted(rates), 0.75) }
