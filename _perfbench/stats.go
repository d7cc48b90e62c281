package main

import (
	"slices"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only when
// at least this many samples lie beyond it, so one outlier cannot be the
// whole tail.
const minBeyond = 10

// median returns the middle of the samples (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank num/den quantile of the samples and
// whether the percentile rule admits it: at least minBeyond samples must
// rank strictly above it. The rank is computed in integers, so p99 of 1000
// samples is rank 990 with exactly 10 beyond.
func percentile(xs []float64, num, den int) (float64, bool) {
	n := len(xs)
	if n == 0 || num <= 0 || num > den {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := (n*num + den - 1) / den // ceil(n·num/den), 1-based
	return s[rank-1], n-rank >= minBeyond
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

// mib converts a byte count to MiB.
func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// ratio divides, returning 0 for an empty base instead of NaN or Inf,
// which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
