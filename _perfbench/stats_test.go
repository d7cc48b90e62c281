package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

// TestPercentileRule pins that a percentile is admitted only with at
// least ten samples ranked beyond it.
func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n, num, den int
		value       float64
		ok          bool
	}{
		{1000, 99, 100, 990, true},  // rank 990, 10 beyond
		{999, 99, 100, 990, false},  // rank 990, 9 beyond
		{3000, 99, 100, 2970, true}, // 30 beyond
		{20, 50, 100, 10, true},     // median rank 10, 10 beyond
		{19, 50, 100, 10, false},    // 9 beyond
		{10000, 999, 1000, 9990, true},
		{9999, 999, 1000, 9990, false},
		{5, 99, 100, 5, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.num, c.den)
		if v != c.value || ok != c.ok {
			t.Errorf("p%d/%d of %d samples = (%v, %v), want (%v, %v)", c.num, c.den, c.n, v, ok, c.value, c.ok)
		}
	}
	if _, ok := percentile(nil, 99, 100); ok {
		t.Error("percentile of no samples admitted")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %v", got)
	}
}
