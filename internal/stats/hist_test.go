package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramErrors(t *testing.T) {
	if _, err := NewLogHistogram(0, 10, 3); err == nil {
		t.Fatal("log histogram with min=0 accepted")
	}
	if _, err := NewLogHistogram(10, 1, 3); err == nil {
		t.Fatal("log histogram with max<min accepted")
	}
	if _, err := NewLogHistogram(1, 10, 0); err == nil {
		t.Fatal("log histogram with zero bins accepted")
	}
}

func TestLogHistogramEdges(t *testing.T) {
	h, err := NewLogHistogram(1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lo, hi := h.BinEdges(i)
		wantLo := math.Pow(10, float64(i))
		wantHi := math.Pow(10, float64(i+1))
		if !almostEq(lo, wantLo, 1e-9*wantLo) || !almostEq(hi, wantHi, 1e-9*wantHi) {
			t.Fatalf("bin %d edges = [%g, %g), want [%g, %g)", i, lo, hi, wantLo, wantHi)
		}
	}
	h.Add(5)
	h.Add(50)
	h.Add(500)
	// Out-of-range values saturate at the edges.
	h.Add(0.1)
	h.Add(1e6)
	if h.total != 5 {
		t.Fatalf("total = %d", h.total)
	}
	for i, want := range []int64{2, 1, 2} {
		if h.counts[i] != want {
			t.Fatalf("bin %d count = %d, want %d", i, h.counts[i], want)
		}
	}
}

func TestHistogramFractions(t *testing.T) {
	h, _ := NewLogHistogram(1, 1e4, 4)
	for _, v := range []float64{5, 50, 60, 5000} {
		h.Add(v)
	}
	f := h.Fractions()
	if !almostEq(f[0], 0.25, 1e-12) || !almostEq(f[1], 0.5, 1e-12) || f[2] != 0 || !almostEq(f[3], 0.25, 1e-12) {
		t.Fatalf("fractions = %v", f)
	}

	empty, _ := NewLogHistogram(1, 10, 2)
	ef := empty.Fractions()
	if ef[0] != 0 || ef[1] != 0 {
		t.Fatal("empty fractions not 0")
	}
}

// Property: every added value lands in exactly one bin and the total always
// matches the number of Adds — no observation is dropped, even outliers.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h, err := NewLogHistogram(0.5, 1e6, 12)
		if err != nil {
			return false
		}
		added := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			added++
		}
		var sum int64
		for i := 0; i < h.Bins(); i++ {
			sum += h.counts[i]
		}
		return sum == int64(added) && h.total == int64(added)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
