package main

import (
	"math"
	"testing"
)

func seq(n int) latencies {
	l := make(latencies, n)
	for i := range l {
		l[i] = int64(i + 1)
	}
	return l
}

// TestPercentileSampleCountRule checks that a tail percentile is given
// only with enough samples beyond it, and the median always.
func TestPercentileSampleCountRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1, 0.5, 1, true},
		{39, 0.5, 20, true},
		{39, 0.9, 0, false},     // fewer than minTail samples: median only
		{40, 0.75, 30, true},    // 10 samples beyond rank 30
		{40, 0.9, 0, false},     // only 4 beyond
		{999, 0.99, 0, false},   // rank 990, 9 beyond
		{1000, 0.99, 990, true}, // rank 990, 10 beyond
		{2000, 0.999, 0, false},
		{10000, 0.999, 9990, true},
	}
	for _, c := range cases {
		got, err := seq(c.n).percentile(c.p, 1)
		if (err == nil) != c.ok {
			t.Errorf("n=%d p=%g: err=%v, want ok=%v", c.n, c.p, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("n=%d p=%g: got %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if _, err := (latencies{}).percentile(0.5, 1); err == nil {
		t.Error("empty sample set gave a median")
	}
	if got, _ := (latencies{2500}).percentile(0.5, 1000); got != 2.5 {
		t.Errorf("unit conversion: got %g, want 2.5", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4, 1, 3}, 1, 3, 4},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
