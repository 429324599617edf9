package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true},   // ranks 91..100 lie beyond: exactly ten
		{99, 0.90, 90, false},   // nine beyond
		{1000, 0.99, 990, true}, // ten beyond
		{1332, 0.99, 1319, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		got, ok := tail(seq(c.n), c.p)
		if ok != c.ok || (c.n > 0 && got != c.want) {
			t.Errorf("tail(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if v := tailOrZero(seq(50), 0.9); v != 0 {
		t.Errorf("tailOrZero with 5 beyond = %g, want 0", v)
	}
}

func TestTailLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	tail(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}
