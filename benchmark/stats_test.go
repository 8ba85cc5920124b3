package main

import (
	"math"
	"testing"
)

func TestMedianQuantile(t *testing.T) {
	cases := []struct {
		vs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 0.75, 4},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{10, 20}, 0.9, 19},
	}
	for _, c := range cases {
		if got := quantile(c.vs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.vs, c.q, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("one sample: spread %v, want 0", got)
	}
	// Fewer than four samples: range over median.
	if got := spread([]float64{9, 10, 12}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("three samples: spread %v, want 0.3", got)
	}
	// Four or more: interquartile range over median; the outlier barely counts.
	got := spread([]float64{10, 10, 10, 10, 10, 10, 10, 100})
	if got != 0 {
		t.Errorf("outlier moved the interquartile spread: %v", got)
	}
	if got := spread([]float64{8, 9, 10, 11, 12}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("five samples: spread %v, want 0.2", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("zero median: spread %v, want 0", got)
	}
}

func TestRelGap(t *testing.T) {
	if got := relGap(100, 110, false); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-better metric rising 10%%: gap %v", got)
	}
	if got := relGap(100, 110, true); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("higher-better metric rising 10%%: gap %v, want -0.1", got)
	}
	if got := relGap(100, 80, true); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("higher-better metric falling 20%%: gap %v", got)
	}
	if got := relGap(0, 5, false); got != 0 {
		t.Errorf("zero baseline: gap %v, want 0", got)
	}
}

func TestTailQuantile(t *testing.T) {
	for n, want := range map[int]float64{3: 1, 99: 1, 100: 0.9, 999: 0.9, 1000: 0.99, 1 << 20: 0.99} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestQuantileInt64(t *testing.T) {
	vs := make([]int64, 100)
	for i := range vs {
		vs[i] = int64(100 - i) // 100 … 1, unsorted
	}
	for q, want := range map[float64]int64{0: 1, 0.5: 50, 0.99: 99, 1: 100} {
		if got := quantileInt64(vs, q); got != want {
			t.Errorf("quantileInt64(1..100, %v) = %d, want %d", q, got, want)
		}
	}
	if got := quantileInt64(nil, 0.5); got != 0 {
		t.Errorf("empty: %d", got)
	}
}

func TestReportCheck(t *testing.T) {
	defs := []metricDef{{"a", "s", "lower", 0.1}, {"b", "s", "lower", 0.1}}

	r := newReport("w")
	r.set("a", 1)
	r.set("b", 2)
	if r.check(defs, true); len(r.problems) != 0 {
		t.Errorf("complete report refused: %v", r.problems)
	}

	r = newReport("w")
	r.set("a", 1)
	if r.check(defs, true); len(r.problems) != 1 {
		t.Errorf("missing gated metric: problems %v", r.problems)
	}

	r = newReport("w")
	r.set("a", 1)
	r.set("b", 0)
	if r.check(defs, true); len(r.problems) != 1 {
		t.Errorf("zero gated metric: problems %v", r.problems)
	}

	r = newReport("w")
	r.set("a", 1)
	if r.check(defs, false); len(r.problems) != 0 || r.values["b"] != 0 {
		t.Errorf("rested layer must read 0 without a problem: %v %v", r.problems, r.values)
	}

	r = newReport("w")
	r.set("a", 1)
	r.set("b", 1)
	r.set("c", 1)
	if r.check(defs, true); len(r.problems) != 1 {
		t.Errorf("unregistered metric: problems %v", r.problems)
	}
}
