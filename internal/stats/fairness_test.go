package stats

import "testing"

func TestJainIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0}, 1},
		{[]float64{2, 2, 2, 2}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
	}
	for _, tc := range cases {
		if got := JainIndex(tc.xs); got != tc.want {
			t.Errorf("JainIndex(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	// Unequal but nonzero: strictly between 1/n and 1.
	got := JainIndex([]float64{1, 2})
	if got <= 0.5 || got >= 1 {
		t.Errorf("JainIndex(1,2) = %g, want in (0.5, 1)", got)
	}
}
