package stats

import (
	"math"
	"testing"
	"testing/quick"

	"sinrmac/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStddev(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{5}) != 0 {
		t.Fatal("empty/singleton moments not zero")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty Min/Max not infinite")
	}
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile not zero")
	}
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); !almostEqual(got, tc.want, 1e-9) {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Median([]float64{4, 1, 3, 2}); !almostEqual(got, 2.5, 1e-9) {
		t.Fatalf("Median = %v", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Fatalf("singleton quantile = %v", got)
	}
	// Input order must not matter.
	if Quantile([]float64{5, 1, 3}, 0.5) != Quantile([]float64{1, 3, 5}, 0.5) {
		t.Fatal("Quantile depends on input order")
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 3, 1e-9) || !almostEqual(fit.R2, 1, 1e-9) {
		t.Fatalf("fit = %+v", fit)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	src := rng.New(1)
	var x, y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 3*xi+10+src.NormFloat64()*5)
	}
	fit, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-3) > 0.1 {
		t.Fatalf("slope = %v, want ~3", fit.Slope)
	}
	if fit.R2 < 0.98 {
		t.Fatalf("R2 = %v", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("constant x accepted")
	}
}

func TestLogLogSlope(t *testing.T) {
	// y = x² has log-log slope 2.
	var x, y []float64
	for i := 1; i <= 20; i++ {
		x = append(x, float64(i))
		y = append(y, float64(i*i))
	}
	s, err := LogLogSlope(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s, 2, 1e-9) {
		t.Fatalf("slope = %v, want 2", s)
	}
	if _, err := LogLogSlope([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := LogLogSlope([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestGrowthRatio(t *testing.T) {
	// y doubles while x quadruples: ratio 0.5.
	r, err := GrowthRatio([]float64{1, 2, 4}, []float64{10, 15, 20})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 0.5, 1e-9) {
		t.Fatalf("GrowthRatio = %v", r)
	}
	if _, err := GrowthRatio([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := GrowthRatio([]float64{2, 1}, []float64{1, 1}); err == nil {
		t.Fatal("decreasing x accepted")
	}
}

// Property: the median always lies between min and max, and the mean of a
// permuted slice equals the mean of the original.
func TestQuickSummaryInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		src := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Float64()*200 - 100
		}
		lo, hi, med, mean := Min(xs), Max(xs), Median(xs), Mean(xs)
		if med < lo-1e-9 || med > hi+1e-9 {
			return false
		}
		if mean < lo-1e-9 || mean > hi+1e-9 {
			return false
		}
		shuffled := append([]float64(nil), xs...)
		src.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return almostEqual(Mean(shuffled), mean, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = src.Float64() * 1000
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
