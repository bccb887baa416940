// Package stats provides the small set of descriptive statistics and
// fitting helpers the experiment harness uses to summarise measured
// latencies and to compare their scaling shape against the paper's bounds.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than two
// values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs (+Inf for an empty slice).
func Min(xs []float64) float64 {
	out := math.Inf(1)
	for _, x := range xs {
		if x < out {
			out = x
		}
	}
	return out
}

// Max returns the maximum of xs (-Inf for an empty slice).
func Max(xs []float64) float64 {
	out := math.Inf(-1)
	for _, x := range xs {
		if x > out {
			out = x
		}
	}
	return out
}

// Quantile returns the q-quantile of xs (q in [0, 1]) using linear
// interpolation between order statistics. It returns 0 for an empty slice
// and panics if q is outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0, 1]", q))
	}
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Fit is a least-squares linear fit y ≈ Slope·x + Intercept.
type Fit struct {
	// Slope and Intercept are the fitted coefficients.
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// LinearFit fits y ≈ a·x + b by ordinary least squares. It returns an error
// when the inputs have mismatched lengths or fewer than two points, or when
// all x values coincide.
func LinearFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(x), len(y))
	}
	if len(x) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least two points, got %d", len(x))
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: all x values identical")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	r2 := 1.0
	if syy > 0 {
		var ssRes float64
		for i := range x {
			pred := slope*x[i] + intercept
			d := y[i] - pred
			ssRes += d * d
		}
		r2 = 1 - ssRes/syy
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}, nil
}

// LogLogSlope fits log(y) ≈ s·log(x) + c and returns s: the empirical
// polynomial growth exponent of y as a function of x. Non-positive values
// are rejected with an error.
func LogLogSlope(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: mismatched lengths %d and %d", len(x), len(y))
	}
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if x[i] <= 0 || y[i] <= 0 {
			return 0, fmt.Errorf("stats: log-log fit requires positive values (x=%v, y=%v)", x[i], y[i])
		}
		lx = append(lx, math.Log(x[i]))
		ly = append(ly, math.Log(y[i]))
	}
	fit, err := LinearFit(lx, ly)
	if err != nil {
		return 0, err
	}
	return fit.Slope, nil
}

// GrowthRatio returns y[last]/y[first] normalised by x[last]/x[first]: a
// value near 1 means y grows proportionally to x, a value near 0 means y is
// (nearly) flat in x. It returns an error on bad input.
func GrowthRatio(x, y []float64) (float64, error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, fmt.Errorf("stats: GrowthRatio needs two aligned points, got %d/%d", len(x), len(y))
	}
	x0, x1 := x[0], x[len(x)-1]
	y0, y1 := y[0], y[len(y)-1]
	if x0 <= 0 || y0 <= 0 || x1 <= x0 {
		return 0, fmt.Errorf("stats: GrowthRatio requires positive, increasing x and positive y")
	}
	return (y1 / y0) / (x1 / x0), nil
}
