package benchmark

import (
	"math"
	"sort"
)

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs, interpolating
// linearly between the two closest ranks. xs is not modified. NaN for an
// empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

// Median is Percentile(xs, 0.5).
func Median(xs []float64) float64 { return Percentile(xs, 0.5) }

// Summary is one metric's value with the spread it was taken from: the
// median of N samples (or blocks of samples) and their minimum and maximum.
type Summary struct {
	Value float64 `json:"value"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	N     int     `json:"n"`
}

// Summarize reduces samples to their median and min/max.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{Value: math.NaN(), Lo: math.NaN(), Hi: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{Value: percentileSorted(s, 0.5), Lo: s[0], Hi: s[len(s)-1], N: len(s)}
}

// Blocked computes stat over the whole sample and over k consecutive
// blocks of it; the block results give the spread (min/max) around the
// whole-sample value. A run's percentile thereby carries an estimate of
// how much it would move on a shorter run, without a second process.
func Blocked(xs []float64, k int, stat func([]float64) float64) Summary {
	out := Summary{Value: stat(xs), N: len(xs)}
	out.Lo, out.Hi = out.Value, out.Value
	if k < 2 || len(xs) < k {
		return out
	}
	size := len(xs) / k
	for b := 0; b < k; b++ {
		hi := (b + 1) * size
		if b == k-1 {
			hi = len(xs)
		}
		v := stat(xs[b*size : hi])
		out.Lo = math.Min(out.Lo, v)
		out.Hi = math.Max(out.Hi, v)
	}
	return out
}
