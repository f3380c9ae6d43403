// Package stats holds the one quantile rule that the benchmark and its
// comparator share, so that a median or quartile means the same in a
// result line as in a comparison.
package stats

import "sort"

// Quantile returns cut point q of n (q = 1..n-1) of xs, as Python's
// statistics.quantiles(xs, n=n) gives it with its default exclusive
// method. A single sample is every cut point; no samples give 0.
func Quantile(xs []float64, q, n int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	m := len(s) + 1
	j := q * m / n
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := q*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// Median is Quantile(xs, 1, 2).
func Median(xs []float64) float64 { return Quantile(xs, 1, 2) }
