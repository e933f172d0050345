// Package stats provides the moment statistics that ASAP's quality metrics
// are built from: mean, variance, standard deviation, kurtosis (the fourth
// standardized moment), first differences, and the roughness measure
// sigma(delta X) defined in Section 3.1 of the paper.
//
// All statistics are population statistics (divide by n, not n-1), matching
// the definitions used in the paper and its reference implementations.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that cannot compute a statistic on an
// empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Kahan-compensated summation: time series of millions of points can
	// lose several digits with a naive running sum.
	sum, comp := 0.0, 0.0
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for inputs with
// fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum, comp := 0.0, 0.0
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Moments holds the first four central moments of a sample, sufficient to
// compute every statistic ASAP needs in a single pass.
type Moments struct {
	N    int
	Mean float64
	M2   float64 // sum of (x-mean)^2
	M3   float64 // sum of (x-mean)^3
	M4   float64 // sum of (x-mean)^4
}

// ComputeMoments returns the first four central moments of xs in one pass
// using the numerically stable streaming update (Welford generalized to
// higher moments, cf. Pébay 2008).
func ComputeMoments(xs []float64) Moments {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return m
}

// Add folds one observation into the moments.
func (m *Moments) Add(x float64) {
	n1 := float64(m.N)
	m.N++
	n := float64(m.N)
	delta := x - m.Mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.Mean += deltaN
	m.M4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.M2 - 4*deltaN*m.M3
	m.M3 += term1*deltaN*(n-2) - 3*deltaN*m.M2
	m.M2 += term1
}

// Moments2 is the N, Mean and M2 part of Moments: the accumulator for
// callers that need only the variance (the roughness of a difference
// series). Its Add runs Moments.Add's N, Mean and M2 lines verbatim, and
// those lines never read M3 or M4, so Moments2 and Moments agree bit for
// bit on N, Mean, M2 and every statistic derived from them, without the
// M3 and M4 arithmetic.
type Moments2 struct {
	N    int
	Mean float64
	M2   float64 // sum of (x-mean)^2
}

// Add folds one observation into the moments.
func (m *Moments2) Add(x float64) {
	n1 := float64(m.N)
	m.N++
	n := float64(m.N)
	delta := x - m.Mean
	deltaN := delta / n
	term1 := delta * deltaN * n1
	m.Mean += deltaN
	m.M2 += term1
}

// Variance returns the population variance implied by the moments.
func (m Moments2) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N)
}

// StdDev returns the population standard deviation implied by the moments.
func (m Moments2) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Merge combines two moment sketches as if their underlying samples were
// concatenated. Merging with an empty sketch is the identity.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	na, nb := float64(m.N), float64(o.N)
	n := na + nb
	delta := o.Mean - m.Mean
	delta2 := delta * delta
	delta3 := delta2 * delta
	delta4 := delta2 * delta2

	m4 := m.M4 + o.M4 +
		delta4*na*nb*(na*na-na*nb+nb*nb)/(n*n*n) +
		6*delta2*(na*na*o.M2+nb*nb*m.M2)/(n*n) +
		4*delta*(na*o.M3-nb*m.M3)/n
	m3 := m.M3 + o.M3 +
		delta3*na*nb*(na-nb)/(n*n) +
		3*delta*(na*o.M2-nb*m.M2)/n
	m2 := m.M2 + o.M2 + delta2*na*nb/n

	m.Mean = (na*m.Mean + nb*o.Mean) / n
	m.M2, m.M3, m.M4 = m2, m3, m4
	m.N = int(n)
}

// Variance returns the population variance implied by the moments.
func (m Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	return m.M2 / float64(m.N)
}

// StdDev returns the population standard deviation implied by the moments.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Kurtosis returns the fourth standardized moment E[(X-mu)^4] / E[(X-mu)^2]^2.
// A normal distribution has kurtosis 3. Inputs with zero variance (all
// values equal) return 0 by convention; callers treat such series as
// "nothing to preserve" (a flat line has no deviations to keep).
func (m Moments) Kurtosis() float64 {
	if m.N < 2 || m.M2 == 0 {
		return 0
	}
	n := float64(m.N)
	return n * m.M4 / (m.M2 * m.M2)
}

// Kurtosis returns the population kurtosis (fourth standardized moment) of
// xs. See Moments.Kurtosis for conventions.
func Kurtosis(xs []float64) float64 {
	return ComputeMoments(xs).Kurtosis()
}

// Diff returns the first difference series {x2-x1, x3-x2, ...} (Section 3.1).
// The result has length len(xs)-1; an input shorter than 2 yields nil.
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	d := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		d[i-1] = xs[i] - xs[i-1]
	}
	return d
}

// Roughness returns the standard deviation of the first difference series,
// the paper's inverse-smoothness measure (Section 3.1). A straight line has
// roughness exactly 0. Inputs shorter than 3 points return 0.
func Roughness(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	// One-pass over differences; avoids materializing Diff.
	var m Moments2
	for i := 1; i < len(xs); i++ {
		m.Add(xs[i] - xs[i-1])
	}
	return m.StdDev()
}

// Covariance returns the population covariance of the paired samples xs and
// ys. It returns an error when the lengths differ or the input is empty.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: covariance inputs must have equal length")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	sum, comp := 0.0, 0.0
	for i := range xs {
		y := (xs[i]-mx)*(ys[i]-my) - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs)), nil
}

// ZScores returns (x - mean) / std for every point. When the input has zero
// variance, it returns a zero slice of the same length (the z-score of a
// constant series is identically zero). The paper plots z-scores instead of
// raw values to normalize the visual field across plots (Section 1, fn. 1).
func ZScores(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	m := ComputeMoments(xs)
	sd := m.StdDev()
	if sd == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - m.Mean) / sd
	}
	return out
}

// MinMax returns the smallest and largest values in xs. It returns an error
// for empty input.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}
