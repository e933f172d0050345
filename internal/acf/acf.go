// Package acf computes the autocorrelation function of a time series and
// detects its peaks, the machinery behind ASAP's autocorrelation pruning
// (Section 4.3 of the paper).
//
// The ACF at lag tau is estimated as
//
//	ACF(X, tau) = sum_{i=1..N-tau} (x_i - mean)(x_{i+tau} - mean) / sum_i (x_i - mean)^2
//
// which matches the estimator in Appendix A.1. Computing all lags naively is
// O(n^2); Compute uses the Wiener–Khinchin theorem (two FFTs over the
// zero-padded, demeaned series) for O(n log n), the optimization the paper
// credits for making peak-based pruning cheaper than the search it prunes.
package acf

import (
	"errors"
	"math"

	"github.com/asap-go/asap/internal/stats"
)

// ErrTooShort is returned when the series is too short for autocorrelation
// analysis (fewer than two points, or zero requested lags).
var ErrTooShort = errors.New("acf: series too short")

// CorrelationThreshold is the minimum autocorrelation a local maximum must
// reach to count as a periodicity peak. Peaks below this level are noise;
// the value matches the threshold used by the reference implementations of
// the paper.
const CorrelationThreshold = 0.2

// Result holds the autocorrelation function of a series and its detected
// peaks.
type Result struct {
	// Correlations[tau] is the ACF estimate at lag tau. Correlations[0] is
	// always 1 for non-constant series. Length is maxLag+1.
	Correlations []float64
	// Peaks are lags that are local maxima of the ACF above
	// CorrelationThreshold, in increasing lag order. These are ASAP's
	// candidate window lengths.
	Peaks []int
	// MaxACF is the largest peak correlation (0 when there are no peaks).
	// It feeds the lower-bound pruning rule (Equation 6).
	MaxACF float64
	// Moments are the series' single-pass moments, whose mean and M2 are
	// the ACF's centre and denominator, kept so a search over the same
	// series need not recompute them. Incremental leaves them zero
	// (N == 0): it maintains only the first two.
	Moments stats.Moments
}

// Compute returns the ACF of xs for lags 1..maxLag using FFT-based
// estimation, along with detected peaks. maxLag is clamped to len(xs)-1.
//
// Compute is the one-shot form of Analyzer: it builds the FFT plan and
// scratch buffers, uses them once, and lets them go. Callers that compute
// ACFs repeatedly (the streaming refresh path) should hold an Analyzer
// instead, which reuses all of that state and allocates nothing at steady
// state while producing identical results.
//
// Constant series (zero variance) have an undefined ACF; Compute returns a
// Result with all correlations zero and no peaks, which makes ASAP fall
// back to binary search — the correct behaviour, since a constant series
// has no periodicity to exploit.
func Compute(xs []float64, maxLag int) (*Result, error) {
	return NewAnalyzer().Compute(xs, maxLag)
}

// ComputeBruteForce is the O(n*maxLag) reference estimator, retained for
// differential testing and for the ablation benchmarks that quantify the
// FFT speedup. It shares Compute's single-pass moment estimates for the
// mean and the normalizing sum of squared deviations, so the two
// estimators differ only by the transform.
func ComputeBruteForce(xs []float64, maxLag int) (*Result, error) {
	n := len(xs)
	if n < 2 || maxLag < 1 {
		return nil, ErrTooShort
	}
	if maxLag > n-1 {
		maxLag = n - 1
	}
	corr := make([]float64, maxLag+1)
	mom := stats.ComputeMoments(xs)
	mean, denom := mom.Mean, mom.M2
	if denom == 0 {
		return &Result{Correlations: corr, Moments: mom}, nil
	}
	corr[0] = 1
	for tau := 1; tau <= maxLag; tau++ {
		var num float64
		for i := 0; i+tau < n; i++ {
			num += (xs[i] - mean) * (xs[i+tau] - mean)
		}
		corr[tau] = num / denom
	}
	res := &Result{Correlations: corr, Moments: mom}
	res.Peaks, res.MaxACF = FindPeaks(corr)
	return res, nil
}

// FindPeaks returns the lags in corr (excluding lag 0) that are local
// maxima above CorrelationThreshold, plus the maximum peak value. A point
// is a local maximum when it is strictly greater than one neighbor and at
// least as large as the other, which tolerates the flat-topped peaks that
// preaggregated series produce.
func FindPeaks(corr []float64) (peaks []int, maxACF float64) {
	return appendPeaks(nil, corr)
}

// appendPeaks appends detected peaks to dst (the allocation-free core of
// FindPeaks; the Analyzer passes a reused buffer).
func appendPeaks(dst []int, corr []float64) (peaks []int, maxACF float64) {
	peaks = dst
	for tau := 1; tau < len(corr)-1; tau++ {
		c := corr[tau]
		if c < CorrelationThreshold {
			continue
		}
		left, right := corr[tau-1], corr[tau+1]
		if (c > left && c >= right) || (c >= left && c > right) {
			peaks = append(peaks, tau)
			if c > maxACF {
				maxACF = c
			}
		}
	}
	return peaks, maxACF
}

// At returns the ACF value at the given lag, or 0 when out of range. It
// lets search code index the ACF without bounds bookkeeping.
func (r *Result) At(lag int) float64 {
	if lag < 0 || lag >= len(r.Correlations) {
		return 0
	}
	return r.Correlations[lag]
}

// EstimateRoughness evaluates Equation 5 of the paper: the predicted
// roughness of SMA(X, w) for a weakly stationary series X with standard
// deviation sigma and N points:
//
//	roughness(Y) = sqrt(2)*sigma/w * sqrt(1 - N/(N-w) * ACF(X, w))
//
// When the term under the square root is negative (possible because the
// ACF is an estimate), it is clamped to zero. The estimate lets ASAP prune
// candidate windows without smoothing (IsRougher in Algorithm 1).
func (r *Result) EstimateRoughness(sigma float64, n, w int) float64 {
	if w <= 0 || w >= n {
		return math.Inf(1)
	}
	term := 1 - float64(n)/float64(n-w)*r.At(w)
	if term < 0 {
		term = 0
	}
	return math.Sqrt2 * sigma / float64(w) * math.Sqrt(term)
}
