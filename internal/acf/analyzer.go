package acf

import (
	"github.com/asap-go/asap/internal/stats"
)

// Analyzer computes autocorrelations repeatedly — one series window after
// another, as the streaming refresh path does — without per-call
// allocation. It owns every scratch buffer the Wiener–Khinchin round
// trip needs over a shared real-input FFT plan (fft.RealPlanFor), and
// returns a Result whose slices it also owns and reuses.
//
// An Analyzer produces results identical to the package-level Compute
// (Compute is a one-shot Analyzer). It sizes itself lazily to the series
// it is given: the first call, and any call that changes the series
// length or lag count so that the FFT length changes, fetches the shared
// plan for the new length and rebuilds the scratch buffers; calls at a
// steady shape allocate nothing. That matches the stream operator's life
// cycle — the window grows while the ring fills, then stays at capacity
// forever.
//
// The returned Result (including Correlations and Peaks) is overwritten
// by the next Compute call. An Analyzer is not safe for concurrent use;
// it is designed to be owned by a single stream operator.
type Analyzer struct {
	wk wkEngine // the Wiener–Khinchin round trip (shared plan + own scratch)

	corr  []float64 // Result.Correlations backing store
	peaks []int     // Result.Peaks backing store
	res   Result
}

// NewAnalyzer returns an empty Analyzer; buffers are built on first use.
func NewAnalyzer() *Analyzer { return &Analyzer{} }

// Compute returns the ACF of xs for lags 1..maxLag exactly as the
// package-level Compute does, reusing the Analyzer's plan and buffers.
// The result is valid until the next call.
func (a *Analyzer) Compute(xs []float64, maxLag int) (*Result, error) {
	n := len(xs)
	if n < 2 || maxLag < 1 {
		return nil, ErrTooShort
	}
	if maxLag > n-1 {
		maxLag = n - 1
	}
	if err := a.resize(n, maxLag); err != nil {
		return nil, err
	}
	corr := a.corr[:maxLag+1]

	// Single pass for mean and the sum of squared deviations (the ACF
	// denominator), shared with ComputeBruteForce and handed on to the
	// search in Result.Moments.
	mom := stats.ComputeMoments(xs)
	if mom.M2 == 0 {
		// Constant series: undefined ACF, reported as all-zero, no peaks.
		for i := range corr {
			corr[i] = 0
		}
		a.res = Result{Correlations: corr, Moments: mom}
		return &a.res, nil
	}

	// Wiener–Khinchin: autocovariance = IFFT(|FFT(x - mean)|^2), zero-
	// padded past n + maxLag so the circular correlation is linear at
	// every lag read. The series is real, so the whole round trip runs
	// at half size through the RealPlan (shared with Incremental's
	// resync via wkEngine).
	cov := a.wk.lagProducts(xs, mom.Mean)

	corr[0] = 1
	inv := 1 / mom.M2
	for tau := 1; tau <= maxLag; tau++ {
		corr[tau] = cov[tau] * inv
	}

	peaks, maxACF := appendPeaks(a.peaks[:0], corr)
	a.peaks = peaks
	a.res = Result{Correlations: corr, Peaks: peaks, MaxACF: maxACF, Moments: mom}
	return &a.res, nil
}

// resize (re)sizes the engine when the series length or lag count
// changes, and grows the correlation store to cover maxLag.
// Steady-state calls (same n and maxLag) do nothing.
func (a *Analyzer) resize(n, maxLag int) error {
	if err := a.wk.resize(n, maxLag); err != nil {
		return err
	}
	if cap(a.corr) < maxLag+1 {
		a.corr = make([]float64, maxLag+1)
	}
	return nil
}
