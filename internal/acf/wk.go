package acf

import "github.com/asap-go/asap/internal/fft"

// wkEngine owns one Wiener–Khinchin round trip: a real FFT plan sized
// for linear (non-circular) autocorrelation of an n-point series up to
// a maximum lag, plus every scratch buffer the trip needs. It is the
// machinery shared by Analyzer (which runs it per refresh on the
// demeaned window) and Incremental.resync (which runs it on the raw
// shifted window to rebuild the maintained lagged products) — one copy
// of the plan sizing and power-spectrum pipeline, so kernel changes
// (radix-4, split-complex) land in both consumers at once.
type wkEngine struct {
	m    int           // FFT length, NextPow2(n + maxLag + 1)
	plan *fft.RealPlan // shared real transform of length m
	rbuf []float64     // (shifted) zero-padded input, length m
	spec []complex128  // half spectrum / power spectrum
	cov  []float64     // lagged products by lag, length m
}

// resize sizes the engine for an n-point series read up to lag maxLag
// (at most n-1); calls that keep the FFT length do nothing. The plan
// comes from the process-wide cache, so only the scratch is per engine.
func (e *wkEngine) resize(n, maxLag int) error {
	m := fft.NextPow2(n + maxLag + 1)
	if m == e.m && e.plan != nil {
		return nil
	}
	plan, err := fft.RealPlanFor(m)
	if err != nil {
		return err
	}
	e.plan = plan
	e.m = m
	e.rbuf = make([]float64, m)
	e.spec = make([]complex128, plan.SpectrumLen())
	e.cov = make([]float64, m)
	return nil
}

// lagProducts computes cov[τ] = Σ_{i} (xs[i]−shift)·(xs[i+τ]−shift)
// for every lag τ <= maxLag into the engine's cov buffer and returns it
// (valid until the next call; entries past maxLag are not linear
// products). resize(len(xs), maxLag) must have succeeded first.
//
// Zero-padding to m > n + maxLag makes the circular correlation linear
// for every lag the caller reads: the circular sum at lag τ wraps only
// products x[i]·x[i+τ−m], which need i+τ−m >= 0 with i <= n−1, i.e.
// τ >= m−n+1 > maxLag. Sizing to the lags read rather than to 2n
// halves the served shape's transform (n = 800, maxLag = 82: 1024
// points instead of 2048).
func (e *wkEngine) lagProducts(xs []float64, shift float64) []float64 {
	for i, x := range xs {
		e.rbuf[i] = x - shift
	}
	for i := len(xs); i < e.m; i++ {
		e.rbuf[i] = 0
	}
	e.plan.Forward(e.spec, e.rbuf)
	for i, c := range e.spec {
		re, im := real(c), imag(c)
		e.spec[i] = complex(re*re+im*im, 0)
	}
	e.plan.Inverse(e.cov, e.spec)
	return e.cov
}
