package acf

import (
	"fmt"
	"math"
)

// Incremental defaults for IncrementalConfig fields left zero.
const (
	// DefaultIncrementalTolerance is the relative drift a sentinel check
	// may observe before the maintainer falls back to an exact FFT
	// resync. 1e-12 keeps the reported correlations well inside the 1e-9
	// band the differential tests pin against Analyzer.
	DefaultIncrementalTolerance = 1e-12
	// DefaultResyncFactor sizes the scheduled exact resync: every
	// capacity*DefaultResyncFactor slides when IncrementalConfig.
	// ResyncEvery is zero.
	DefaultResyncFactor = 4
)

// IncrementalConfig configures an Incremental ACF maintainer.
type IncrementalConfig struct {
	// Capacity is the sliding window's size in panes. Required, >= 4.
	Capacity int
	// MaxLag is the highest autocorrelation lag maintained. Required,
	// in [1, Capacity-1].
	MaxLag int
	// Tolerance is the relative drift allowed between the incrementally
	// maintained lagged product and an exactly recomputed one before the
	// maintainer resyncs through the FFT path. Zero means
	// DefaultIncrementalTolerance.
	Tolerance float64
	// ResyncEvery schedules an unconditional exact resync every this
	// many window slides, bounding worst-case drift even when the
	// rotating sentinel misses it. Zero means
	// Capacity*DefaultResyncFactor.
	ResyncEvery int
}

// IncrementalStats counts the maintainer's work and its resyncs, for
// observability and the drift-policy tests.
type IncrementalStats struct {
	Pushes           int64 // panes pushed
	Slides           int64 // pushes that evicted the oldest pane
	ScheduledResyncs int64 // exact resyncs on the ResyncEvery schedule
	DriftResyncs     int64 // exact resyncs forced by the drift sentinel
	OriginResyncs    int64 // exact resyncs forced by a stale shift origin
}

// originStaleRatio bounds how far the window mean may wander from the
// shift origin, measured against the window's own variance: a resync
// (which re-centers the origin) fires once mean² > ratio·(M2/n), i.e.
// |mean| beyond ~32 standard deviations. Past that point two error
// terms grow with mean²: the cancellation in the analytic demeaning
// (M2 = Σx'² − n·mean², and the covariance recovery subtracts
// O(n·mean²) terms to recover O(n·σ²) results), and the benign
// per-push rounding of the maintained sums (~eps·n·mean²), which must
// stay comfortably below the drift sentinel's tolerance·M2 budget or
// every query would resync. At ratio 1e3 both sit near 1e-13·M2 — an
// order of magnitude inside the 1e-12 default tolerance and four
// orders inside the documented 1e-9 agreement with Analyzer. Level
// steps (counter resets, unit changes, sensor rebases) are the trigger
// in practice.
const originStaleRatio = 1e3

// Incremental maintains the autocorrelation of a sliding pane window
// with O(MaxLag) work per arriving pane instead of the O(n log n) FFT
// recomputation Analyzer performs per refresh (the Gokcesu & Gokcesu
// style auto-regressive recurrence the ROADMAP names).
//
// It keeps, over the current window x_0..x_{n-1} (stored relative to a
// shifted origin to kill catastrophic cancellation):
//
//   - the pane moments: total = Σ x_i and sumsq = Σ x_i²,
//   - the raw lagged products S(τ) = Σ_{i=0..n-1-τ} x_i·x_{i+τ} for
//     τ = 1..MaxLag.
//
// A pane arrival updates every S(τ) with the rank-1 contribution of the
// new pane (and, once the window is full, removes the expiring pane's):
//
//	S(τ) += x_{n-τ}·x_new − x_0·x_τ
//
// Result then recovers the demeaned autocovariance analytically,
//
//	cov(τ) = S(τ) − mean·(2·total − head(τ) − tail(τ)) + (n−τ)·mean²
//
// where head/tail are the τ-element prefix and suffix sums, and
// normalizes by M2 = sumsq − n·mean² — algebraically identical to the
// estimator Analyzer computes through the Wiener–Khinchin round trip,
// so the two agree to floating-point rounding.
//
// Floating error accumulates in the running sums, so the maintainer
// resyncs exactly through the plan-based FFT path (the same RealPlan
// machinery Analyzer uses) in two cases: on a fixed slide schedule
// (ResyncEvery), and whenever a rotating per-query sentinel — one lag's
// S(τ) recomputed exactly per Result call — drifts beyond Tolerance.
//
// An Incremental is not safe for concurrent use; like Analyzer it is
// designed to be owned by a single stream operator. The Result it
// returns is overwritten by the next Result call.
type Incremental struct {
	cfg IncrementalConfig

	// ring holds the window values minus shift, chronologically from
	// head. shift is re-centered to the window mean at every resync so
	// the maintained sums stay near zero regardless of the stream's
	// absolute level.
	ring  []float64
	head  int
	count int
	shift float64

	total  float64   // Σ shifted values
	sumsq  float64   // Σ shifted values²
	lagSum []float64 // lagSum[τ] = S(τ) for τ in 1..MaxLag (index 0 unused)

	slidesSinceResync int
	sentinel          int  // rotating lag verified exactly per Result call
	dirty             bool // panes arrived since the last exact resync
	degenerate        bool // last origin resync still left M2 <= 0 (flatline)
	stats             IncrementalStats

	// Exact-resync engine: a real FFT of the raw (shifted, not demeaned)
	// window recovers every S(τ) in one O(n log n) pass — the same
	// Wiener–Khinchin machinery Analyzer runs per refresh.
	wk wkEngine

	// Result backing stores, reused across calls like Analyzer's. lin
	// is the window linearized chronologically (two copies, no modulo)
	// for the sentinel dot product and the prefix/suffix sums.
	lin   []float64
	corr  []float64
	peaks []int
	res   Result

	seeded bool // shift initialized from the first pane
}

// NewIncremental validates cfg and returns an empty maintainer.
func NewIncremental(cfg IncrementalConfig) (*Incremental, error) {
	if cfg.Capacity < 4 {
		return nil, fmt.Errorf("acf: incremental capacity %d (need >= 4)", cfg.Capacity)
	}
	if cfg.MaxLag < 1 || cfg.MaxLag >= cfg.Capacity {
		return nil, fmt.Errorf("acf: incremental max lag %d for capacity %d", cfg.MaxLag, cfg.Capacity)
	}
	if cfg.Tolerance <= 0 {
		cfg.Tolerance = DefaultIncrementalTolerance
	}
	if cfg.ResyncEvery <= 0 {
		cfg.ResyncEvery = cfg.Capacity * DefaultResyncFactor
	}
	return &Incremental{
		cfg:    cfg,
		ring:   make([]float64, cfg.Capacity),
		lagSum: make([]float64, cfg.MaxLag+1),
		lin:    make([]float64, cfg.Capacity),
		corr:   make([]float64, cfg.MaxLag+1),
	}, nil
}

// Reset empties the maintainer (keeping its buffers) so it can track a
// rebuilt window — the stream operator's Restore path.
func (inc *Incremental) Reset() {
	inc.head, inc.count = 0, 0
	inc.shift, inc.total, inc.sumsq = 0, 0, 0
	for i := range inc.lagSum {
		inc.lagSum[i] = 0
	}
	inc.slidesSinceResync = 0
	inc.sentinel = 0
	inc.dirty = false
	inc.degenerate = false
	inc.seeded = false
	inc.stats = IncrementalStats{}
}

// Len returns how many panes the window currently holds.
func (inc *Incremental) Len() int { return inc.count }

// Stats returns a copy of the maintainer's work counters.
func (inc *Incremental) Stats() IncrementalStats { return inc.stats }

// at returns the i-th chronological window value (shifted).
func (inc *Incremental) at(i int) float64 {
	return inc.ring[(inc.head+i)%len(inc.ring)]
}

// Push feeds one aggregated pane, evicting the oldest once the window
// is full. O(MaxLag).
func (inc *Incremental) Push(v float64) {
	inc.stats.Pushes++
	if !inc.seeded {
		// Center the origin on the first pane so a stream riding a large
		// offset (CPU temperatures, request totals) keeps the running
		// sums small from the start.
		inc.shift = v
		inc.seeded = true
	}
	sv := v - inc.shift
	maxLag := inc.cfg.MaxLag
	size := len(inc.ring)

	if inc.count == size {
		// Expire x_0: remove its pairs (x_0, x_τ) from every lagged sum
		// and its contribution to the moments.
		old := inc.at(0)
		for tau := 1; tau <= maxLag && tau < inc.count; tau++ {
			inc.lagSum[tau] -= old * inc.at(tau)
		}
		inc.total -= old
		inc.sumsq -= old * old
		inc.head = (inc.head + 1) % size
		inc.count--
		inc.stats.Slides++
		inc.slidesSinceResync++
	}

	// Append: the new pane pairs with the τ-th newest existing value.
	for tau := 1; tau <= maxLag && tau <= inc.count; tau++ {
		inc.lagSum[tau] += inc.at(inc.count-tau) * sv
	}
	inc.ring[(inc.head+inc.count)%size] = sv
	inc.count++
	inc.total += sv
	inc.sumsq += sv * sv
	inc.dirty = true

	if inc.slidesSinceResync >= inc.cfg.ResyncEvery {
		inc.resync()
		inc.stats.ScheduledResyncs++
	}
}

// linearize copies the window into inc.lin in chronological order (at
// most two straight copies, never a per-element modulo) and returns it.
func (inc *Incremental) linearize() []float64 {
	w := inc.lin[:inc.count]
	tail := len(inc.ring) - inc.head
	if inc.count <= tail {
		copy(w, inc.ring[inc.head:inc.head+inc.count])
	} else {
		n := copy(w, inc.ring[inc.head:])
		copy(w[n:], inc.ring[:inc.count-n])
	}
	return w
}

// exactLag recomputes S(τ) over the linearized window by direct
// summation — the drift sentinel's ground truth. O(n).
func exactLag(w []float64, tau int) float64 {
	var sum float64
	for i := 0; i+tau < len(w); i++ {
		sum += w[i] * w[i+tau]
	}
	return sum
}

// Result computes the ACF for lags 1..maxLag (clamped to both the
// configured MaxLag and count-1), detecting peaks exactly as Analyzer
// does. The returned Result is valid until the next call.
func (inc *Incremental) Result(maxLag int) (*Result, error) {
	n := inc.count
	if n < 2 || maxLag < 1 {
		return nil, ErrTooShort
	}
	if maxLag > inc.cfg.MaxLag {
		maxLag = inc.cfg.MaxLag
	}
	if maxLag > n-1 {
		maxLag = n - 1
	}

	w := inc.linearize()
	mean := inc.total / float64(n)
	m2 := inc.sumsq - float64(n)*mean*mean

	// Origin-staleness guard: when the stream's level has stepped far
	// from the shift origin (or cancellation already drove M2 to zero on
	// a non-recentered window), the analytic demeaning below would lose
	// precision catastrophically. Resync — it re-centers the origin on
	// the current mean — and recompute the moments from the fresh basis.
	// The degenerate latch breaks the retry loop a flatlined stream
	// would otherwise cause: once a resync fails to produce a positive
	// M2 the window is genuinely (or numerically) constant, and
	// re-centering again cannot help, so the guard stands down until a
	// query sees real variance again — without it, every refresh of an
	// idle series would pay a full FFT.
	if m2 > 0 {
		inc.degenerate = false
	}
	if inc.dirty && !inc.degenerate && (m2 <= 0 || mean*mean*float64(n) > originStaleRatio*m2) {
		inc.resync()
		inc.stats.OriginResyncs++
		w = inc.linearize()
		mean = inc.total / float64(n)
		m2 = inc.sumsq - float64(n)*mean*mean
		inc.degenerate = m2 <= 0
	}

	// Drift sentinel: verify one maintained lag exactly per query,
	// rotating through 1..maxLag so every lag is audited once per maxLag
	// queries. Drift matters relative to M2 — the denominator every
	// correlation is divided by — so that is the comparison scale (NOT
	// sumsq, which the allowed origin offset can inflate by orders of
	// magnitude over the variance, silently loosening the audit).
	if inc.dirty {
		inc.sentinel++
		if inc.sentinel > maxLag {
			inc.sentinel = 1
		}
		exact := exactLag(w, inc.sentinel)
		scale := m2
		if scale < 1 {
			scale = 1
		}
		if math.Abs(exact-inc.lagSum[inc.sentinel]) > inc.cfg.Tolerance*scale {
			inc.resync()
			inc.stats.DriftResyncs++
			w = inc.linearize() // resync re-centered the stored values
			mean = inc.total / float64(n)
			m2 = inc.sumsq - float64(n)*mean*mean
		}
	}

	corr := inc.corr[:maxLag+1]
	if m2 <= 0 {
		// Genuinely constant (or numerically constant even at a fresh
		// origin) window: undefined ACF, reported as all-zero with no
		// peaks, matching Analyzer.
		for i := range corr {
			corr[i] = 0
		}
		inc.res = Result{Correlations: corr}
		return &inc.res, nil
	}

	corr[0] = 1
	inv := 1 / m2
	var headSum, tailSum float64
	for tau := 1; tau <= maxLag; tau++ {
		headSum += w[tau-1]
		tailSum += w[n-tau]
		cov := inc.lagSum[tau] - mean*(2*inc.total-headSum-tailSum) + float64(n-tau)*mean*mean
		corr[tau] = cov * inv
	}

	peaks, maxACF := appendPeaks(inc.peaks[:0], corr)
	inc.peaks = peaks
	inc.res = Result{Correlations: corr, Peaks: peaks, MaxACF: maxACF}
	return &inc.res, nil
}

// resync recomputes every maintained sum exactly: the origin is
// re-centered on the current window mean, the moments are resummed, and
// the raw lagged products are rebuilt through the plan-based real FFT
// (|FFT(x)|² of the raw shifted window is exactly the full set of S(τ)
// — no demeaning, the analytic query handles the mean). This is the
// same fallback path a cold start would take, so drift can never
// outlive one resync.
func (inc *Incremental) resync() {
	n := inc.count
	if n == 0 {
		inc.slidesSinceResync = 0
		return
	}

	// Re-center: new stored values are x_i - mean(x), pulling the origin
	// back onto the window so the sums stay cancellation-free.
	mean := inc.total / float64(n)
	for i := 0; i < n; i++ {
		inc.ring[(inc.head+i)%len(inc.ring)] -= mean
	}
	inc.shift += mean

	// The resync reads every lag, so the engine keeps the full 2n size.
	if err := inc.wk.resize(n, n-1); err != nil {
		// NextPow2 output is always a valid plan size; unreachable, but
		// never panic in a hot path.
		return
	}
	w := inc.linearize()
	var total, sumsq float64
	for _, v := range w {
		total += v
		sumsq += v * v
	}
	inc.total, inc.sumsq = total, sumsq

	cov := inc.wk.lagProducts(w, 0)
	for tau := 1; tau <= inc.cfg.MaxLag; tau++ {
		if tau < n {
			inc.lagSum[tau] = cov[tau]
		} else {
			inc.lagSum[tau] = 0
		}
	}
	inc.slidesSinceResync = 0
	inc.dirty = false
}
