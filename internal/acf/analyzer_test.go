package acf

import (
	"math"
	"math/bits"
	"math/cmplx"
	"testing"

	"github.com/asap-go/asap/internal/fft"
	"github.com/asap-go/asap/internal/stats"
)

// legacyRadix2 is the pre-plan FFT kernel, kept verbatim: an iterative
// in-place Cooley–Tukey that recomputes each stage's twiddles by repeated
// complex multiplication. It anchors the before/after benchmark and the
// differential test to what the refresh path actually ran before this
// engine existed.
func legacyRadix2(xs []complex128, inverse bool) {
	n := len(xs)
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
		if j > i {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		angle := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, angle))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := xs[start+k]
				b := xs[start+k+half] * w
				xs[start+k] = a + b
				xs[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// computePrePlan is the refresh path's ACF estimator as it existed before
// the plan/analyzer engine: a full-size complex FFT round trip on the
// legacy iterated-twiddle kernel with three freshly allocated
// NextPow2(2n)-sized complex buffers and separate mean and variance
// passes. It is the differential baseline for correctness and for
// BenchmarkACFPlan's before/after comparison.
func computePrePlan(xs []float64, maxLag int) (*Result, error) {
	n := len(xs)
	if n < 2 || maxLag < 1 {
		return nil, ErrTooShort
	}
	if maxLag > n-1 {
		maxLag = n - 1
	}
	corr := make([]float64, maxLag+1)
	variance := stats.Variance(xs) * float64(n)
	if variance == 0 {
		return &Result{Correlations: corr}, nil
	}
	mean := stats.Mean(xs)
	m := fft.NextPow2(2 * n)
	buf := make([]complex128, m)
	for i, x := range xs {
		buf[i] = complex(x-mean, 0)
	}
	f := make([]complex128, m)
	copy(f, buf)
	legacyRadix2(f, false)
	for i, c := range f {
		re, im := real(c), imag(c)
		f[i] = complex(re*re+im*im, 0)
	}
	inv := make([]complex128, m)
	copy(inv, f)
	legacyRadix2(inv, true)
	scale := 1 / float64(m)
	corr[0] = 1
	for tau := 1; tau <= maxLag; tau++ {
		corr[tau] = real(inv[tau]) * scale / variance
	}
	res := &Result{Correlations: corr}
	res.Peaks, res.MaxACF = FindPeaks(corr)
	return res, nil
}

// TestAnalyzerMatchesCompute pins the reusable analyzer to the one-shot
// Compute bit for bit — they must run the identical code path — across
// repeated calls with changing series lengths.
func TestAnalyzerMatchesCompute(t *testing.T) {
	a := NewAnalyzer()
	for _, n := range []int{10, 64, 100, 257, 100, 1000, 64} {
		xs := sine(n, 16, 0.3, int64(n))
		maxLag := n / 2
		got, err := a.Compute(xs, maxLag)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := Compute(xs, maxLag)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got.Correlations) != len(want.Correlations) {
			t.Fatalf("n=%d: %d correlations, want %d", n, len(got.Correlations), len(want.Correlations))
		}
		for tau := range want.Correlations {
			if got.Correlations[tau] != want.Correlations[tau] {
				t.Fatalf("n=%d tau=%d: analyzer %v != compute %v",
					n, tau, got.Correlations[tau], want.Correlations[tau])
			}
		}
		if len(got.Peaks) != len(want.Peaks) {
			t.Fatalf("n=%d: peaks %v, want %v", n, got.Peaks, want.Peaks)
		}
		for i := range want.Peaks {
			if got.Peaks[i] != want.Peaks[i] {
				t.Fatalf("n=%d: peaks %v, want %v", n, got.Peaks, want.Peaks)
			}
		}
		if got.MaxACF != want.MaxACF {
			t.Fatalf("n=%d: MaxACF %v, want %v", n, got.MaxACF, want.MaxACF)
		}
	}
}

// TestAnalyzerFFTSizedToLags checks the length rule: the transform is
// NextPow2(n + maxLag + 1), the shortest zero padding at which circular
// correlation equals linear correlation at every lag read, and every
// lag still matches the brute-force estimator. The cases sit on both
// sides of the power-of-two edges, where one lag more doubles the size.
func TestAnalyzerFFTSizedToLags(t *testing.T) {
	cases := []struct{ n, maxLag, m int }{
		{800, 82, 1024}, // the served shape
		{100, 27, 128},  // n + maxLag + 1 exactly a power of two
		{100, 28, 256},  // one lag more
		{64, 63, 128},   // every lag: the old 2n size
		{5, 2, 8},
		{1000, 23, 1024},
		{1000, 24, 2048},
	}
	for _, c := range cases {
		xs := sine(c.n, 12, 0.3, int64(c.n+c.maxLag))
		a := NewAnalyzer()
		got, err := a.Compute(xs, c.maxLag)
		if err != nil {
			t.Fatal(err)
		}
		if a.wk.m != c.m {
			t.Errorf("n=%d maxLag=%d: FFT length %d, want %d", c.n, c.maxLag, a.wk.m, c.m)
		}
		want, err := ComputeBruteForce(xs, c.maxLag)
		if err != nil {
			t.Fatal(err)
		}
		for tau := 0; tau <= c.maxLag; tau++ {
			if d := math.Abs(got.Correlations[tau] - want.Correlations[tau]); d > 1e-9 {
				t.Errorf("n=%d maxLag=%d tau=%d: fft %v, brute %v (diff %g)",
					c.n, c.maxLag, tau, got.Correlations[tau], want.Correlations[tau], d)
			}
		}
		if got.Moments != stats.ComputeMoments(xs) {
			t.Errorf("n=%d: Result.Moments %+v, want the series' moments", c.n, got.Moments)
		}
	}
}

// TestAnalyzersSharePlans: the plan is process-wide per length, so a
// second analyzer at the same shape holds only its own scratch.
func TestAnalyzersSharePlans(t *testing.T) {
	xs := sine(800, 40, 0.2, 3)
	a, b := NewAnalyzer(), NewAnalyzer()
	if _, err := a.Compute(xs, 82); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Compute(xs, 82); err != nil {
		t.Fatal(err)
	}
	if a.wk.plan != b.wk.plan {
		t.Error("two analyzers at one shape built separate FFT plans")
	}
	if &a.wk.rbuf[0] == &b.wk.rbuf[0] {
		t.Error("two analyzers share scratch")
	}
}

// TestAnalyzerMatchesPrePlan checks the new real-FFT engine against the
// historical full-complex implementation to FFT accuracy.
func TestAnalyzerMatchesPrePlan(t *testing.T) {
	a := NewAnalyzer()
	for _, n := range []int{16, 100, 513, 2048} {
		xs := sine(n, 24, 0.4, int64(n)+5)
		maxLag := n / 2
		got, err := a.Compute(xs, maxLag)
		if err != nil {
			t.Fatal(err)
		}
		want, err := computePrePlan(xs, maxLag)
		if err != nil {
			t.Fatal(err)
		}
		for tau := range want.Correlations {
			if d := math.Abs(got.Correlations[tau] - want.Correlations[tau]); d > 1e-9 {
				t.Errorf("n=%d tau=%d: analyzer %v vs pre-plan %v (diff %g)",
					n, tau, got.Correlations[tau], want.Correlations[tau], d)
			}
		}
	}
}

func TestAnalyzerConstantSeries(t *testing.T) {
	a := NewAnalyzer()
	// Prime the scratch buffers with a non-trivial series first, so the
	// constant-series path must actively clear them.
	if _, err := a.Compute(sine(100, 10, 0.2, 1), 50); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 3.25
	}
	res, err := a.Compute(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Peaks) != 0 {
		t.Errorf("constant series produced peaks: %v", res.Peaks)
	}
	for tau, c := range res.Correlations {
		if c != 0 {
			t.Errorf("constant series ACF[%d] = %v, want 0", tau, c)
		}
	}
}

func TestAnalyzerErrTooShort(t *testing.T) {
	a := NewAnalyzer()
	if _, err := a.Compute([]float64{1}, 5); err != ErrTooShort {
		t.Errorf("short err = %v, want ErrTooShort", err)
	}
	if _, err := a.Compute([]float64{1, 2, 3}, 0); err != ErrTooShort {
		t.Errorf("maxLag=0 err = %v, want ErrTooShort", err)
	}
}

// TestAnalyzerReuseDoesNotAllocate is the analyzer's allocation contract:
// after the first call sizes the buffers, repeated analysis of same-length
// series performs zero heap allocations.
func TestAnalyzerReuseDoesNotAllocate(t *testing.T) {
	a := NewAnalyzer()
	xs := sine(1000, 50, 0.3, 7)
	maxLag := len(xs) / 2
	if _, err := a.Compute(xs, maxLag); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := a.Compute(xs, maxLag); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Analyzer.Compute allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkACFPlan is the before/after record for the refresh engine's
// ACF stage: "preplan" is the historical allocating full-complex path,
// "analyzer" the reusable real-FFT plan path, "oneshot" today's Compute
// (the analyzer engine paying first-use allocation every call).
func BenchmarkACFPlan(b *testing.B) {
	xs := sine(4096, 128, 0.3, 11)
	maxLag := len(xs) / 10
	b.Run("preplan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := computePrePlan(xs, maxLag); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("analyzer", func(b *testing.B) {
		a := NewAnalyzer()
		if _, err := a.Compute(xs, maxLag); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Compute(xs, maxLag); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compute(xs, maxLag); err != nil {
				b.Fatal(err)
			}
		}
	})
}
