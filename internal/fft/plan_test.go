package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randReal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestNewPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) should fail", n)
		}
	}
	for _, n := range []int{0, 1, 3, 12} {
		if _, err := NewRealPlan(n); err == nil {
			t.Errorf("NewRealPlan(%d) should fail", n)
		}
	}
}

// TestRealPlanForShared checks that RealPlanFor hands every caller of
// one size the same immutable plan, and rejects the sizes NewRealPlan
// rejects.
func TestRealPlanForShared(t *testing.T) {
	a, err := RealPlanFor(1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RealPlanFor(1024)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("RealPlanFor(1024) returned two different plans")
	}
	c, err := RealPlanFor(2048)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.Size() != 2048 {
		t.Errorf("RealPlanFor(2048) = %d-point plan (shared with 1024: %v), want a distinct 2048-point plan", c.Size(), c == a)
	}
	for _, n := range []int{0, 1, 3, 12} {
		if _, err := RealPlanFor(n); err == nil {
			t.Errorf("RealPlanFor(%d) should fail", n)
		}
	}
}

// TestPlanMatchesNaiveDFT is the tentpole differential test: the planned
// transform must agree with the O(n^2) direct DFT at every power-of-two
// size the refresh engine can reach.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		xs := randComplex(n, int64(n)+7)
		buf := make([]complex128, n)
		copy(buf, xs)
		p.Forward(buf)
		want := naiveDFT(xs, false)
		if d := maxAbsDiff(buf, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: plan forward vs naive DFT diff %g", n, d)
		}

		copy(buf, xs)
		p.Inverse(buf)
		want = naiveDFT(xs, true)
		for i := range want {
			want[i] /= complex(float64(n), 0)
		}
		if d := maxAbsDiff(buf, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: plan inverse vs naive IDFT diff %g", n, d)
		}
	}
}

// TestPlanMatchesForward pins the plan to the package-level one-shot
// helpers bit for bit: both now run the identical table-driven kernel.
func TestPlanMatchesForward(t *testing.T) {
	for _, n := range []int{2, 8, 64, 512} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		xs := randComplex(n, int64(n))
		buf := make([]complex128, n)
		copy(buf, xs)
		p.Forward(buf)
		want, err := Forward(xs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d bin %d: plan %v != one-shot %v", n, i, buf[i], want[i])
			}
		}
	}
}

// TestRealPlanForwardMatchesComplex checks the packed real transform
// against lifting the same series to complex and transforming at full
// size.
func TestRealPlanForwardMatchesComplex(t *testing.T) {
	for _, n := range []int{2, 4, 8, 32, 128, 1024} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		xs := randReal(n, int64(n)+1)
		spec := make([]complex128, p.SpectrumLen())
		p.Forward(spec, xs)
		full, err := ForwardReal(xs)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= n/2; k++ {
			if d := cmplx.Abs(spec[k] - full[k]); d > 1e-9*float64(n) {
				t.Errorf("n=%d bin %d: real plan %v vs complex %v (diff %g)",
					n, k, spec[k], full[k], d)
			}
		}
	}
}

// TestRealPlanRoundTrip drives the Wiener–Khinchin shape the ACF analyzer
// uses: forward, pointwise power spectrum, inverse — all in place — and
// checks the result against the directly computed autocovariance.
func TestRealPlanRoundTrip(t *testing.T) {
	for _, n := range []int{2, 4, 16, 64, 512} {
		p, err := NewRealPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		xs := randReal(n, int64(n)+2)
		spec := make([]complex128, p.SpectrumLen())
		back := make([]float64, n)
		p.Forward(spec, xs)
		p.Inverse(back, spec)
		for i := range xs {
			if math.Abs(back[i]-xs[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d sample %d: round trip %v != %v", n, i, back[i], xs[i])
			}
		}
	}
}

func TestRealPlanAutocovariance(t *testing.T) {
	n := 32 // series length; transform at 2n to make circular correlation linear
	xs := randReal(n, 99)
	m := NextPow2(2 * n)
	p, err := NewRealPlan(m)
	if err != nil {
		t.Fatal(err)
	}
	padded := make([]float64, m)
	copy(padded, xs)
	spec := make([]complex128, p.SpectrumLen())
	cov := make([]float64, m)
	p.Forward(spec, padded)
	for k := range spec {
		re, im := real(spec[k]), imag(spec[k])
		spec[k] = complex(re*re+im*im, 0)
	}
	p.Inverse(cov, spec)
	for tau := 0; tau < n; tau++ {
		var want float64
		for i := 0; i+tau < n; i++ {
			want += xs[i] * xs[i+tau]
		}
		if math.Abs(cov[tau]-want) > 1e-8*float64(n) {
			t.Errorf("tau=%d: fft autocovariance %v, direct %v", tau, cov[tau], want)
		}
	}
}

// TestPlanTransformsDoNotAllocate is the allocation contract of the
// refresh engine's innermost layer.
func TestPlanTransformsDoNotAllocate(t *testing.T) {
	p, err := NewPlan(1024)
	if err != nil {
		t.Fatal(err)
	}
	buf := randComplex(1024, 3)
	if allocs := testing.AllocsPerRun(100, func() {
		p.Forward(buf)
		p.Inverse(buf)
	}); allocs != 0 {
		t.Errorf("Plan transforms allocated %.1f objects/op, want 0", allocs)
	}

	rp, err := NewRealPlan(2048)
	if err != nil {
		t.Fatal(err)
	}
	xs := randReal(2048, 4)
	spec := make([]complex128, rp.SpectrumLen())
	out := make([]float64, 2048)
	if allocs := testing.AllocsPerRun(100, func() {
		rp.Forward(spec, xs)
		rp.Inverse(out, spec)
	}); allocs != 0 {
		t.Errorf("RealPlan transforms allocated %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkFFTPlan compares the planned kernels against the one-shot
// helpers at the transform size a 4096-pane ACF uses (2*4096). The
// "forward/oneshot" case is the pre-plan cost model: an allocating copy
// plus the shared kernel.
func BenchmarkFFTPlan(b *testing.B) {
	const n = 8192
	xs := randComplex(n, 5)
	buf := make([]complex128, n)
	p, err := NewPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("forward/plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, xs)
			p.Forward(buf)
		}
	})
	b.Run("forward/oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Forward(xs); err != nil {
				b.Fatal(err)
			}
		}
	})

	rxs := randReal(n, 6)
	rp, err := NewRealPlan(n)
	if err != nil {
		b.Fatal(err)
	}
	spec := make([]complex128, rp.SpectrumLen())
	out := make([]float64, n)
	b.Run("real/plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rp.Forward(spec, rxs)
		}
	})
	b.Run("real/roundtrip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rp.Forward(spec, rxs)
			rp.Inverse(out, spec)
		}
	})
}
