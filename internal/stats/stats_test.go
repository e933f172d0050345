package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
		{[]float64{2, 2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMeanKahanStability(t *testing.T) {
	// 1e8 + many tiny values: naive summation loses the tiny contributions.
	xs := make([]float64, 10001)
	xs[0] = 1e8
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-4
	}
	want := (1e8 + 1e-4*10000) / 10001
	if got := Mean(xs); !almostEqual(got, want, 1e-6) {
		t.Errorf("Mean with compensation = %v, want %v", got, want)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{42}); got != 0 {
		t.Errorf("Variance singleton = %v, want 0", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestDiff(t *testing.T) {
	got := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Diff length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Diff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Diff([]float64{1}) != nil {
		t.Error("Diff of singleton should be nil")
	}
	if Diff(nil) != nil {
		t.Error("Diff of nil should be nil")
	}
}

// TestRoughnessFigure4 reproduces the roughness values the paper reports for
// the three toy series of Figure 4: a jagged line (~2.04), a slightly bent
// line (~0.4), and a straight line (exactly 0). The paper does not publish
// the underlying points, so we construct series with the same character:
// all three have mean 0 and standard deviation 1 (checked), and the jagged /
// bent / straight roughness ordering and magnitudes match.
func TestRoughnessFigure4(t *testing.T) {
	// Series C: straight line, roughness exactly 0.
	c := make([]float64, 64)
	for i := range c {
		c[i] = float64(i)
	}
	c = ZScores(c)
	if got := Roughness(c); !almostEqual(got, 0, 1e-9) {
		t.Errorf("straight-line roughness = %v, want 0", got)
	}
	m := ComputeMoments(c)
	if !almostEqual(m.Mean, 0, 1e-9) || !almostEqual(m.StdDev(), 1, 1e-9) {
		t.Errorf("normalization failed: mean=%v std=%v", m.Mean, m.StdDev())
	}

	// Series A: alternating jagged line: z-scored alternation has diffs of
	// +-2, i.e. std of diffs close to 2 (paper: 2.04).
	a := make([]float64, 64)
	for i := range a {
		if i%2 == 0 {
			a[i] = 1
		} else {
			a[i] = -1
		}
	}
	a = ZScores(a)
	ra := Roughness(a)
	if ra < 1.8 || ra > 2.2 {
		t.Errorf("jagged roughness = %v, want about 2.04", ra)
	}

	// Series B: a slightly bent line (two slopes) -> small but nonzero.
	b := make([]float64, 64)
	for i := range b {
		if i < 32 {
			b[i] = float64(i) * 0.5
		} else {
			b[i] = 16 + float64(i-32)*1.5
		}
	}
	b = ZScores(b)
	rb := Roughness(b)
	if rb <= 0 || rb >= ra {
		t.Errorf("bent roughness = %v, want in (0, %v)", rb, ra)
	}
}

func TestKurtosisNormalVsLaplace(t *testing.T) {
	// Figure 5: normal kurtosis 3, Laplace kurtosis 6 (same mean/variance).
	rng := rand.New(rand.NewSource(7))
	n := 200000
	normal := make([]float64, n)
	laplace := make([]float64, n)
	for i := 0; i < n; i++ {
		normal[i] = rng.NormFloat64() * math.Sqrt2
		// Inverse-CDF sampling of Laplace(0, b=1) has variance 2b^2 = 2.
		u := rng.Float64() - 0.5
		laplace[i] = -math.Copysign(math.Log(1-2*math.Abs(u)), u)
	}
	kn, kl := Kurtosis(normal), Kurtosis(laplace)
	if !almostEqual(kn, 3, 0.15) {
		t.Errorf("normal kurtosis = %v, want about 3", kn)
	}
	if !almostEqual(kl, 6, 0.4) {
		t.Errorf("laplace kurtosis = %v, want about 6", kl)
	}
	if Variance(normal) < 1.8 || Variance(normal) > 2.2 {
		t.Errorf("normal variance = %v, want about 2", Variance(normal))
	}
	if Variance(laplace) < 1.8 || Variance(laplace) > 2.2 {
		t.Errorf("laplace variance = %v, want about 2", Variance(laplace))
	}
}

func TestKurtosisUniform(t *testing.T) {
	// Continuous uniform has kurtosis 1.8 (platykurtic, < 3).
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	if got := Kurtosis(xs); !almostEqual(got, 1.8, 0.1) {
		t.Errorf("uniform kurtosis = %v, want about 1.8", got)
	}
}

func TestKurtosisDegenerate(t *testing.T) {
	if got := Kurtosis([]float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant-series kurtosis = %v, want 0", got)
	}
	if got := Kurtosis([]float64{1}); got != 0 {
		t.Errorf("singleton kurtosis = %v, want 0", got)
	}
	if got := Kurtosis(nil); got != 0 {
		t.Errorf("nil kurtosis = %v, want 0", got)
	}
}

func TestMomentsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	m := ComputeMoments(xs)
	if !almostEqual(m.Mean, Mean(xs), 1e-9) {
		t.Errorf("moments mean = %v, direct = %v", m.Mean, Mean(xs))
	}
	if !almostEqual(m.Variance(), Variance(xs), 1e-9) {
		t.Errorf("moments variance = %v, direct = %v", m.Variance(), Variance(xs))
	}
	// Direct two-pass kurtosis.
	mu := Mean(xs)
	var s2, s4 float64
	for _, x := range xs {
		d := x - mu
		s2 += d * d
		s4 += d * d * d * d
	}
	direct := float64(len(xs)) * s4 / (s2 * s2)
	if !almostEqual(m.Kurtosis(), direct, 1e-9) {
		t.Errorf("moments kurtosis = %v, direct = %v", m.Kurtosis(), direct)
	}
}

// TestMoments2MatchesMoments pins the variance-only accumulator to the
// full one bit for bit: Roughness and core.Evaluate's difference series
// switched to Moments2 on the promise that no frame changes.
func TestMoments2MatchesMoments(t *testing.T) {
	prop := func(xs []float64, scale float64) bool {
		var full Moments
		var two Moments2
		for _, x := range xs {
			x = clamp(x) * (1 + math.Abs(clamp(scale)))
			full.Add(x)
			two.Add(x)
		}
		return two.N == full.N &&
			math.Float64bits(two.Mean) == math.Float64bits(full.Mean) &&
			math.Float64bits(two.M2) == math.Float64bits(full.M2) &&
			math.Float64bits(two.StdDev()) == math.Float64bits(full.StdDev())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeEquivalentToConcat(t *testing.T) {
	prop := func(a, b []float64) bool {
		var left, right, whole Moments
		for _, x := range a {
			left.Add(clamp(x))
		}
		for _, x := range b {
			right.Add(clamp(x))
		}
		for _, x := range append(append([]float64{}, a...), b...) {
			whole.Add(clamp(x))
		}
		left.Merge(right)
		return left.N == whole.N &&
			almostEqual(left.Mean, whole.Mean, 1e-6*(1+math.Abs(whole.Mean))) &&
			almostEqual(left.Variance(), whole.Variance(), 1e-6*(1+whole.Variance())) &&
			almostEqual(left.Kurtosis(), whole.Kurtosis(), 1e-4*(1+whole.Kurtosis()))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// clamp keeps quick-generated values in a numerically reasonable range so
// the property is about algebra, not float overflow.
func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestMergeIdentity(t *testing.T) {
	var empty Moments
	m := ComputeMoments([]float64{1, 2, 3})
	orig := m
	m.Merge(empty)
	if m != orig {
		t.Errorf("merge with empty changed sketch: %+v -> %+v", orig, m)
	}
	empty.Merge(orig)
	if empty != orig {
		t.Errorf("empty.Merge(x) should equal x: got %+v want %+v", empty, orig)
	}
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	cov, err := Covariance(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(cov, 2*Variance(xs), 1e-12) {
		t.Errorf("Cov(x,2x) = %v, want %v", cov, 2*Variance(xs))
	}
	if _, err := Covariance(xs, ys[:2]); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := Covariance(nil, nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestZScores(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	zs := ZScores(xs)
	m := ComputeMoments(zs)
	if !almostEqual(m.Mean, 0, 1e-12) || !almostEqual(m.StdDev(), 1, 1e-12) {
		t.Errorf("z-scores mean=%v std=%v, want 0/1", m.Mean, m.StdDev())
	}
	flat := ZScores([]float64{3, 3, 3})
	for _, z := range flat {
		if z != 0 {
			t.Errorf("z-score of constant series = %v, want 0", z)
		}
	}
	if got := ZScores(nil); len(got) != 0 {
		t.Errorf("ZScores(nil) length = %d, want 0", len(got))
	}
}

func TestZScorePreservesRoughnessRatios(t *testing.T) {
	// Z-scoring is affine, so it preserves the ratio roughness/stddev and
	// leaves kurtosis unchanged — the invariant ASAP relies on when
	// normalizing plots.
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*7 + 100
	}
	zs := ZScores(xs)
	if !almostEqual(Kurtosis(xs), Kurtosis(zs), 1e-9) {
		t.Errorf("kurtosis changed under z-score: %v vs %v", Kurtosis(xs), Kurtosis(zs))
	}
	ratioX := Roughness(xs) / StdDev(xs)
	ratioZ := Roughness(zs) / StdDev(zs)
	if !almostEqual(ratioX, ratioZ, 1e-9) {
		t.Errorf("roughness/std ratio changed: %v vs %v", ratioX, ratioZ)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 4, 1, 5})
	if err != nil || lo != -1 || hi != 5 {
		t.Errorf("MinMax = (%v,%v,%v), want (-1,5,nil)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("expected error for empty MinMax")
	}
}

func TestRoughnessShortInputs(t *testing.T) {
	if got := Roughness(nil); got != 0 {
		t.Errorf("Roughness(nil) = %v", got)
	}
	if got := Roughness([]float64{1, 2}); got != 0 {
		t.Errorf("Roughness(2 pts) = %v, want 0 (single diff has no spread)", got)
	}
}

func TestRoughnessAffineInvariance(t *testing.T) {
	// roughness(a*x + b) = |a| * roughness(x)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		a, b := rng.Float64()*10-5, rng.Float64()*100
		ys := make([]float64, len(xs))
		for i := range xs {
			ys[i] = a*xs[i] + b
		}
		return almostEqual(Roughness(ys), math.Abs(a)*Roughness(xs), 1e-8)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMoments(b *testing.B) {
	xs := make([]float64, 100000)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ComputeMoments(xs).Kurtosis()
	}
}

func BenchmarkRoughness(b *testing.B) {
	xs := make([]float64, 100000)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Roughness(xs)
	}
}
