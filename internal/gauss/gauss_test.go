package gauss

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distclass/internal/mat"
	"distclass/internal/rng"
	"distclass/internal/stats"
	"distclass/internal/vec"
)

func TestNewPoint(t *testing.T) {
	v := vec.Of(1, 2)
	g := NewPoint(v)
	if !g.Mean.Equal(v) {
		t.Errorf("mean = %v", g.Mean)
	}
	if !g.Cov.Equal(mat.New(2)) {
		t.Errorf("cov = %v, want zero", g.Cov)
	}
	v[0] = 99
	if g.Mean[0] != 1 {
		t.Errorf("NewPoint aliases input value")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(vec.Of(1), mat.Identity(2)); err == nil {
		t.Errorf("dim mismatch should error")
	}
	if _, err := New(vec.Of(math.NaN(), 0), mat.Identity(2)); err == nil {
		t.Errorf("NaN mean should error")
	}
	asym, _ := mat.FromRows([][]float64{{1, 5}, {0, 1}})
	if _, err := New(vec.Of(0, 0), asym); err == nil {
		t.Errorf("asymmetric covariance should error")
	}
	huge, _ := mat.FromRows([][]float64{{1, math.MaxFloat64}, {math.MaxFloat64, 1}})
	if _, err := New(vec.Of(0, 0), huge); err == nil {
		t.Errorf("covariance overflowing its symmetrization should error")
	}
	g, err := New(vec.Of(0, 0), mat.Identity(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if g.Dim() != 2 {
		t.Errorf("Dim = %d", g.Dim())
	}
}

func TestCloneIndependence(t *testing.T) {
	g, _ := New(vec.Of(1, 2), mat.Identity(2))
	c := g.Clone()
	c.Mean[0] = 99
	c.Cov.Set(0, 0, 99)
	if g.Mean[0] != 1 || g.Cov.At(0, 0) != 1 {
		t.Errorf("Clone aliases original")
	}
}

func TestLogDensityStandardNormal(t *testing.T) {
	g, _ := New(vec.Of(0, 0), mat.Identity(2))
	cond, err := g.Condition(0)
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	// Standard bivariate normal at origin: 1/(2*pi).
	got, err := cond.Density(vec.Of(0, 0))
	if err != nil {
		t.Fatalf("Density: %v", err)
	}
	want := 1 / (2 * math.Pi)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Density(0) = %v, want %v", got, want)
	}
	lp, _ := cond.LogDensity(vec.Of(3, 4))
	wantLp := -math.Log(2*math.Pi) - 12.5
	if math.Abs(lp-wantLp) > 1e-9 {
		t.Errorf("LogDensity(3,4) = %v, want %v", lp, wantLp)
	}
}

func TestLogDensity1D(t *testing.T) {
	g, _ := New(vec.Of(1), mat.Diagonal(4))
	cond, err := g.Condition(0)
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	got, _ := cond.Density(vec.Of(3))
	want := math.Exp(-0.5) / (2 * math.Sqrt(2*math.Pi))
	if math.Abs(got-want)/want > 1e-6 {
		t.Errorf("Density = %v, want %v", got, want)
	}
}

func TestConditionSingularCovariance(t *testing.T) {
	g := NewPoint(vec.Of(1, 2))
	cond, err := g.Condition(0)
	if err != nil {
		t.Fatalf("Condition of zero covariance: %v", err)
	}
	atMean, err := cond.LogDensity(vec.Of(1, 2))
	if err != nil {
		t.Fatalf("LogDensity: %v", err)
	}
	away, _ := cond.LogDensity(vec.Of(2, 2))
	if !(atMean > away) {
		t.Errorf("density at mean (%v) should exceed density away (%v)", atMean, away)
	}
	if math.IsInf(atMean, 0) || math.IsNaN(atMean) {
		t.Errorf("LogDensity at mean = %v", atMean)
	}
}

func TestMahalanobis(t *testing.T) {
	g, _ := New(vec.Of(0, 0), mat.Diagonal(4, 9))
	cond, _ := g.Condition(0)
	got, err := cond.Mahalanobis(vec.Of(2, 3))
	if err != nil {
		t.Fatalf("Mahalanobis: %v", err)
	}
	want := math.Sqrt(2)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("Mahalanobis = %v, want %v", got, want)
	}
}

func TestInverseCached(t *testing.T) {
	g, _ := New(vec.Of(0, 0), mat.Diagonal(2, 4))
	cond, _ := g.Condition(0)
	inv1, err := cond.Inverse()
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	inv2, _ := cond.Inverse()
	if inv1 != inv2 {
		t.Errorf("Inverse should be cached (same pointer)")
	}
	if math.Abs(inv1.At(0, 0)-0.5) > 1e-9 {
		t.Errorf("Inverse[0][0] = %v, want 0.5", inv1.At(0, 0))
	}
}

func TestExpectedLogDensity(t *testing.T) {
	target, _ := New(vec.Of(0, 0), mat.Identity(2))
	cond, _ := target.Condition(0)
	// A point source at the mean: expected log density equals log density.
	point := NewPoint(vec.Of(0, 0))
	got, err := cond.ExpectedLogDensity(point)
	if err != nil {
		t.Fatalf("ExpectedLogDensity: %v", err)
	}
	base, _ := cond.LogDensity(vec.Of(0, 0))
	if math.Abs(got-base) > 1e-9 {
		t.Errorf("ExpectedLogDensity of point = %v, want %v", got, base)
	}
	// A wide source at the same mean must score lower than the point.
	wide, _ := New(vec.Of(0, 0), mat.Diagonal(2, 2))
	gotWide, _ := cond.ExpectedLogDensity(wide)
	// Penalty is tr(I * diag(2,2))/2 = 2.
	if math.Abs(gotWide-(base-2)) > 1e-9 {
		t.Errorf("ExpectedLogDensity wide = %v, want %v", gotWide, base-2)
	}
}

func TestExpectedLogDensityMonteCarlo(t *testing.T) {
	// E_{x~src}[log N(x; target)] estimated by sampling should match.
	target, _ := New(vec.Of(1, -1), mustFromRows(t, [][]float64{{2, 0.3}, {0.3, 1}}))
	src, _ := New(vec.Of(0.5, 0), mustFromRows(t, [][]float64{{0.5, 0.1}, {0.1, 0.8}}))
	cond, err := target.Condition(0)
	if err != nil {
		t.Fatalf("Condition: %v", err)
	}
	want, err := cond.ExpectedLogDensity(src)
	if err != nil {
		t.Fatalf("ExpectedLogDensity: %v", err)
	}
	r := rng.New(5)
	mvn, err := rng.NewMVN(src.Mean, src.Cov)
	if err != nil {
		t.Fatalf("NewMVN: %v", err)
	}
	var run stats.Running
	for i := 0; i < 200000; i++ {
		lp, err := cond.LogDensity(mvn.Sample(r))
		if err != nil {
			t.Fatalf("LogDensity: %v", err)
		}
		run.Add(lp)
	}
	if math.Abs(run.Mean()-want) > 0.02 {
		t.Errorf("Monte Carlo E[log p] = %v, analytic = %v", run.Mean(), want)
	}
}

func mustFromRows(t *testing.T, rows [][]float64) *mat.Matrix {
	t.Helper()
	m, err := mat.FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestKL(t *testing.T) {
	a, _ := New(vec.Of(0), mat.Diagonal(1))
	b, _ := New(vec.Of(1), mat.Diagonal(1))
	ca, _ := a.Condition(0)
	cb, _ := b.Condition(0)
	// KL(a || b) for unit variances, means 0 and 1: 0.5.
	got, err := cb.KL(ca)
	if err != nil {
		t.Fatalf("KL: %v", err)
	}
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("KL = %v, want 0.5", got)
	}
	// KL(a || a) = 0.
	self, _ := ca.KL(ca)
	if math.Abs(self) > 1e-9 {
		t.Errorf("KL(a||a) = %v, want 0", self)
	}
}

func TestMergeTwoPoints(t *testing.T) {
	a := Component{Gaussian: NewPoint(vec.Of(0, 0)), Weight: 1}
	b := Component{Gaussian: NewPoint(vec.Of(2, 0)), Weight: 1}
	m, err := Merge([]Component{a, b})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if m.Weight != 2 {
		t.Errorf("weight = %v, want 2", m.Weight)
	}
	if !m.Mean.ApproxEqual(vec.Of(1, 0), 1e-12) {
		t.Errorf("mean = %v, want (1,0)", m.Mean)
	}
	// Variance along x: ((0-1)^2 + (2-1)^2)/2 = 1.
	if math.Abs(m.Cov.At(0, 0)-1) > 1e-12 || math.Abs(m.Cov.At(1, 1)) > 1e-12 {
		t.Errorf("cov = %v, want diag(1, 0)", m.Cov)
	}
}

func TestMergeWeighted(t *testing.T) {
	a := Component{Gaussian: NewPoint(vec.Of(0)), Weight: 3}
	b := Component{Gaussian: NewPoint(vec.Of(4)), Weight: 1}
	m, err := Merge([]Component{a, b})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if !m.Mean.ApproxEqual(vec.Of(1), 1e-12) {
		t.Errorf("mean = %v, want (1)", m.Mean)
	}
	// Var = (3*1 + 1*9)/4 = 3.
	if math.Abs(m.Cov.At(0, 0)-3) > 1e-12 {
		t.Errorf("var = %v, want 3", m.Cov.At(0, 0))
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Merge(nil) error = %v", err)
	}
	a := Component{Gaussian: NewPoint(vec.Of(0)), Weight: 1}
	b := Component{Gaussian: NewPoint(vec.Of(0, 0)), Weight: 1}
	if _, err := Merge([]Component{a, b}); err == nil {
		t.Errorf("dim mismatch should error")
	}
	c := Component{Gaussian: NewPoint(vec.Of(0)), Weight: 0}
	if _, err := Merge([]Component{a, c}); err == nil {
		t.Errorf("zero weight should error")
	}
}

// mergeOrig is the original allocating Merge — a fresh diff vector per
// component and a symmetrized copy at the end — kept as the oracle for
// the buffer-reusing one.
func mergeOrig(cs []Component) Component {
	d := cs[0].Dim()
	var total float64
	mean := vec.New(d)
	for _, c := range cs {
		total += c.Weight
		vec.Axpy(mean, c.Weight, c.Mean)
	}
	vec.ScaleInPlace(1/total, mean)
	cov := mat.New(d)
	for _, c := range cs {
		mat.AddInPlace(cov, c.Weight/total, c.Cov)
		diff, _ := vec.Sub(c.Mean, mean) // the test builds equal dimensions
		mat.AddOuterInPlace(cov, c.Weight/total, diff)
	}
	return Component{Gaussian: Gaussian{Mean: mean, Cov: cov.Symmetrize()}, Weight: total}
}

// TestMergeMatchesOriginal pins Merge, and MergeInto over dirty reused
// buffers, to the original Merge bit for bit.
func TestMergeMatchesOriginal(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 500; trial++ {
		d := 1 + r.IntN(4)
		cs := make([]Component, 1+r.IntN(8))
		for i := range cs {
			mean := vec.New(d)
			cov := mat.New(d)
			for x := range mean {
				mean[x] = r.Normal(0, 10)
				for y := range mean {
					cov.Set(x, y, r.Normal(0, 1)) // deliberately asymmetric
				}
			}
			cs[i] = Component{Gaussian: Gaussian{Mean: mean, Cov: cov}, Weight: r.UniformRange(0.01, 5)}
		}
		want := mergeOrig(cs)
		got, err := Merge(cs)
		if err != nil {
			t.Fatal(err)
		}
		mean, cov, diff := vec.New(d), mat.New(d), vec.New(d)
		for x := range mean {
			mean[x], diff[x] = math.NaN(), math.NaN()
			cov.Set(x, x, math.NaN())
		}
		w, err := MergeInto(mean, cov, diff, cs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) || math.Float64bits(w) != math.Float64bits(want.Weight) {
			t.Fatalf("trial %d: weights %v, %v, want %v", trial, got.Weight, w, want.Weight)
		}
		for x := 0; x < d; x++ {
			if math.Float64bits(got.Mean[x]) != math.Float64bits(want.Mean[x]) || math.Float64bits(mean[x]) != math.Float64bits(want.Mean[x]) {
				t.Fatalf("trial %d: means %v, %v, want %v", trial, got.Mean, mean, want.Mean)
			}
			for y := 0; y < d; y++ {
				g, b, o := got.Cov.At(x, y), cov.At(x, y), want.Cov.At(x, y)
				if math.Float64bits(g) != math.Float64bits(o) || math.Float64bits(b) != math.Float64bits(o) {
					t.Fatalf("trial %d: covariances %v, %v, want %v", trial, got.Cov, cov, want.Cov)
				}
			}
		}
	}
}

// TestMergeAllocs pins Merge to its result (the mean, the covariance
// and its header) and one diff buffer, however many components.
func TestMergeAllocs(t *testing.T) {
	cs := make([]Component, 12)
	for i := range cs {
		cs[i] = Component{Gaussian: NewPoint(vec.Of(float64(i), 1)), Weight: 1}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Merge(cs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Merge of %d components: %v allocs, want <= 4", len(cs), allocs)
	}
}

// TestMergeMatchesDirectSummary verifies requirement R4 for the GM
// summary: merging summaries of sub-collections equals summarizing the
// union directly.
func TestMergeMatchesDirectSummary(t *testing.T) {
	r := rng.New(21)
	xs := make([]vec.Vector, 40)
	ws := make([]float64, 40)
	for i := range xs {
		xs[i] = vec.Of(r.UniformRange(-5, 5), r.UniformRange(-5, 5))
		ws[i] = r.UniformRange(0.1, 2)
	}
	summarize := func(lo, hi int) Component {
		mu, cov, err := stats.WeightedMeanCov(xs[lo:hi], ws[lo:hi])
		if err != nil {
			t.Fatalf("WeightedMeanCov: %v", err)
		}
		var w float64
		for _, x := range ws[lo:hi] {
			w += x
		}
		return Component{Gaussian: Gaussian{Mean: mu, Cov: cov}, Weight: w}
	}
	whole := summarize(0, 40)
	parts := []Component{summarize(0, 10), summarize(10, 25), summarize(25, 40)}
	merged, err := Merge(parts)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if math.Abs(merged.Weight-whole.Weight) > 1e-9 {
		t.Errorf("weight = %v, want %v", merged.Weight, whole.Weight)
	}
	if !merged.Mean.ApproxEqual(whole.Mean, 1e-9) {
		t.Errorf("mean = %v, want %v", merged.Mean, whole.Mean)
	}
	if !merged.Cov.ApproxEqual(whole.Cov, 1e-9) {
		t.Errorf("cov = %v, want %v", merged.Cov, whole.Cov)
	}
}

func TestMergeScaleInvariance(t *testing.T) {
	// R3: scaling all weights by alpha must not change the summary moments.
	a := Component{Gaussian: NewPoint(vec.Of(0, 1)), Weight: 1}
	b := Component{Gaussian: NewPoint(vec.Of(2, 3)), Weight: 2}
	m1, _ := Merge([]Component{a, b})
	a.Weight *= 7
	b.Weight *= 7
	m2, _ := Merge([]Component{a, b})
	if !m1.Mean.ApproxEqual(m2.Mean, 1e-12) || !m1.Cov.ApproxEqual(m2.Cov, 1e-12) {
		t.Errorf("summary changed under weight scaling: %v vs %v", m1, m2)
	}
}

func TestMixtureBasics(t *testing.T) {
	m := Mixture{
		{Gaussian: NewPoint(vec.Of(0, 0)), Weight: 1},
		{Gaussian: NewPoint(vec.Of(1, 1)), Weight: 3},
	}
	if m.TotalWeight() != 4 {
		t.Errorf("TotalWeight = %v", m.TotalWeight())
	}
	if m.Dim() != 2 {
		t.Errorf("Dim = %v", m.Dim())
	}
	var empty Mixture
	if empty.Dim() != 0 {
		t.Errorf("empty Dim = %v", empty.Dim())
	}
	mean, err := m.Mean()
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if !mean.ApproxEqual(vec.Of(0.75, 0.75), 1e-12) {
		t.Errorf("Mean = %v", mean)
	}
	if _, err := empty.Mean(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Mean error = %v", err)
	}
	clone := m.Clone()
	clone[0].Mean[0] = 99
	if m[0].Mean[0] != 0 {
		t.Errorf("Clone aliases original")
	}
}

func TestMixtureLogDensity(t *testing.T) {
	g1, _ := New(vec.Of(0), mat.Diagonal(1))
	g2, _ := New(vec.Of(10), mat.Diagonal(1))
	m := Mixture{
		{Gaussian: g1, Weight: 1},
		{Gaussian: g2, Weight: 1},
	}
	lp, err := m.LogDensity(vec.Of(0), 0)
	if err != nil {
		t.Fatalf("LogDensity: %v", err)
	}
	// At 0, the far component contributes ~nothing: density ~ 0.5*N(0;0,1).
	want := math.Log(0.5 / math.Sqrt(2*math.Pi))
	if math.Abs(lp-want) > 1e-6 {
		t.Errorf("LogDensity = %v, want %v", lp, want)
	}
	var empty Mixture
	if _, err := empty.LogDensity(vec.Of(0), 0); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty LogDensity error = %v", err)
	}
}

func TestMixtureSample(t *testing.T) {
	g1, _ := New(vec.Of(-10, 0), mat.Identity(2))
	g2, _ := New(vec.Of(10, 0), mat.Identity(2))
	m := Mixture{
		{Gaussian: g1, Weight: 1},
		{Gaussian: g2, Weight: 3},
	}
	r := rng.New(31)
	samples, err := m.Sample(r, 10000, 0)
	if err != nil {
		t.Fatalf("Sample: %v", err)
	}
	var right int
	for _, s := range samples {
		if s[0] > 0 {
			right++
		}
	}
	p := float64(right) / float64(len(samples))
	if math.Abs(p-0.75) > 0.02 {
		t.Errorf("fraction from right component = %v, want ~0.75", p)
	}
	var empty Mixture
	if _, err := empty.Sample(r, 1, 0); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Sample error = %v", err)
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float64{math.Log(1), math.Log(2), math.Log(3)})
	if math.Abs(got-math.Log(6)) > 1e-12 {
		t.Errorf("LogSumExp = %v, want log 6", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Errorf("LogSumExp(nil) should be -Inf")
	}
	if !math.IsInf(LogSumExp([]float64{math.Inf(-1), math.Inf(-1)}), -1) {
		t.Errorf("LogSumExp of -Infs should be -Inf")
	}
	// Stability with large magnitudes.
	big := LogSumExp([]float64{1000, 1000})
	if math.Abs(big-(1000+math.Ln2)) > 1e-9 {
		t.Errorf("LogSumExp large = %v", big)
	}
}

func TestPropertyMergeAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.IntN(6)
		cs := make([]Component, n)
		for i := range cs {
			cs[i] = Component{
				Gaussian: NewPoint(vec.Of(r.UniformRange(-5, 5), r.UniformRange(-5, 5))),
				Weight:   r.UniformRange(0.1, 3),
			}
		}
		all, err := Merge(cs)
		if err != nil {
			return false
		}
		left, err := Merge(cs[:2])
		if err != nil {
			return false
		}
		staged, err := Merge(append([]Component{left}, cs[2:]...))
		if err != nil {
			return false
		}
		return staged.Mean.ApproxEqual(all.Mean, 1e-9) &&
			staged.Cov.ApproxEqual(all.Cov, 1e-9) &&
			math.Abs(staged.Weight-all.Weight) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyKLNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		mk := func() *Conditioned {
			g, err := New(
				vec.Of(r.UniformRange(-3, 3), r.UniformRange(-3, 3)),
				mat.Diagonal(r.UniformRange(0.1, 4), r.UniformRange(0.1, 4)),
			)
			if err != nil {
				return nil
			}
			c, err := g.Condition(0)
			if err != nil {
				return nil
			}
			return c
		}
		a, b := mk(), mk()
		if a == nil || b == nil {
			return false
		}
		kl, err := b.KL(a)
		if err != nil {
			return false
		}
		return kl >= -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkLogDensity(b *testing.B) {
	g, _ := New(vec.Of(0, 0), mat.Diagonal(2, 3))
	cond, _ := g.Condition(0)
	x := vec.Of(1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cond.LogDensity(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	r := rng.New(77)
	cs := make([]Component, 16)
	for i := range cs {
		cs[i] = Component{
			Gaussian: NewPoint(vec.Of(r.UniformRange(-5, 5), r.UniformRange(-5, 5))),
			Weight:   r.UniformRange(0.1, 2),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Merge(cs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLogSumExpSingle(t *testing.T) {
	if got := LogSumExp([]float64{-3.5}); got != -3.5 {
		t.Errorf("LogSumExp single = %v", got)
	}
}

func TestMixtureLogDensityMatchesManual(t *testing.T) {
	g1, _ := New(vec.Of(0), mat.Diagonal(1))
	g2, _ := New(vec.Of(2), mat.Diagonal(4))
	m := Mixture{{Gaussian: g1, Weight: 3}, {Gaussian: g2, Weight: 1}}
	x := vec.Of(1)
	got, err := m.LogDensity(x, 0)
	if err != nil {
		t.Fatalf("LogDensity: %v", err)
	}
	c1, _ := g1.Condition(0)
	c2, _ := g2.Condition(0)
	l1, _ := c1.Density(x)
	l2, _ := c2.Density(x)
	want := math.Log(0.75*l1 + 0.25*l2)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("LogDensity = %v, want %v", got, want)
	}
}
