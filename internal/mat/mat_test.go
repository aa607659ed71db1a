package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"distclass/internal/vec"
)

func TestNewIdentityDiagonal(t *testing.T) {
	m := New(3)
	if m.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", m.Dim())
	}
	id := Identity(2)
	want, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	if !id.Equal(want) {
		t.Errorf("Identity(2) = %v", id)
	}
	dg := Diagonal(2, 3)
	want2, _ := FromRows([][]float64{{2, 0}, {0, 3}})
	if !dg.Equal(want2) {
		t.Errorf("Diagonal(2,3) = %v", dg)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("FromRows ragged error = %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Errorf("Clone aliases original")
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{10, 20}, {30, 40}})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	want, _ := FromRows([][]float64{{11, 22}, {33, 44}})
	if !sum.Equal(want) {
		t.Errorf("Add = %v", sum)
	}
	diff, err := Sub(b, a)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	want2, _ := FromRows([][]float64{{9, 18}, {27, 36}})
	if !diff.Equal(want2) {
		t.Errorf("Sub = %v", diff)
	}
	sc := Scale(2, a)
	want3, _ := FromRows([][]float64{{2, 4}, {6, 8}})
	if !sc.Equal(want3) {
		t.Errorf("Scale = %v", sc)
	}
	if _, err := Add(a, New(3)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Add mismatch error = %v", err)
	}
	if _, err := Sub(a, New(3)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Sub mismatch error = %v", err)
	}
}

func TestAddInPlace(t *testing.T) {
	a := Identity(2)
	AddInPlace(a, 2, Identity(2))
	if !a.Equal(Diagonal(3, 3)) {
		t.Errorf("AddInPlace = %v", a)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("AddInPlace should panic on mismatch")
		}
	}()
	AddInPlace(a, 1, New(3))
}

func TestMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{0, 1}, {1, 0}})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := FromRows([][]float64{{2, 1}, {4, 3}})
	if !got.Equal(want) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
	id := Identity(2)
	got2, _ := Mul(a, id)
	if !got2.Equal(a) {
		t.Errorf("A*I = %v, want %v", got2, a)
	}
	if _, err := Mul(a, New(3)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Mul mismatch error = %v", err)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := MulVec(a, vec.Of(1, 1))
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if !got.Equal(vec.Of(3, 7)) {
		t.Errorf("MulVec = %v, want (3,7)", got)
	}
	if _, err := MulVec(a, vec.Of(1)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("MulVec mismatch error = %v", err)
	}
}

func TestOuter(t *testing.T) {
	got, err := Outer(vec.Of(1, 2), vec.Of(3, 4))
	if err != nil {
		t.Fatalf("Outer: %v", err)
	}
	want, _ := FromRows([][]float64{{3, 4}, {6, 8}})
	if !got.Equal(want) {
		t.Errorf("Outer = %v, want %v", got, want)
	}
	if _, err := Outer(vec.Of(1), vec.Of(1, 2)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Outer mismatch error = %v", err)
	}
}

func TestAddOuterInPlace(t *testing.T) {
	m := New(2)
	AddOuterInPlace(m, 2, vec.Of(1, 2))
	want, _ := FromRows([][]float64{{2, 4}, {4, 8}})
	if !m.Equal(want) {
		t.Errorf("AddOuterInPlace = %v, want %v", m, want)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("AddOuterInPlace should panic on mismatch")
		}
	}()
	AddOuterInPlace(m, 1, vec.Of(1))
}

func TestTransposeTrace(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	at := a.Transpose()
	want, _ := FromRows([][]float64{{1, 3}, {2, 4}})
	if !at.Equal(want) {
		t.Errorf("Transpose = %v", at)
	}
	if a.Trace() != 5 {
		t.Errorf("Trace = %v, want 5", a.Trace())
	}
}

func TestSymmetry(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2.0000001, 4}})
	if a.IsSymmetric(1e-9) {
		t.Errorf("IsSymmetric too lenient")
	}
	if !a.IsSymmetric(1e-5) {
		t.Errorf("IsSymmetric too strict")
	}
	s := a.Symmetrize()
	if !s.IsSymmetric(0) {
		t.Errorf("Symmetrize not exactly symmetric: %v", s)
	}
}

func TestSymmetrizeInPlaceAndBatch(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {2.5, 4, 0.1}, {-3, 7, 9}})
	want := a.Symmetrize()
	ms := NewBatch(2, 3)
	b, c := &ms[0], &ms[1]
	if !b.IsZero() || !c.IsZero() {
		t.Fatal("NewBatch matrices not zero")
	}
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	b.SymmetrizeInPlace()
	if !b.Equal(want) {
		t.Errorf("SymmetrizeInPlace = %v, Symmetrize = %v", b, want)
	}
	if !c.IsZero() {
		t.Errorf("batch neighbor overwritten: %v", c)
	}
	b.Reset()
	if !b.IsZero() {
		t.Errorf("Reset left %v", b)
	}
}

func TestIsFinite(t *testing.T) {
	a := Identity(2)
	if !a.IsFinite() {
		t.Errorf("identity reported non-finite")
	}
	a.Set(0, 1, math.NaN())
	if a.IsFinite() {
		t.Errorf("NaN matrix reported finite")
	}
}

// randSPD builds a random SPD matrix A = B B^T + d*I.
func randSPD(r *testRand, d int) *Matrix {
	b := New(d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			b.Set(i, j, r.Float64()*2-1)
		}
	}
	bbt, _ := Mul(b, b.Transpose())
	AddInPlace(bbt, 1, Scale(float64(d), Identity(d)))
	return bbt
}

func TestCholeskyReconstruction(t *testing.T) {
	r := newTestRand(11, 13)
	for d := 1; d <= 8; d++ {
		a := randSPD(r, d)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("d=%d: NewCholesky: %v", d, err)
		}
		l := c.L()
		llt, _ := Mul(l, l.Transpose())
		if !llt.ApproxEqual(a, 1e-9) {
			t.Errorf("d=%d: L L^T != A", d)
		}
		if c.Dim() != d {
			t.Errorf("d=%d: Cholesky Dim = %d", d, c.Dim())
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	tests := []struct {
		name string
		m    *Matrix
	}{
		{"negative diagonal", Diagonal(1, -1)},
		{"singular", Diagonal(1, 0)},
		{"indefinite", mustFromRows(t, [][]float64{{1, 2}, {2, 1}})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCholesky(tt.m); !errors.Is(err, ErrNotSPD) {
				t.Errorf("NewCholesky(%v) error = %v, want ErrNotSPD", tt.m, err)
			}
		})
	}
}

func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := FromRows(rows)
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	return m
}

func TestCholeskySolve(t *testing.T) {
	r := newTestRand(17, 19)
	for d := 1; d <= 8; d++ {
		a := randSPD(r, d)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		b := vec.New(d)
		for i := range b {
			b[i] = r.Float64()*4 - 2
		}
		x, err := c.Solve(b)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		ax, _ := MulVec(a, x)
		if !ax.ApproxEqual(b, 1e-8) {
			t.Errorf("d=%d: A x != b: %v vs %v", d, ax, b)
		}
	}
	c, _ := NewCholesky(Identity(2))
	if _, err := c.Solve(vec.Of(1)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("Solve mismatch error = %v", err)
	}
	if _, err := c.SolveHalf(vec.Of(1)); !errors.Is(err, ErrDimMismatch) {
		t.Errorf("SolveHalf mismatch error = %v", err)
	}
}

func TestCholeskyLogDet(t *testing.T) {
	c, err := NewCholesky(Diagonal(2, 3, 4))
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	want := math.Log(24)
	if got := c.LogDet(); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogDet = %v, want %v", got, want)
	}
}

func TestCholeskyInverse(t *testing.T) {
	r := newTestRand(23, 29)
	for d := 1; d <= 6; d++ {
		a := randSPD(r, d)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		inv, err := c.Inverse()
		if err != nil {
			t.Fatalf("Inverse: %v", err)
		}
		prod, _ := Mul(a, inv)
		if !prod.ApproxEqual(Identity(d), 1e-8) {
			t.Errorf("d=%d: A*A^{-1} != I: %v", d, prod)
		}
		if !inv.IsSymmetric(0) {
			t.Errorf("d=%d: inverse not symmetric", d)
		}
	}
}

func TestQuadForm(t *testing.T) {
	// A = diag(4, 9): b^T A^{-1} b = b1^2/4 + b2^2/9.
	c, err := NewCholesky(Diagonal(4, 9))
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	got, err := c.QuadForm(vec.Of(2, 3))
	if err != nil {
		t.Fatalf("QuadForm: %v", err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("QuadForm = %v, want 2", got)
	}
}

func TestSolveSPD(t *testing.T) {
	x, err := SolveSPD(Diagonal(2, 4), vec.Of(2, 8))
	if err != nil {
		t.Fatalf("SolveSPD: %v", err)
	}
	if !x.ApproxEqual(vec.Of(1, 2), 1e-12) {
		t.Errorf("SolveSPD = %v, want (1,2)", x)
	}
	if _, err := SolveSPD(Diagonal(1, -1), vec.Of(1, 1)); !errors.Is(err, ErrNotSPD) {
		t.Errorf("SolveSPD non-SPD error = %v", err)
	}
}

func TestPropertyCholeskySolveResidual(t *testing.T) {
	f := func(seed uint64) bool {
		r := newTestRand(seed, 31)
		d := 1 + r.IntN(6)
		a := randSPD(r, d)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := vec.New(d)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		x, err := c.Solve(b)
		if err != nil {
			return false
		}
		ax, _ := MulVec(a, x)
		return ax.ApproxEqual(b, 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyQuadFormPositive(t *testing.T) {
	f := func(seed uint64) bool {
		r := newTestRand(seed, 37)
		d := 1 + r.IntN(6)
		a := randSPD(r, d)
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		b := vec.New(d)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		q, err := c.QuadForm(b)
		if err != nil {
			return false
		}
		return q >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	want := "[1 2]; [3 4]"
	if got := m.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func BenchmarkCholesky(b *testing.B) {
	r := newTestRand(41, 43)
	a := randSPD(r, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve(b *testing.B) {
	r := newTestRand(47, 53)
	a := randSPD(r, 8)
	c, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := vec.New(8)
	for i := range rhs {
		rhs[i] = r.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// testRand is a tiny deterministic generator (SplitMix64) for test
// data. It is local to the package because importing internal/rng here
// would be an import cycle: rng builds on mat.
type testRand struct{ s uint64 }

func newTestRand(a, b uint64) *testRand {
	return &testRand{s: a*0x9e3779b97f4a7c15 + b}
}

func (r *testRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *testRand) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// IntN returns a uniform-enough value in [0, n) for test sizing.
func (r *testRand) IntN(n int) int { return int(r.next() % uint64(n)) }
