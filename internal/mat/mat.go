// Package mat provides small dense square matrices and the symmetric
// positive-definite (SPD) routines the Gaussian machinery needs:
// Cholesky factorization, SPD linear solves, inverses and
// log-determinants.
//
// Matrices here are tiny (the data dimension d of the classified values,
// typically 1-16), so the implementation favors clarity and numerical
// care over blocking or SIMD. Storage is a flat row-major []float64.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"distclass/internal/vec"
)

// ErrNotSPD reports that a Cholesky factorization failed because the
// matrix is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not positive definite")

// ErrDimMismatch reports incompatible matrix/vector dimensions.
var ErrDimMismatch = errors.New("mat: dimension mismatch")

// Matrix is a square d x d matrix stored row-major.
type Matrix struct {
	d    int
	data []float64
}

// New returns a zero d x d matrix.
func New(d int) *Matrix {
	if d < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d", d))
	}
	return &Matrix{d: d, data: make([]float64, d*d)}
}

// NewBatch returns n zero d x d matrices over one shared backing array:
// two allocations however large n is. Use them through pointers
// (&ms[i]); a copied Matrix shares its entries.
func NewBatch(n, d int) []Matrix {
	if n < 0 || d < 0 {
		panic(fmt.Sprintf("mat: negative batch %d of dimension %d", n, d))
	}
	data := make([]float64, n*d*d)
	ms := make([]Matrix, n)
	for i := range ms {
		ms[i] = Matrix{d: d, data: data[i*d*d : (i+1)*d*d : (i+1)*d*d]}
	}
	return ms
}

// Identity returns the d x d identity matrix.
func Identity(d int) *Matrix {
	m := New(d)
	for i := 0; i < d; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diagonal returns a matrix with the given diagonal entries.
func Diagonal(diag ...float64) *Matrix {
	m := New(len(diag))
	for i, x := range diag {
		m.Set(i, i, x)
	}
	return m
}

// FromRows builds a matrix from row slices. All rows must have length
// equal to the number of rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	d := len(rows)
	m := New(d)
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("%w: row %d has %d entries, want %d", ErrDimMismatch, i, len(row), d)
		}
		copy(m.data[i*d:(i+1)*d], row)
	}
	return m, nil
}

// Dim returns the dimension d.
func (m *Matrix) Dim() int { return m.d }

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.d+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, x float64) { m.data[i*m.d+j] = x }

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.d)
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m with src's entries without allocating — the
// restore step of scratch-matrix loops.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.d != src.d {
		return fmt.Errorf("%w: %d vs %d", ErrDimMismatch, m.d, src.d)
	}
	copy(m.data, src.data)
	return nil
}

// Equal reports exact equality of dimensions and entries.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.d != n.d {
		return false
	}
	for i := range m.data {
		if m.data[i] != n.data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports entry-wise equality within tol.
func (m *Matrix) ApproxEqual(n *Matrix, tol float64) bool {
	if m.d != n.d {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns m + n.
func Add(m, n *Matrix) (*Matrix, error) {
	if m.d != n.d {
		return nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, m.d, n.d)
	}
	out := New(m.d)
	for i := range m.data {
		out.data[i] = m.data[i] + n.data[i]
	}
	return out, nil
}

// Sub returns m - n.
func Sub(m, n *Matrix) (*Matrix, error) {
	if m.d != n.d {
		return nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, m.d, n.d)
	}
	out := New(m.d)
	for i := range m.data {
		out.data[i] = m.data[i] - n.data[i]
	}
	return out, nil
}

// Scale returns a*m.
func Scale(a float64, m *Matrix) *Matrix {
	out := New(m.d)
	for i := range m.data {
		out.data[i] = a * m.data[i]
	}
	return out
}

// AddInPlace sets dst = dst + a*m. It panics on dimension mismatch;
// it is the accumulation kernel used after boundary validation.
func AddInPlace(dst *Matrix, a float64, m *Matrix) {
	if dst.d != m.d {
		panic(fmt.Sprintf("mat: AddInPlace dimension mismatch: %d vs %d", dst.d, m.d))
	}
	for i := range dst.data {
		dst.data[i] += a * m.data[i]
	}
}

// Mul returns the matrix product m*n.
func Mul(m, n *Matrix) (*Matrix, error) {
	if m.d != n.d {
		return nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, m.d, n.d)
	}
	d := m.d
	out := New(d)
	for i := 0; i < d; i++ {
		for k := 0; k < d; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < d; j++ {
				out.data[i*d+j] += a * n.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns m*v.
func MulVec(m *Matrix, v vec.Vector) (vec.Vector, error) {
	if m.d != v.Dim() {
		return nil, fmt.Errorf("%w: matrix %d vs vector %d", ErrDimMismatch, m.d, v.Dim())
	}
	out := vec.New(m.d)
	for i := 0; i < m.d; i++ {
		var s float64
		for j := 0; j < m.d; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// Outer returns the outer product v * w^T.
func Outer(v, w vec.Vector) (*Matrix, error) {
	if v.Dim() != w.Dim() {
		return nil, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, v.Dim(), w.Dim())
	}
	out := New(v.Dim())
	for i := range v {
		for j := range w {
			out.Set(i, j, v[i]*w[j])
		}
	}
	return out, nil
}

// AddOuterInPlace sets dst = dst + a * v v^T. It panics on dimension
// mismatch; it is the covariance-accumulation kernel.
func AddOuterInPlace(dst *Matrix, a float64, v vec.Vector) {
	if dst.d != v.Dim() {
		panic(fmt.Sprintf("mat: AddOuterInPlace dimension mismatch: %d vs %d", dst.d, v.Dim()))
	}
	for i := range v {
		avi := a * v[i]
		for j := range v {
			dst.data[i*dst.d+j] += avi * v[j]
		}
	}
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.d)
	for i := 0; i < m.d; i++ {
		for j := 0; j < m.d; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Trace returns the sum of diagonal entries.
func (m *Matrix) Trace() float64 {
	var s float64
	for i := 0; i < m.d; i++ {
		s += m.At(i, i)
	}
	return s
}

// IsSymmetric reports whether m is symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	for i := 0; i < m.d; i++ {
		for j := i + 1; j < m.d; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Symmetrize returns (m + m^T)/2, forcing exact symmetry.
func (m *Matrix) Symmetrize() *Matrix {
	out := m.Clone()
	out.SymmetrizeInPlace()
	return out
}

// SymmetrizeInPlace sets m = (m + m^T)/2 without allocating; the
// entries equal Symmetrize's bit for bit.
func (m *Matrix) SymmetrizeInPlace() {
	for i := 0; i < m.d; i++ {
		for j := i + 1; j < m.d; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

// Reset sets every entry of m to zero.
func (m *Matrix) Reset() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// IsZero reports whether every entry of m is exactly zero.
func (m *Matrix) IsZero() bool {
	for _, x := range m.data {
		if x != 0 {
			return false
		}
	}
	return true
}

// IsFinite reports whether every entry is finite.
func (m *Matrix) IsFinite() bool {
	for _, x := range m.data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Cholesky holds a lower-triangular Cholesky factor L with A = L L^T.
type Cholesky struct {
	d int
	l []float64 // row-major lower triangle, full d x d storage
}

// NewCholesky factors the SPD matrix a. It returns ErrNotSPD if a pivot
// is not positive (the matrix is singular or indefinite).
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{d: a.d, l: make([]float64, a.d*a.d)}
	if err := c.Factor(a); err != nil {
		return nil, err
	}
	return c, nil
}

// CholeskyWorkspace returns an unfactored d-dimensional Cholesky for
// use with Factor: hot loops allocate it once and refactor in place.
func CholeskyWorkspace(d int) *Cholesky {
	if d < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d", d))
	}
	return &Cholesky{d: d, l: make([]float64, d*d)}
}

// Factor refactors c in place over a new matrix of the same dimension,
// reusing the factor storage — the allocation-free path for hot loops
// that factor many same-sized covariances (em.ReduceMixture's affinity
// kernel). A failed pivot returns the bare ErrNotSPD, so the failures
// those loops expect (rank-deficient covariances, ridge retries)
// allocate nothing either. On error the factor contents are
// unspecified; refactor before further use.
func (c *Cholesky) Factor(a *Matrix) error {
	d := a.d
	if c.d != d {
		return fmt.Errorf("%w: factor %d vs matrix %d", ErrDimMismatch, c.d, d)
	}
	// The algorithm never writes the strict upper triangle, so clear all
	// storage up front: L() copies the full d x d block, and a previous
	// factorization's leftovers there would corrupt it.
	for i := range c.l {
		c.l[i] = 0
	}
	for i := 0; i < d; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= c.l[i*d+k] * c.l[j*d+k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return ErrNotSPD
				}
				c.l[i*d+i] = math.Sqrt(s)
			} else {
				c.l[i*d+j] = s / c.l[j*d+j]
			}
		}
	}
	return nil
}

// Dim returns the dimension of the factored matrix.
func (c *Cholesky) Dim() int { return c.d }

// L returns a copy of the lower-triangular factor as a full matrix.
func (c *Cholesky) L() *Matrix {
	m := New(c.d)
	copy(m.data, c.l)
	return m
}

// LogDet returns log det(A) = 2 * sum(log L_ii).
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.d; i++ {
		s += math.Log(c.l[i*c.d+i])
	}
	return 2 * s
}

// Solve returns x with A x = b.
func (c *Cholesky) Solve(b vec.Vector) (vec.Vector, error) {
	if b.Dim() != c.d {
		return nil, fmt.Errorf("%w: factor %d vs vector %d", ErrDimMismatch, c.d, b.Dim())
	}
	d := c.d
	// Forward substitution: L y = b.
	y := vec.New(d)
	for i := 0; i < d; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*d+k] * y[k]
		}
		y[i] = s / c.l[i*d+i]
	}
	// Back substitution: L^T x = y.
	x := vec.New(d)
	for i := d - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < d; k++ {
			s -= c.l[k*d+i] * x[k]
		}
		x[i] = s / c.l[i*d+i]
	}
	return x, nil
}

// SolveHalf returns y with L y = b (forward substitution only). The
// squared Mahalanobis form b^T A^{-1} b equals ||y||^2, which is how the
// Gaussian density evaluates quadratic forms without a full solve.
func (c *Cholesky) SolveHalf(b vec.Vector) (vec.Vector, error) {
	y := vec.New(c.d)
	if err := c.SolveHalfInto(y, b); err != nil {
		return nil, err
	}
	return y, nil
}

// SolveHalfInto is SolveHalf writing into a caller-owned dst — the
// allocation-free path for hot loops. dst and b may alias.
func (c *Cholesky) SolveHalfInto(dst, b vec.Vector) error {
	if b.Dim() != c.d || dst.Dim() != c.d {
		return fmt.Errorf("%w: factor %d vs vectors %d, %d", ErrDimMismatch, c.d, dst.Dim(), b.Dim())
	}
	d := c.d
	for i := 0; i < d; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= c.l[i*d+k] * dst[k]
		}
		dst[i] = s / c.l[i*d+i]
	}
	return nil
}

// Inverse returns A^{-1} computed column-by-column from the factor.
func (c *Cholesky) Inverse() (*Matrix, error) {
	d := c.d
	inv := New(d)
	e := vec.New(d)
	for j := 0; j < d; j++ {
		e[j] = 1
		col, err := c.Solve(e)
		if err != nil {
			return nil, err
		}
		e[j] = 0
		for i := 0; i < d; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv.Symmetrize(), nil
}

// QuadForm returns b^T A^{-1} b using the Cholesky factor.
func (c *Cholesky) QuadForm(b vec.Vector) (float64, error) {
	y, err := c.SolveHalf(b)
	if err != nil {
		return 0, err
	}
	s, err := vec.Dot(y, y)
	if err != nil {
		return 0, err
	}
	return s, nil
}

// SolveSPD solves A x = b for SPD A in one call.
func SolveSPD(a *Matrix, b vec.Vector) (vec.Vector, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Solve(b)
}

// String renders the matrix as rows of compact floats.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.d; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteByte('[')
		for j := 0; j < m.d; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteByte(']')
	}
	return b.String()
}
