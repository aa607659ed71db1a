// Package gauss implements weighted multivariate Gaussians and Gaussian
// Mixtures — the summary domain of the paper's GM instantiation (§5).
//
// A collection of weighted values is summarized by the tuple (mu, sigma)
// of its weighted mean and covariance; together with the collection
// weight this is a weighted Gaussian. A classification is a weighted set
// of Gaussians — a Gaussian Mixture.
//
// Covariances may be singular: a freshly summarized input value has a
// zero covariance matrix (§5.1: "valToSummary(val) returns a collection
// with an average equal to val, a zero covariance matrix, and a weight
// of 1"). Density evaluation therefore conditions the covariance with a
// variance floor (sigma + floor*I) before factoring.
package gauss

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"distclass/internal/mat"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

// DefaultVarianceFloor is the ridge added to covariance diagonals before
// density evaluation, keeping singleton (zero-covariance) summaries
// usable. It is large enough to dominate float64 rounding in the
// experiments' coordinate ranges and small enough not to distort any
// non-degenerate covariance.
const DefaultVarianceFloor = 1e-6

const log2Pi = 1.8378770664093453 // log(2*pi)

// ErrEmpty reports an operation over an empty set of components.
var ErrEmpty = errors.New("gauss: empty component set")

// Gaussian is a multivariate normal distribution N(Mean, Cov). Cov is
// symmetric positive semi-definite; it may be singular (see package
// comment).
type Gaussian struct {
	Mean vec.Vector
	Cov  *mat.Matrix
}

// NewPoint returns the Gaussian summarizing a single value: mean = val,
// zero covariance.
func NewPoint(val vec.Vector) Gaussian {
	return Gaussian{Mean: val.Clone(), Cov: mat.New(val.Dim())}
}

// New validates and returns a Gaussian with the given moments.
func New(mean vec.Vector, cov *mat.Matrix) (Gaussian, error) {
	if mean.Dim() != cov.Dim() {
		return Gaussian{}, fmt.Errorf("gauss: mean dim %d vs cov dim %d", mean.Dim(), cov.Dim())
	}
	if !mean.IsFinite() || !cov.IsFinite() {
		return Gaussian{}, errors.New("gauss: non-finite moments")
	}
	if !cov.IsSymmetric(1e-8) {
		return Gaussian{}, errors.New("gauss: covariance is not symmetric")
	}
	// Symmetrizing averages each off-diagonal pair, which overflows
	// for entries beyond half the largest float64.
	sym := cov.Symmetrize()
	if !sym.IsFinite() {
		return Gaussian{}, errors.New("gauss: covariance overflows when symmetrized")
	}
	return Gaussian{Mean: mean.Clone(), Cov: sym}, nil
}

// Dim returns the dimension of the distribution.
func (g Gaussian) Dim() int { return g.Mean.Dim() }

// Clone returns an independent copy.
func (g Gaussian) Clone() Gaussian {
	return Gaussian{Mean: g.Mean.Clone(), Cov: g.Cov.Clone()}
}

// String renders the Gaussian compactly.
func (g Gaussian) String() string {
	return fmt.Sprintf("N(mean=%v, cov=%v)", g.Mean, g.Cov)
}

// Conditioned is a Gaussian prepared for repeated density evaluation:
// its (floored) covariance is factored once.
type Conditioned struct {
	g      Gaussian
	chol   *mat.Cholesky
	logDet float64
	inv    *mat.Matrix // lazily computed by Inverse
}

// Condition factors g's covariance after adding floor*I. A non-positive
// floor is replaced by DefaultVarianceFloor when the raw covariance is
// not positive definite.
func (g Gaussian) Condition(floor float64) (*Conditioned, error) {
	cov := g.Cov
	if floor > 0 {
		cov = g.Cov.Clone()
		for i := 0; i < cov.Dim(); i++ {
			cov.Set(i, i, cov.At(i, i)+floor)
		}
	}
	chol, err := mat.NewCholesky(cov)
	if err != nil {
		if floor <= 0 {
			return g.Condition(DefaultVarianceFloor)
		}
		// Escalate the floor: extremely ill-conditioned covariances can
		// defeat a tiny ridge.
		if floor < 1 {
			return g.Condition(floor * 1e3)
		}
		return nil, fmt.Errorf("gauss: conditioning failed: %w", err)
	}
	return &Conditioned{g: g, chol: chol, logDet: chol.LogDet()}, nil
}

// Gaussian returns the underlying distribution (with the original,
// unfloored covariance).
func (c *Conditioned) Gaussian() Gaussian { return c.g }

// LogDet returns log det of the conditioned covariance.
func (c *Conditioned) LogDet() float64 { return c.logDet }

// LogDensity returns log N(x; mu, sigma_floored).
func (c *Conditioned) LogDensity(x vec.Vector) (float64, error) {
	diff, err := vec.Sub(x, c.g.Mean)
	if err != nil {
		return 0, err
	}
	q, err := c.chol.QuadForm(diff)
	if err != nil {
		return 0, err
	}
	d := float64(c.g.Dim())
	return -0.5 * (d*log2Pi + c.logDet + q), nil
}

// Density returns N(x; mu, sigma_floored).
func (c *Conditioned) Density(x vec.Vector) (float64, error) {
	lp, err := c.LogDensity(x)
	if err != nil {
		return 0, err
	}
	return math.Exp(lp), nil
}

// Mahalanobis returns the Mahalanobis distance of x from the mean.
func (c *Conditioned) Mahalanobis(x vec.Vector) (float64, error) {
	diff, err := vec.Sub(x, c.g.Mean)
	if err != nil {
		return 0, err
	}
	q, err := c.chol.QuadForm(diff)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(q), nil
}

// Inverse returns the inverse of the conditioned covariance, computing
// and caching it on first use.
func (c *Conditioned) Inverse() (*mat.Matrix, error) {
	if c.inv == nil {
		inv, err := c.chol.Inverse()
		if err != nil {
			return nil, err
		}
		c.inv = inv
	}
	return c.inv, nil
}

// ExpectedLogDensity returns E_{x ~ src}[log N(x; c)], the expected
// log-density of the conditioned Gaussian over another Gaussian:
//
//	log N(src.Mean; c) - tr(c.Cov^{-1} src.Cov)/2.
//
// This is the E-step affinity used by the EM mixture-reduction
// partition function (§5.2): it scores how well component c explains
// the whole sub-population summarized by src, not just its mean.
func (c *Conditioned) ExpectedLogDensity(src Gaussian) (float64, error) {
	base, err := c.LogDensity(src.Mean)
	if err != nil {
		return 0, err
	}
	inv, err := c.Inverse()
	if err != nil {
		return 0, err
	}
	prod, err := mat.Mul(inv, src.Cov)
	if err != nil {
		return 0, err
	}
	return base - prod.Trace()/2, nil
}

// KL returns the Kullback-Leibler divergence KL(src || c) where both
// covariances are conditioned with the same floor as c. src must be
// conditionable.
func (c *Conditioned) KL(src *Conditioned) (float64, error) {
	inv, err := c.Inverse()
	if err != nil {
		return 0, err
	}
	// tr(Sigma_c^{-1} Sigma_src): use src's *conditioned* covariance via
	// its factor L: tr(inv * L L^T).
	l := src.chol.L()
	llt, err := mat.Mul(l, l.Transpose())
	if err != nil {
		return 0, err
	}
	prod, err := mat.Mul(inv, llt)
	if err != nil {
		return 0, err
	}
	diff, err := vec.Sub(c.g.Mean, src.g.Mean)
	if err != nil {
		return 0, err
	}
	q, err := c.chol.QuadForm(diff)
	if err != nil {
		return 0, err
	}
	d := float64(c.g.Dim())
	return 0.5 * (prod.Trace() + q - d + c.logDet - src.logDet), nil
}

// Component is a weighted Gaussian: one collection of the GM algorithm.
type Component struct {
	Gaussian
	Weight float64
}

// Clone returns an independent copy.
func (c Component) Clone() Component {
	return Component{Gaussian: c.Gaussian.Clone(), Weight: c.Weight}
}

// String renders the component compactly.
func (c Component) String() string {
	return fmt.Sprintf("{w=%.4g %v}", c.Weight, c.Gaussian)
}

// Merge returns the moment-preserving merge of the components: the
// Gaussian with the mean and covariance of the union of the underlying
// collections, and the summed weight. This implements the paper's
// mergeSet for the GM instantiation and satisfies requirement R4:
// merging summaries equals summarizing the merged collection.
func Merge(cs []Component) (Component, error) {
	if len(cs) == 0 {
		return Component{}, ErrEmpty
	}
	d := cs[0].Dim()
	mean, cov := vec.New(d), mat.New(d)
	total, err := MergeInto(mean, cov, vec.New(d), cs)
	if err != nil {
		return Component{}, err
	}
	return Component{Gaussian: Gaussian{Mean: mean, Cov: cov}, Weight: total}, nil
}

// MergeInto is Merge into caller-owned storage: it overwrites mean and
// cov with the merged moments, uses diff as scratch, and returns the
// summed weight. All three must have the components' dimension. Merge
// is MergeInto over fresh storage, so the two agree bit for bit; hot
// loops (em.ReduceMixture's M-step) reuse one set of buffers instead.
func MergeInto(mean vec.Vector, cov *mat.Matrix, diff vec.Vector, cs []Component) (float64, error) {
	if len(cs) == 0 {
		return 0, ErrEmpty
	}
	d := cs[0].Dim()
	if mean.Dim() != d || cov.Dim() != d || diff.Dim() != d {
		return 0, fmt.Errorf("gauss: merge buffers have dims %d, %d, %d, want %d", mean.Dim(), cov.Dim(), diff.Dim(), d)
	}
	var total float64
	for i := range mean {
		mean[i] = 0
	}
	for i, c := range cs {
		if c.Dim() != d {
			return 0, fmt.Errorf("gauss: component %d has dim %d, want %d", i, c.Dim(), d)
		}
		if c.Weight <= 0 {
			return 0, fmt.Errorf("gauss: component %d has non-positive weight %v", i, c.Weight)
		}
		total += c.Weight
		vec.Axpy(mean, c.Weight, c.Mean)
	}
	vec.ScaleInPlace(1/total, mean)
	cov.Reset()
	for _, c := range cs {
		// Law of total covariance: within-component plus between-component.
		mat.AddInPlace(cov, c.Weight/total, c.Cov)
		vec.SubInto(diff, c.Mean, mean)
		mat.AddOuterInPlace(cov, c.Weight/total, diff)
	}
	cov.SymmetrizeInPlace()
	return total, nil
}

// Mixture is a weighted set of Gaussians — a classification in the GM
// instantiation.
type Mixture []Component

// TotalWeight returns the sum of component weights.
func (m Mixture) TotalWeight() float64 {
	var s float64
	for _, c := range m {
		s += c.Weight
	}
	return s
}

// Dim returns the dimension of the mixture (0 for an empty mixture).
func (m Mixture) Dim() int {
	if len(m) == 0 {
		return 0
	}
	return m[0].Dim()
}

// Clone returns a deep copy.
func (m Mixture) Clone() Mixture {
	out := make(Mixture, len(m))
	for i, c := range m {
		out[i] = c.Clone()
	}
	return out
}

// Mean returns the overall mean of the mixture (weight-averaged
// component means).
func (m Mixture) Mean() (vec.Vector, error) {
	if len(m) == 0 {
		return nil, ErrEmpty
	}
	merged, err := Merge(m)
	if err != nil {
		return nil, err
	}
	return merged.Mean, nil
}

// LogDensity returns log sum_j (w_j / W) N(x; component j), with each
// component conditioned by floor. It uses the log-sum-exp trick for
// numerical stability.
func (m Mixture) LogDensity(x vec.Vector, floor float64) (float64, error) {
	if len(m) == 0 {
		return 0, ErrEmpty
	}
	total := m.TotalWeight()
	logs := make([]float64, len(m))
	for i, c := range m {
		cond, err := c.Condition(floor)
		if err != nil {
			return 0, err
		}
		lp, err := cond.LogDensity(x)
		if err != nil {
			return 0, err
		}
		logs[i] = math.Log(c.Weight/total) + lp
	}
	return LogSumExp(logs), nil
}

// Sample draws n values from the mixture (component by relative weight,
// then the component's Gaussian, conditioned by floor so that
// zero-covariance components yield near-point samples).
func (m Mixture) Sample(r *rng.RNG, n int, floor float64) ([]vec.Vector, error) {
	if len(m) == 0 {
		return nil, ErrEmpty
	}
	weights := make([]float64, len(m))
	samplers := make([]*rng.MVN, len(m))
	for i, c := range m {
		weights[i] = c.Weight
		cov := c.Cov.Clone()
		f := floor
		if f <= 0 {
			f = DefaultVarianceFloor
		}
		for j := 0; j < cov.Dim(); j++ {
			cov.Set(j, j, cov.At(j, j)+f)
		}
		mvn, err := rng.NewMVN(c.Mean, cov)
		if err != nil {
			return nil, fmt.Errorf("gauss: component %d: %w", i, err)
		}
		samplers[i] = mvn
	}
	out := make([]vec.Vector, n)
	for i := range out {
		idx, err := r.Categorical(weights)
		if err != nil {
			return nil, err
		}
		out[i] = samplers[idx].Sample(r)
	}
	return out, nil
}

// String renders the mixture one component per line.
func (m Mixture) String() string {
	var b strings.Builder
	for i, c := range m {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// LogSumExp returns log(sum exp(x_i)) computed stably.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}
