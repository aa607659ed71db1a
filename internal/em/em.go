// Package em implements the Expectation-Maximization machinery the
// paper relies on:
//
//   - ReduceMixture — hard-assignment EM that fits a k-component
//     Gaussian Mixture to an l-component one (l > k). This is the
//     "partition" engine of the paper's GM instantiation (§5.2):
//     Maximum-Likelihood reduction is NP-hard, so the algorithm
//     approximates it with EM, scoring each input Gaussian against each
//     candidate component by expected log-density and moment-matching
//     the winners.
//   - FitGMM — classic soft EM over raw points, the centralized
//     baseline the paper's related work simulates distributively
//     (Kowalczyk & Vlassis).
//   - KMeans — Lloyd's algorithm with k-means++ seeding, the
//     centralized baseline behind the centroids instantiation
//     (MacQueen; Datta et al. distribute it).
package em

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"distclass/internal/gauss"
	"distclass/internal/mat"
	"distclass/internal/rng"
	"distclass/internal/stats"
	"distclass/internal/vec"
)

// ErrNoData reports a fit requested over no inputs.
var ErrNoData = errors.New("em: no input data")

const log2Pi = 1.8378770664093453 // log(2*pi)

// Options tune the EM loops. The zero value selects the defaults.
type Options struct {
	// MaxIters bounds the EM iterations (default 50).
	MaxIters int
	// Tol stops soft EM when the per-point log-likelihood improves by
	// less than this (default 1e-6).
	Tol float64
	// VarFloor is the ridge added to covariances before density
	// evaluation (default gauss.DefaultVarianceFloor).
	VarFloor float64
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 50
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.VarFloor <= 0 {
		o.VarFloor = gauss.DefaultVarianceFloor
	}
	return o
}

// ReduceMixture partitions the given weighted Gaussians into at most k
// groups such that merging each group yields a k-component mixture that
// explains the input well. It returns the member-index groups (the form
// the generic algorithm's partition function needs).
//
// The loop is hard EM over components: E-step assigns every input
// Gaussian to the candidate with the maximal merge-aware affinity (see
// affinity below); M-step moment-matches each candidate to its assigned
// inputs. Candidates are seeded by farthest-first traversal over the
// input means (deterministic), so the reduction needs no RNG.
//
// The E-step affinity scores input i against candidate j as
//
//	log N(mu_i; mu_j, Sigma_j + Sigma_i + c_ij I)
//
// where c_ij = (w_i w_j / (w_i+w_j)^2) ||mu_i - mu_j||^2 / d + floor is
// the isotropic variance the hypothetical merge of i and j would add.
// The score deliberately carries no log-weight prior: hard assignment
// with a prior starves freshly seeded light candidates (a heavy far
// cluster outscores a tiny same-cluster seed by the prior gap alone),
// which collapses well-separated clusters into one component. Dropping
// the prior makes the E-step a geometry-only rule in the spirit of
// k-means / hard mixture clustering.
// Folding the input's own covariance and the merge-induced spread into
// the evaluation covariance keeps the score finite and meaningful when
// candidates are freshly summarized input values with zero covariance —
// a plain expected-log-density E-step makes such degenerate candidates
// reject even their closest peers (the quadratic form explodes at 1/floor),
// driving every input into the widest cluster and permanently
// contaminating it. The merge-aware form preserves the variance
// awareness the paper's Figure 1 motivates while remaining robust to
// singletons.
//
// The E-step skips the factorization of any pair a certified upper
// bound rules out (see reducer.limit) and scores 2-D pairs in closed
// form (see affinity2); the M-step moment-matches in the reducer's own
// buffers. The groups equal those of the plain loop — every score
// compared exactly, every candidate merged by gauss.Merge — for every
// input, bit for bit.
//
// The reducer's buffers come from reducerPool and outlive the call, so
// a warm call allocates only the groups it returns.
func ReduceMixture(cs []gauss.Component, k int, opts Options) ([][]int, error) {
	opts = opts.withDefaults()
	if len(cs) == 0 {
		return nil, ErrNoData
	}
	if k < 1 {
		return nil, fmt.Errorf("em: k = %d must be at least 1", k)
	}
	if len(cs) <= k {
		flat := make([]int, len(cs))
		groups := make([][]int, len(cs))
		for i := range cs {
			flat[i] = i
			groups[i] = flat[i : i+1 : i+1]
		}
		return groups, nil
	}
	r := reducerPool.Get().(*reducer)
	groups, err := r.reduce(cs, k, opts)
	r.release()
	reducerPool.Put(r)
	return groups, err
}

// reducerPool holds reducers between ReduceMixture calls, so buffers
// exist about once per P rather than once per call (DESIGN.md,
// "Zero-alloc hot paths"). ReduceMixture releases every reducer before
// it goes back, so the pool holds no input from one call to the next.
//
//lint:allow globalstate a pool of released reducers carries no run state; it only recycles capacity
var reducerPool = sync.Pool{New: func() any { return new(reducer) }}

// reduce runs the EM loop of ReduceMixture over len(cs) > k inputs.
func (r *reducer) reduce(cs []gauss.Component, k int, opts Options) ([][]int, error) {
	if err := r.reset(cs, k, opts.VarFloor); err != nil {
		return nil, err
	}
	// Initial candidates: copies of the seed components themselves.
	for _, s := range r.farthestFirst(k) {
		p := len(r.targets)
		r.targets = r.targets[:p+1]
		t := &r.targets[p]
		copy(t.Mean, cs[s].Mean)
		if err := t.Cov.CopyFrom(cs[s].Cov); err != nil {
			return nil, err
		}
		t.Weight = cs[s].Weight
		r.tb[p] = r.ib[s]
	}
	for iter := 0; iter < opts.MaxIters; iter++ {
		changed, err := r.eStep()
		if err != nil {
			return nil, err
		}
		if !changed {
			break
		}
		if err := r.mStep(); err != nil {
			return nil, err
		}
	}
	return r.groups(), nil
}

// Pruning constants (see reducer.limit).
const (
	// pruneCap bounds d³·κ, where κ = T/c_ij over-estimates the
	// condition number of the evaluation covariance S. Below it the raw
	// Cholesky of S cannot fail, so the ridge ladder never engages.
	pruneCap = 1e9
	// ldErrPerKappa over-estimates the error of a computed Cholesky
	// log-determinant per unit of d³·κ: about 900 units of float64
	// roundoff.
	ldErrPerKappa = 1e-13
	// pruneMargin covers the log-det error of S (at most
	// ldErrPerKappa·pruneCap) and the rounding of the final sums.
	pruneMargin = ldErrPerKappa*pruneCap + 1e-6
)

// bound is what the E-step pruning bound needs of one component: its
// covariance trace, ld = logdet(Cov + floor·I), the error allowance of
// that computed log-det, and whether the bound may use them at all.
type bound struct {
	tr, ld, ldErr float64
	ok            bool
}

// reducer holds one ReduceMixture call's state. The buffers outlive
// the call: reset sizes them to each call, growing one only when it is
// too short, and overwrites every value before it is read, so nothing
// carries over from the previous call but capacity.
type reducer struct {
	cs      []gauss.Component
	d       int
	dF, d3  float64 // d and d³
	floor   float64
	ldZero  float64 // logdet(floor·I)
	s       *affinityScratch
	targets []gauss.Component // current candidates over per-slot buffers
	ib, tb  []bound           // per input, per candidate slot
	assign  []int             // per input: candidate index, -1 before the first E-step
	lim     []float64         // per candidate: the current input's score limit
	idx     []int             // inputs counting-sorted by candidate
	count   []int             // per candidate: counting-sort offsets
	remap   []int             // per candidate: slot after compaction, -1 if empty
	sub     []gauss.Component // one candidate's members, handed to MergeInto
	diff    vec.Vector        // MergeInto scratch
	seeds   []int             // farthestFirst's picks
	minDist []float64         // per input: squared distance to the nearest seed
	means   []float64         // backing of the candidates' means and diff
	covs    []mat.Matrix      // the candidates' covariances
}

// reset validates the inputs' dimensions, sizes r's buffers for them
// and up to k candidates, and precomputes the inputs' bounds.
func (r *reducer) reset(cs []gauss.Component, k int, floor float64) error {
	n, d := len(cs), cs[0].Dim()
	for i, c := range cs {
		if c.Cov == nil {
			return fmt.Errorf("em: input %d has no covariance", i)
		}
		if c.Mean.Dim() != d || c.Cov.Dim() != d {
			return fmt.Errorf("em: input %d: %w: mean dim %d, covariance dim %d, want %d",
				i, vec.ErrDimMismatch, c.Mean.Dim(), c.Cov.Dim(), d)
		}
	}
	r.cs, r.d, r.floor = cs, d, floor
	r.dF, r.d3 = float64(d), float64(d)*float64(d)*float64(d)
	r.ldZero = float64(d) * math.Log(floor)
	if r.s == nil || r.s.delta.Dim() != d {
		r.s = newAffinityScratch(d)
	}
	if len(r.covs) < k || r.covs[0].Dim() != d {
		r.covs = mat.NewBatch(k, d)
	}
	r.means = grow(r.means, (k+1)*d)
	r.targets = grow(r.targets, k)
	for p := range r.targets {
		r.targets[p].Mean = vec.Vector(r.means[p*d : (p+1)*d : (p+1)*d])
		r.targets[p].Cov = &r.covs[p]
	}
	r.targets = r.targets[:0]
	r.diff = vec.Vector(r.means[k*d : (k+1)*d])
	r.ib, r.tb = grow(r.ib, n), grow(r.tb, k)
	r.assign, r.idx = grow(r.assign, n), grow(r.idx, n)
	r.count, r.remap, r.lim = grow(r.count, k), grow(r.remap, k), grow(r.lim, k)
	r.sub = grow(r.sub, n)[:0]
	r.seeds, r.minDist = grow(r.seeds, k)[:0], grow(r.minDist, n)
	for i, c := range cs {
		r.assign[i] = -1
		r.ib[i] = r.certify(c)
	}
	return nil
}

// release drops every reference r holds to the call's inputs — the
// input slice and the member copies handed to MergeInto — so the pool
// pins no summary. It runs on every exit path of ReduceMixture.
func (r *reducer) release() {
	r.cs = nil
	clear(r.sub[:cap(r.sub)])
	r.sub = r.sub[:0]
}

// grow returns s resliced to length n, reallocated only when its
// capacity is short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// certify computes c's bound. The pruning bound assumes a positive
// semi-definite covariance, which wire-decoded summaries need not have,
// so a component qualifies only with a positive finite weight and a
// finite, exactly symmetric covariance that is exactly zero or whose
// raw Cholesky factorization succeeds (positive definite up to
// roundoff). Any other component is scored exactly against every
// candidate.
func (r *reducer) certify(c gauss.Component) bound {
	cov := c.Cov
	if !(c.Weight > 0) || math.IsInf(c.Weight, 1) || !cov.IsFinite() || !cov.IsSymmetric(0) {
		return bound{}
	}
	b := bound{ld: r.ldZero, ok: true}
	if !cov.IsZero() {
		ld, ok := r.ridgedLogDet(cov)
		if !ok {
			return bound{}
		}
		b.tr, b.ld = cov.Trace(), ld
	}
	// Cov + floor·I has condition number at most tr/floor + 1.
	b.ldErr = ldErrPerKappa * r.d3 * (b.tr/r.floor + 1)
	if math.IsInf(b.tr, 0) || math.IsNaN(b.ld) || math.IsInf(b.ld, 0) || math.IsNaN(b.ldErr) {
		return bound{}
	}
	return b
}

// ridgedLogDet returns logdet(cov + floor·I), or false unless both cov
// and cov + floor·I factor.
func (r *reducer) ridgedLogDet(cov *mat.Matrix) (float64, bool) {
	if r.d == 2 {
		return ridgedLogDet2(cov, r.floor)
	}
	s := r.s
	if s.chol.Factor(cov) != nil {
		return 0, false
	}
	if err := s.covF.CopyFrom(cov); err != nil {
		return 0, false
	}
	for x := 0; x < r.d; x++ {
		s.covF.Set(x, x, s.covF.At(x, x)+r.floor)
	}
	if s.chol.Factor(s.covF) != nil {
		return 0, false
	}
	return s.chol.LogDet(), true
}

// ridgedLogDet2 is ridgedLogDet for a 2×2 cov in closed form, with the
// float operations of the two Factor calls and LogDet in their order.
// A failed pivot is no error here, only an uncertified bound, so the
// closed form decides it too, without the error value Factor would
// allocate for every rank-deficient covariance.
func ridgedLogDet2(cov *mat.Matrix, floor float64) (float64, bool) {
	c00, c10, c11 := cov.At(0, 0), cov.At(1, 0), cov.At(1, 1)
	if c00 <= 0 || math.IsNaN(c00) {
		return 0, false
	}
	l10 := c10 / math.Sqrt(c00)
	p := c11
	p -= l10 * l10
	if p <= 0 || math.IsNaN(p) {
		return 0, false
	}
	a00 := c00 + floor
	if a00 <= 0 || math.IsNaN(a00) {
		return 0, false
	}
	l00 := math.Sqrt(a00)
	l10 = c10 / l00
	p = c11 + floor
	p -= l10 * l10
	if p <= 0 || math.IsNaN(p) {
		return 0, false
	}
	var ld float64
	ld += math.Log(l00)
	ld += math.Log(math.Sqrt(p))
	return 2 * ld, true
}

// limit returns a score that input i's affinity to candidate j, as
// affinity computes it, stays strictly below; +Inf when no bound
// applies. With S = Cov_i + Cov_j + c_ij·I the evaluation covariance,
// gap = ||mu_i - mu_j||² and c_ij >= floor the affinity's own terms,
// and both covariances positive semi-definite:
//
//   - S ⪰ Cov_i + floor·I and S ⪰ Cov_j + floor·I, so
//     logdet(S) >= max(ld_i, ld_j);
//   - the quadratic form q = δᵀS⁻¹δ >= gap/λmax(S) >= gap/T with
//     T = tr_i + tr_j + d·c_ij = tr(S).
//
// Hence affinity <= UB = -½(d·log2π + max(ld_i, ld_j) + gap/T). The
// limit adds a margin for the floating-point error of the bound and of
// the exact score. A computed log-det errs by at most ldErrPerKappa·d³·κ
// for its matrix's condition number κ: κ <= T/c_ij for S (pruneMargin,
// since d³·T/c_ij <= pruneCap) and κ <= tr/floor + 1 for Cov + floor·I
// (each bound's ldErr, which also covers the roundoff-sized negative
// eigenvalues a certified covariance may have). The computed q errs by
// a relative O(d²) roundoff, which the 1e-9 relative term covers for
// every d that pruneCap admits. Pairs past pruneCap, where the ridge
// ladder could engage, get no bound.
func (r *reducer) limit(bi, bj bound, ci, cj gauss.Component) float64 {
	if !bi.ok || !bj.ok {
		return math.Inf(1)
	}
	var gap float64
	for x, m := range ci.Mean {
		dx := m - cj.Mean[x]
		gap += dx * dx
	}
	w := ci.Weight + cj.Weight
	c := ci.Weight*cj.Weight*gap/(w*w*r.dF) + r.floor
	t := bi.tr + bj.tr + r.dF*c
	if !(t > 0 && c < math.Inf(1) && r.d3*t <= pruneCap*c) {
		return math.Inf(1) // also for non-finite means and weights
	}
	q := gap / t
	ld := math.Max(bi.ld, bj.ld)
	ub := -0.5 * (r.dF*log2Pi + ld + q)
	return ub + pruneMargin + 1e-9*(math.Abs(ld)+q) + bi.ldErr + bj.ldErr
}

// eStep assigns every input to its best candidate and reports whether
// any assignment changed.
func (r *reducer) eStep() (bool, error) {
	changed := false
	for i := range r.cs {
		j, err := r.best(i)
		if err != nil {
			return false, err
		}
		if j < 0 {
			return false, fmt.Errorf("em: input %d scores no finite affinity against any candidate", i)
		}
		if j != r.assign[i] {
			changed = true
		}
		r.assign[i] = j
	}
	return changed, nil
}

// best returns the candidate with the maximal affinity for input i,
// the lowest index among ties — the plain ascending scan's answer. It
// scores the previous winner first (in the first E-step: the candidate
// with the highest limit), then skips every candidate whose limit is
// below the best score so far.
func (r *reducer) best(i int) (int, error) {
	ci, bi := r.cs[i], r.ib[i]
	first := r.assign[i]
	for j := range r.targets {
		r.lim[j] = r.limit(bi, r.tb[j], ci, r.targets[j])
		if r.assign[i] < 0 && (first < 0 || r.lim[j] > r.lim[first]) {
			first = j
		}
	}
	bestJ, best := -1, math.Inf(-1)
	consider := func(j int) error {
		aff, err := affinity(ci, r.targets[j], r.floor, r.s)
		if err != nil {
			return err
		}
		//lint:allow floatcmp ties go to the lowest index, as in the plain ascending scan with a strict >
		if aff > best || (aff == best && j < bestJ) {
			bestJ, best = j, aff
		}
		return nil
	}
	if first >= 0 {
		if err := consider(first); err != nil {
			// Report the error the ascending scan meets first: a lower
			// candidate may fail too. Skipped pairs never fail.
			for j := 0; j < first; j++ {
				if lerr := consider(j); lerr != nil {
					return -1, fmt.Errorf("em: scoring input %d against candidate %d: %w", i, j, lerr)
				}
			}
			return -1, fmt.Errorf("em: scoring input %d against candidate %d: %w", i, first, err)
		}
	}
	for j := range r.targets {
		if j == first || r.lim[j] < best {
			continue
		}
		if err := consider(j); err != nil {
			return -1, fmt.Errorf("em: scoring input %d against candidate %d: %w", i, j, err)
		}
	}
	return bestJ, nil
}

// sortMembers counting-sorts the inputs by candidate into r.idx,
// ascending within each candidate, leaving r.count[j] at the end of
// candidate j's run.
func (r *reducer) sortMembers() {
	count := r.count[:len(r.targets)]
	for j := range count {
		count[j] = 0
	}
	for _, j := range r.assign {
		count[j]++
	}
	sum := 0
	for j, c := range count {
		count[j] = sum
		sum += c
	}
	for i, j := range r.assign {
		r.idx[count[j]] = i
		count[j]++
	}
}

// mStep moment-matches every candidate to its members in place,
// drops empty candidates and remaps the assignments.
func (r *reducer) mStep() error {
	r.sortMembers()
	lo, p := 0, 0
	for j := range r.targets {
		hi := r.count[j]
		if hi == lo {
			r.remap[j] = -1
			continue
		}
		r.sub = r.sub[:0]
		for _, x := range r.idx[lo:hi] {
			r.sub = append(r.sub, r.cs[x])
		}
		// Slot p <= j: the merge reads only inputs, never candidates.
		t := &r.targets[p]
		w, err := gauss.MergeInto(t.Mean, t.Cov, r.diff, r.sub)
		if err != nil {
			return fmt.Errorf("em: m-step merge: %w", err)
		}
		t.Weight = w
		r.tb[p] = r.certify(*t)
		r.remap[j] = p
		p++
		lo = hi
	}
	r.targets = r.targets[:p]
	for i, j := range r.assign {
		r.assign[i] = r.remap[j]
	}
	return nil
}

// groups returns the member lists of the non-empty candidates, in
// candidate order, over one fresh backing slice that shares no memory
// with the pooled reducer.
func (r *reducer) groups() [][]int {
	r.sortMembers()
	flat := make([]int, len(r.idx))
	copy(flat, r.idx)
	out := make([][]int, 0, len(r.targets))
	lo := 0
	for j := range r.targets {
		if hi := r.count[j]; hi > lo {
			out = append(out, flat[lo:hi:hi])
			lo = hi
		}
	}
	return out
}

// affinityScratch holds the buffers the reducer threads through every
// generic E-step affinity evaluation and every generic bound
// certification, making the whole scoring loop — the partition hot
// path of every gossip merge — allocation-free. It lives in the pooled
// reducer and is rebuilt only when the dimension changes.
type affinityScratch struct {
	delta vec.Vector    // mean gap; doubles as the density's (x - mu)
	cov0  *mat.Matrix   // pristine evaluation covariance
	covF  *mat.Matrix   // ridged work copy handed to the factorization
	chol  *mat.Cholesky // refactored in place per evaluation
	y     vec.Vector    // forward-substitution output for the quad form
}

func newAffinityScratch(d int) *affinityScratch {
	vs := make([]float64, 2*d)
	ms := mat.NewBatch(2, d)
	return &affinityScratch{
		delta: vs[:d:d],
		cov0:  &ms[0],
		covF:  &ms[1],
		chol:  mat.CholeskyWorkspace(d),
		y:     vs[d:],
	}
}

// affinity computes the merge-aware E-step score of input src against
// candidate dst (see ReduceMixture). It is symmetric up to the weight
// prior, finite for zero-covariance singletons, and reduces to the
// expected log-density when both covariances dominate the mean gap.
//
// The arithmetic replicates the reference formulation — evaluation
// covariance symmetrized as gauss.New does, then gauss.Condition's
// exact floor-escalation ladder (raw, then DefaultVarianceFloor
// ridging the ORIGINAL covariance, escalating a thousandfold per
// retry), then the conditioned log-density — operation for operation,
// so scores are bit-identical to the allocating path it replaced while
// reusing the scratch buffers across all evaluations. For d = 2 the
// raw factorization runs in closed form (affinity2); only a failed
// pivot reaches the generic path and its ladder.
func affinity(src, dst gauss.Component, floor float64, s *affinityScratch) (float64, error) {
	d := s.delta.Dim()
	if src.Dim() != d || dst.Dim() != d {
		return 0, fmt.Errorf("em: affinity dims %d, %d, want %d", src.Dim(), dst.Dim(), d)
	}
	if d == 2 {
		if aff, ok := affinity2(src, dst, floor); ok {
			return aff, nil
		}
	}
	vec.SubInto(s.delta, src.Mean, dst.Mean)
	gap, err := vec.Dot(s.delta, s.delta)
	if err != nil {
		return 0, err
	}
	f := src.Weight * dst.Weight / ((src.Weight + dst.Weight) * (src.Weight + dst.Weight))
	iso := f*gap/float64(d) + floor
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			s.cov0.Set(i, j, dst.Cov.At(i, j)+src.Cov.At(i, j))
		}
		s.cov0.Set(i, i, s.cov0.At(i, i)+iso)
	}
	// Force exact symmetry, as gauss.New does. On the symmetric-by-
	// construction sums above the averaging is a bit-identity.
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := (s.cov0.At(i, j) + s.cov0.At(j, i)) / 2
			s.cov0.Set(i, j, v)
			s.cov0.Set(j, i, v)
		}
	}
	// gauss.Condition's ladder: each retry ridges the pristine
	// covariance, never the previous attempt — incremental in-place adds
	// would drift from the reference float for float.
	if err := s.covF.CopyFrom(s.cov0); err != nil {
		return 0, err
	}
	err = s.chol.Factor(s.covF)
	for ridge := 0.0; err != nil; {
		switch {
		case ridge <= 0:
			ridge = gauss.DefaultVarianceFloor
		case ridge < 1:
			ridge *= 1e3
		default:
			return 0, fmt.Errorf("em: conditioning evaluation covariance: %w", err)
		}
		if cerr := s.covF.CopyFrom(s.cov0); cerr != nil {
			return 0, cerr
		}
		for i := 0; i < d; i++ {
			s.covF.Set(i, i, s.covF.At(i, i)+ridge)
		}
		err = s.chol.Factor(s.covF)
	}
	if err := s.chol.SolveHalfInto(s.y, s.delta); err != nil {
		return 0, err
	}
	q, err := vec.Dot(s.y, s.y)
	if err != nil {
		return 0, err
	}
	return -0.5 * (float64(d)*log2Pi + s.chol.LogDet() + q), nil
}

// affinity2 is affinity for d = 2 in closed form, with the matrices in
// locals instead of scratch. It performs the generic path's float
// operations in their order: vec.Dot's sums starting from zero, the
// symmetrized evaluation covariance, mat.Cholesky.Factor's pivots,
// SolveHalfInto's forward solve and LogDet. It reports false when a
// pivot fails; the generic path then runs the ridge ladder and owns
// every error. TestAffinity2MatchesGeneric pins it bit for bit.
func affinity2(src, dst gauss.Component, floor float64) (float64, bool) {
	d0 := src.Mean[0] - dst.Mean[0]
	d1 := src.Mean[1] - dst.Mean[1]
	var gap float64
	gap += d0 * d0
	gap += d1 * d1
	f := src.Weight * dst.Weight / ((src.Weight + dst.Weight) * (src.Weight + dst.Weight))
	iso := f*gap/2 + floor
	a00 := dst.Cov.At(0, 0) + src.Cov.At(0, 0) + iso
	a10 := ((dst.Cov.At(0, 1) + src.Cov.At(0, 1)) + (dst.Cov.At(1, 0) + src.Cov.At(1, 0))) / 2
	a11 := dst.Cov.At(1, 1) + src.Cov.At(1, 1) + iso
	if a00 <= 0 || math.IsNaN(a00) {
		return 0, false
	}
	l00 := math.Sqrt(a00)
	l10 := a10 / l00
	p := a11
	p -= l10 * l10
	if p <= 0 || math.IsNaN(p) {
		return 0, false
	}
	l11 := math.Sqrt(p)
	y0 := d0 / l00
	y1 := d1
	y1 -= l10 * y0
	y1 /= l11
	var q float64
	q += y0 * y0
	q += y1 * y1
	var ld float64
	ld += math.Log(l00)
	ld += math.Log(l11)
	return -0.5 * (2*log2Pi + 2*ld + q), true
}

// farthestFirst picks up to k seed indices into r.seeds: the heaviest
// input first, then repeatedly the input whose mean is farthest from
// all chosen seeds.
func (r *reducer) farthestFirst(k int) []int {
	cs, minDist := r.cs, r.minDist
	first := 0
	for i, c := range cs {
		if c.Weight > cs[first].Weight {
			first = i
		}
	}
	seeds := append(r.seeds[:0], first)
	for i := range cs {
		minDist[i] = vec.DistSq(cs[i].Mean, cs[first].Mean)
	}
	for len(seeds) < k {
		far := -1
		for i := range cs {
			//lint:allow floatcmp DistSq is exactly zero iff the mean coincides with a seed
			if minDist[i] == 0 {
				continue
			}
			if far < 0 || minDist[i] > minDist[far] {
				far = i
			}
		}
		if far < 0 {
			// All remaining means coincide with a seed; duplicate seeds
			// add nothing.
			break
		}
		seeds = append(seeds, far)
		for i := range cs {
			if d := vec.DistSq(cs[i].Mean, cs[far].Mean); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	r.seeds = seeds
	return seeds
}

// GMMResult reports a soft-EM fit.
type GMMResult struct {
	// Mixture is the fitted k-component Gaussian Mixture with weights
	// summing to the number of points.
	Mixture gauss.Mixture
	// LogLikelihood is the final total data log-likelihood.
	LogLikelihood float64
	// Iters is the number of EM iterations performed.
	Iters int
}

// FitGMM fits a k-component Gaussian Mixture to the points with soft
// EM, seeded by k-means++. It is the centralized baseline: the quality
// target the distributed GM algorithm is compared against.
func FitGMM(points []vec.Vector, k int, r *rng.RNG, opts Options) (*GMMResult, error) {
	opts = opts.withDefaults()
	if len(points) == 0 {
		return nil, ErrNoData
	}
	if k < 1 || k > len(points) {
		return nil, fmt.Errorf("em: k = %d outside [1, %d]", k, len(points))
	}
	centers, err := kmeansPP(points, k, r)
	if err != nil {
		return nil, err
	}
	n := len(points)
	mix := make(gauss.Mixture, k)
	for j, c := range centers {
		mix[j] = gauss.Component{Gaussian: gauss.NewPoint(c), Weight: float64(n) / float64(k)}
	}
	resp := make([][]float64, n)
	for i := range resp {
		resp[i] = make([]float64, k)
	}
	prevLL := math.Inf(-1)
	iters := 0
	for iter := 0; iter < opts.MaxIters; iter++ {
		iters = iter + 1
		// E-step.
		conds := make([]*gauss.Conditioned, len(mix))
		for j, c := range mix {
			cond, err := c.Condition(opts.VarFloor)
			if err != nil {
				return nil, fmt.Errorf("em: conditioning component %d: %w", j, err)
			}
			conds[j] = cond
		}
		total := mix.TotalWeight()
		var ll float64
		logs := make([]float64, len(mix))
		for i, p := range points {
			for j := range mix {
				lp, err := conds[j].LogDensity(p)
				if err != nil {
					return nil, err
				}
				logs[j] = math.Log(mix[j].Weight/total) + lp
			}
			lse := gauss.LogSumExp(logs)
			ll += lse
			for j := range mix {
				resp[i][j] = math.Exp(logs[j] - lse)
			}
		}
		// M-step.
		next := make(gauss.Mixture, 0, len(mix))
		for j := range mix {
			var w float64
			for i := range points {
				w += resp[i][j]
			}
			if w < 1e-12 {
				continue // component died
			}
			ws := make([]float64, n)
			for i := range points {
				ws[i] = resp[i][j]
			}
			mu, cov, err := stats.WeightedMeanCov(points, ws)
			if err != nil {
				return nil, err
			}
			next = append(next, gauss.Component{
				Gaussian: gauss.Gaussian{Mean: mu, Cov: cov},
				Weight:   w,
			})
		}
		mix = next
		if ll-prevLL < opts.Tol*float64(n) && iter > 0 {
			prevLL = ll
			break
		}
		prevLL = ll
	}
	return &GMMResult{Mixture: mix, LogLikelihood: prevLL, Iters: iters}, nil
}

// KMeansResult reports a Lloyd's-algorithm run.
type KMeansResult struct {
	// Centers are the final cluster centroids.
	Centers []vec.Vector
	// Assign maps each point to its cluster index.
	Assign []int
	// Inertia is the total squared distance of points to their centers.
	Inertia float64
	// Iters is the number of Lloyd iterations performed.
	Iters int
}

// KMeans clusters the points into k groups with Lloyd's algorithm,
// seeded by k-means++.
func KMeans(points []vec.Vector, k int, r *rng.RNG, opts Options) (*KMeansResult, error) {
	opts = opts.withDefaults()
	if len(points) == 0 {
		return nil, ErrNoData
	}
	if k < 1 || k > len(points) {
		return nil, fmt.Errorf("em: k = %d outside [1, %d]", k, len(points))
	}
	centers, err := kmeansPP(points, k, r)
	if err != nil {
		return nil, err
	}
	assign := make([]int, len(points))
	for i := range assign {
		assign[i] = -1
	}
	iters := 0
	for iter := 0; iter < opts.MaxIters; iter++ {
		iters = iter + 1
		changed := false
		for i, p := range points {
			best, bestD := -1, math.Inf(1)
			for j, c := range centers {
				if d := vec.DistSq(p, c); d < bestD {
					best, bestD = j, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		sums := make([]vec.Vector, len(centers))
		counts := make([]int, len(centers))
		for j := range sums {
			sums[j] = vec.New(points[0].Dim())
		}
		for i, p := range points {
			vec.AddInPlace(sums[assign[i]], p)
			counts[assign[i]]++
		}
		for j := range centers {
			if counts[j] > 0 {
				centers[j] = vec.Scale(1/float64(counts[j]), sums[j])
			}
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += vec.DistSq(p, centers[assign[i]])
	}
	return &KMeansResult{Centers: centers, Assign: assign, Inertia: inertia, Iters: iters}, nil
}

// kmeansPP seeds k centers with the k-means++ distribution.
func kmeansPP(points []vec.Vector, k int, r *rng.RNG) ([]vec.Vector, error) {
	centers := make([]vec.Vector, 0, k)
	centers = append(centers, points[r.IntN(len(points))].Clone())
	dist := make([]float64, len(points))
	for len(centers) < k {
		var total float64
		for i, p := range points {
			d := math.Inf(1)
			for _, c := range centers {
				if dd := vec.DistSq(p, c); dd < d {
					d = dd
				}
			}
			dist[i] = d
			total += d
		}
		var idx int
		if total <= 0 {
			// All points coincide with centers; any choice is equivalent.
			idx = r.IntN(len(points))
		} else {
			var err error
			idx, err = r.Categorical(dist)
			if err != nil {
				return nil, fmt.Errorf("em: k-means++ seeding: %w", err)
			}
		}
		centers = append(centers, points[idx].Clone())
	}
	return centers, nil
}
