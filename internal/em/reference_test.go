package em

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"distclass/internal/gauss"
	"distclass/internal/mat"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

// The reference below is the original ReduceMixture — plain ascending
// E-step over every candidate, allocating M-step — with the original
// gauss.Merge, generic affinity kernel and farthest-first seeding it
// called, kept verbatim as the oracle: the pruned, pooled
// ReduceMixture with its closed-form 2-D kernel must return the same
// groups, or an error wherever the reference errors or panics. The
// oracle shares no code with the reducer under test.

func reduceMixtureRef(cs []gauss.Component, k int, opts Options) ([][]int, error) {
	opts = opts.withDefaults()
	if len(cs) == 0 {
		return nil, ErrNoData
	}
	if k < 1 {
		return nil, fmt.Errorf("em: k = %d must be at least 1", k)
	}
	if len(cs) <= k {
		groups := make([][]int, len(cs))
		for i := range cs {
			groups[i] = []int{i}
		}
		return groups, nil
	}
	seeds := farthestFirstRef(cs, k)
	// Initial candidates: the seed components themselves.
	targets := make([]gauss.Component, len(seeds))
	for i, s := range seeds {
		targets[i] = cs[s].Clone()
	}
	assign := make([]int, len(cs))
	for i := range assign {
		assign[i] = -1
	}
	scratch := newRefScratch(cs[0].Dim())
	for iter := 0; iter < opts.MaxIters; iter++ {
		changed := false
		next := make([]int, len(cs))
		for i, c := range cs {
			bestJ, bestScore := -1, math.Inf(-1)
			for j := range targets {
				aff, err := affinityRef(c, targets[j], opts.VarFloor, scratch)
				if err != nil {
					return nil, fmt.Errorf("em: scoring input %d against candidate %d: %w", i, j, err)
				}
				if aff > bestScore {
					bestJ, bestScore = j, aff
				}
			}
			next[i] = bestJ
			if bestJ != assign[i] {
				changed = true
			}
		}
		assign = next
		if !changed {
			break
		}
		// M-step: moment-match candidates to their members; drop empties.
		members := make([][]int, len(targets))
		for i, j := range assign {
			members[j] = append(members[j], i)
		}
		newTargets := targets[:0]
		remap := make([]int, len(targets))
		for j, m := range members {
			if len(m) == 0 {
				remap[j] = -1
				continue
			}
			sub := make([]gauss.Component, len(m))
			for x, idx := range m {
				sub[x] = cs[idx]
			}
			merged, err := mergeRef(sub)
			if err != nil {
				return nil, fmt.Errorf("em: m-step merge: %w", err)
			}
			remap[j] = len(newTargets)
			newTargets = append(newTargets, merged)
		}
		targets = newTargets
		for i := range assign {
			assign[i] = remap[assign[i]]
		}
	}
	groups := make([][]int, len(targets))
	for i, j := range assign {
		groups[j] = append(groups[j], i)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out, nil
}

func mergeRef(cs []gauss.Component) (gauss.Component, error) {
	if len(cs) == 0 {
		return gauss.Component{}, gauss.ErrEmpty
	}
	d := cs[0].Dim()
	var total float64
	mean := vec.New(d)
	for i, c := range cs {
		if c.Dim() != d {
			return gauss.Component{}, fmt.Errorf("gauss: component %d has dim %d, want %d", i, c.Dim(), d)
		}
		if c.Weight <= 0 {
			return gauss.Component{}, fmt.Errorf("gauss: component %d has non-positive weight %v", i, c.Weight)
		}
		total += c.Weight
		vec.Axpy(mean, c.Weight, c.Mean)
	}
	vec.ScaleInPlace(1/total, mean)
	cov := mat.New(d)
	for _, c := range cs {
		// Law of total covariance: within-component plus between-component.
		mat.AddInPlace(cov, c.Weight/total, c.Cov)
		diff, err := vec.Sub(c.Mean, mean)
		if err != nil {
			return gauss.Component{}, err
		}
		mat.AddOuterInPlace(cov, c.Weight/total, diff)
	}
	return gauss.Component{Gaussian: gauss.Gaussian{Mean: mean, Cov: cov.Symmetrize()}, Weight: total}, nil
}

// refScratch is the original affinityScratch.
type refScratch struct {
	delta vec.Vector    // mean gap; doubles as the density's (x - mu)
	cov0  *mat.Matrix   // pristine evaluation covariance
	covF  *mat.Matrix   // ridged work copy handed to the factorization
	chol  *mat.Cholesky // refactored in place per evaluation
	y     vec.Vector    // forward-substitution output for the quad form
}

func newRefScratch(d int) *refScratch {
	vs := make([]float64, 2*d)
	ms := mat.NewBatch(2, d)
	return &refScratch{
		delta: vs[:d:d],
		cov0:  &ms[0],
		covF:  &ms[1],
		chol:  mat.CholeskyWorkspace(d),
		y:     vs[d:],
	}
}

// affinityRef is the original generic affinity, for every dimension.
func affinityRef(src, dst gauss.Component, floor float64, s *refScratch) (float64, error) {
	d := s.delta.Dim()
	if src.Dim() != d || dst.Dim() != d {
		return 0, fmt.Errorf("em: affinity dims %d, %d, want %d", src.Dim(), dst.Dim(), d)
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
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			v := (s.cov0.At(i, j) + s.cov0.At(j, i)) / 2
			s.cov0.Set(i, j, v)
			s.cov0.Set(j, i, v)
		}
	}
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

// certifyRef is the original generic bound certification, with the
// reducer's precomputed d³ and logdet(floor·I) computed in place.
func certifyRef(c gauss.Component, floor float64, s *refScratch) bound {
	d := s.delta.Dim()
	d3, ldZero := float64(d)*float64(d)*float64(d), float64(d)*math.Log(floor)
	cov := c.Cov
	if !(c.Weight > 0) || math.IsInf(c.Weight, 1) || !cov.IsFinite() || !cov.IsSymmetric(0) {
		return bound{}
	}
	b := bound{ld: ldZero, ok: true}
	if !cov.IsZero() {
		if s.chol.Factor(cov) != nil {
			return bound{}
		}
		if err := s.covF.CopyFrom(cov); err != nil {
			return bound{}
		}
		for x := 0; x < d; x++ {
			s.covF.Set(x, x, s.covF.At(x, x)+floor)
		}
		if s.chol.Factor(s.covF) != nil {
			return bound{}
		}
		b.tr, b.ld = cov.Trace(), s.chol.LogDet()
	}
	b.ldErr = ldErrPerKappa * d3 * (b.tr/floor + 1)
	if math.IsInf(b.tr, 0) || math.IsNaN(b.ld) || math.IsInf(b.ld, 0) || math.IsNaN(b.ldErr) {
		return bound{}
	}
	return b
}

// farthestFirstRef is the original farthest-first seeding.
func farthestFirstRef(cs []gauss.Component, k int) []int {
	first := 0
	for i, c := range cs {
		if c.Weight > cs[first].Weight {
			first = i
		}
	}
	seeds := make([]int, 1, k)
	seeds[0] = first
	minDist := make([]float64, len(cs))
	for i := range cs {
		minDist[i] = vec.DistSq(cs[i].Mean, cs[first].Mean)
	}
	for len(seeds) < k {
		far := -1
		for i := range cs {
			if minDist[i] == 0 {
				continue
			}
			if far < 0 || minDist[i] > minDist[far] {
				far = i
			}
		}
		if far < 0 {
			break
		}
		seeds = append(seeds, far)
		for i := range cs {
			if d := vec.DistSq(cs[i].Mean, cs[far].Mean); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return seeds
}

// errRefPanic marks a reference run that panicked rather than returned.
var errRefPanic = errors.New("reference panicked")

// runRef calls the reference, turning a panic into an error.
func runRef(cs []gauss.Component, k int, opts Options) (groups [][]int, err error) {
	defer func() {
		if p := recover(); p != nil {
			groups, err = nil, fmt.Errorf("%w: %v", errRefPanic, p)
		}
	}()
	return reduceMixtureRef(cs, k, opts)
}

// matchRef fails unless ReduceMixture returns the reference's groups,
// the reference's error message, or any error where the reference
// panics.
func matchRef(t *testing.T, cs []gauss.Component, k int, opts Options) {
	t.Helper()
	want, werr := runRef(cs, k, opts)
	got, err := ReduceMixture(cs, k, opts)
	switch {
	case werr != nil && err == nil:
		t.Fatalf("k=%d %v\nreference: %v\nReduceMixture returned %v", k, cs, werr, got)
	case werr != nil:
		if !errors.Is(werr, errRefPanic) && werr.Error() != err.Error() {
			t.Fatalf("k=%d %v\nreference error: %v\nReduceMixture error: %v", k, cs, werr, err)
		}
	case err != nil:
		t.Fatalf("k=%d %v\nReduceMixture: %v\nreference returned %v", k, cs, err, want)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("k=%d %v\nReduceMixture = %v\nreference   = %v", k, cs, got, want)
	}
}

// decodeProblem reads a reduction problem of at most maxN inputs from
// bytes. The header picks the dimension (1-4), k (1-8) and sometimes a
// small iteration cap. Each input then picks, from its own bytes: a
// coordinate scale (mostly 1, else 1e-9 to 1e9), a mean on a coarse
// grid (or the previous input's mean, so coincident means are common),
// a zero, rank-1, positive definite or arbitrary symmetric (often
// indefinite) covariance, a weight that is a multiple of a power of two
// (zero included) and, rarely, a foreign dimension — or it duplicates
// the previous input.
func decodeProblem(data []byte, maxN int) ([]gauss.Component, int, Options) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	d := 1 + int(next()%4)
	k := 1 + int(next()%8)
	var opts Options
	if b := next(); b%4 == 0 {
		opts.MaxIters = 1 + int(b/4%4)
	}
	var cs []gauss.Component
	for len(data) > 0 && len(cs) < maxN {
		kind := next()
		if prev := len(cs) - 1; kind%32 == 30 && prev >= 0 {
			// An exact duplicate: candidates can tie bit for bit.
			cs = append(cs, cs[prev])
			continue
		}
		dim := d
		if kind%32 == 31 {
			dim = d%4 + 1
		}
		// Mostly unit scale on a coarse grid, so exact score ties
		// between symmetric candidates occur; otherwise 1e-9 to 1e9.
		scale := 1.0
		if b := next(); b >= 160 {
			scale = math.Pow(10, float64(int(b%19)-9))
		}
		coord := func() float64 { return float64(int8(next())>>4) * scale }
		mean := vec.New(dim)
		if prev := len(cs) - 1; kind&0x20 != 0 && prev >= 0 && cs[prev].Dim() == dim {
			copy(mean, cs[prev].Mean)
		} else {
			for x := range mean {
				mean[x] = coord()
			}
		}
		cov := mat.New(dim)
		switch kind >> 6 {
		case 1: // rank 1: v vᵀ
			v := vec.New(dim)
			for x := range v {
				v[x] = coord()
			}
			mat.AddOuterInPlace(cov, 1, v)
		case 2: // positive (semi-)definite: sum of dim outer products
			v := vec.New(dim)
			for range dim {
				for x := range v {
					v[x] = coord()
				}
				mat.AddOuterInPlace(cov, 1, v)
			}
		case 3: // arbitrary symmetric
			for x := 0; x < dim; x++ {
				for y := x; y < dim; y++ {
					c := coord() * scale
					cov.Set(x, y, c)
					cov.Set(y, x, c)
				}
			}
		}
		w := float64(1+next()%8) / 8
		if b := next(); b >= 192 {
			w = float64(b%64) * math.Ldexp(1, int(next()%24)-20)
		}
		cs = append(cs, gauss.Component{Gaussian: gauss.Gaussian{Mean: mean, Cov: cov}, Weight: w})
	}
	return cs, k, opts
}

// mergedProblem draws a problem shaped like a gossip node's partition
// input: 2-d points around a few centres, grouped into inputs that are
// moment-matched merges of one to a dozen points with weights that are
// multiples of a quantum.
func mergedProblem(r *rng.RNG, n int) []gauss.Component {
	centres := 2 + r.IntN(5)
	cs := make([]gauss.Component, n)
	for i := range cs {
		c := float64(r.IntN(centres))
		pts := make([]gauss.Component, 1+r.IntN(12))
		for p := range pts {
			pts[p] = pointComp(float64(1+r.IntN(64))/1024, 10*c+r.Normal(0, 1+c), r.Normal(0, 2))
		}
		m, err := gauss.Merge(pts)
		if err != nil {
			panic(err)
		}
		cs[i] = m
	}
	return cs
}

// gridProblem draws n point inputs in one or two dimensions on a small
// integer grid with weights 1 or 2: symmetric layouts make exact score
// ties between different candidates common, so the lowest-index
// tie-break is exercised.
func gridProblem(r *rng.RNG, n int) []gauss.Component {
	d := 1 + r.IntN(2)
	cs := make([]gauss.Component, n)
	xs := make([]float64, d)
	for i := range cs {
		for x := range xs {
			xs[x] = float64(r.IntN(7) - 3)
		}
		cs[i] = pointComp(float64(1+r.IntN(2)), xs...)
	}
	return cs
}

// TestReduceMixtureMatchesReference compares ReduceMixture with the
// reference on random problems: byte-decoded ones covering degenerate
// covariances, coincident means, extreme scale spreads and quantized
// weights, gossip-shaped ones of merged point clusters, and grid ones
// full of exact ties.
func TestReduceMixtureMatchesReference(t *testing.T) {
	r := rng.New(16)
	data := make([]byte, 3+24*40)
	for trial := 0; trial < 20000; trial++ {
		for i := range data {
			data[i] = byte(r.IntN(256))
		}
		cs, k, opts := decodeProblem(data, 1+r.IntN(24))
		matchRef(t, cs, k, opts)
	}
	for trial := 0; trial < 2000; trial++ {
		matchRef(t, mergedProblem(r, 1+r.IntN(24)), 1+r.IntN(8), Options{})
	}
	for trial := 0; trial < 20000; trial++ {
		matchRef(t, gridProblem(r, 3+r.IntN(6)), 2+r.IntN(3), Options{})
	}
}

// FuzzReduceMixture checks ReduceMixture against the reference on
// byte-decoded problems (see decodeProblem). Run with `go test -fuzz
// FuzzReduceMixture ./internal/em`; without -fuzz the seeds run as a
// regular test.
func FuzzReduceMixture(f *testing.F) {
	r := rng.New(7)
	for range 8 {
		data := make([]byte, 3+r.IntN(24*12))
		for i := range data {
			data[i] = byte(r.IntN(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, k, opts := decodeProblem(data, 24)
		if len(cs) == 0 {
			return
		}
		matchRef(t, cs, k, opts)
	})
}

// kernelComponent draws a 2-D component for the closed-form kernel's
// property test: a mean on a coarse grid at a scale from 1e-9 to 1e9
// (so gaps tie exactly), and a zero (singleton), rank-1 (a merged
// pair, where the ridge ladder engages against a like candidate),
// positive definite, indefinite, asymmetric or non-finite covariance,
// with a weight that may be zero, tiny, huge or infinite.
func kernelComponent(r *rng.RNG) gauss.Component {
	scale := math.Pow(10, float64(r.IntN(19)-9))
	coord := func() float64 { return float64(r.IntN(9)-4) * scale }
	c := gauss.Component{Gaussian: gauss.NewPoint(vec.Of(coord(), coord()))}
	switch r.IntN(7) {
	case 1, 2: // a merged pair of points: rank 1
		m, err := gauss.Merge([]gauss.Component{pointComp(1, coord(), coord()), pointComp(float64(1+r.IntN(3)), coord(), coord())})
		if err != nil {
			panic(err)
		}
		c.Gaussian = m.Gaussian
	case 3: // positive (semi-)definite
		for range 2 {
			mat.AddOuterInPlace(c.Cov, 1, vec.Of(coord(), coord()))
		}
	case 4: // symmetric, often indefinite
		off := coord() * scale
		c.Cov.Set(0, 0, coord()*scale)
		c.Cov.Set(0, 1, off)
		c.Cov.Set(1, 0, off)
		c.Cov.Set(1, 1, coord()*scale)
	case 5: // asymmetric
		for x := 0; x < 2; x++ {
			for y := 0; y < 2; y++ {
				c.Cov.Set(x, y, coord())
			}
		}
	case 6: // non-finite entry
		c.Cov.Set(r.IntN(2), r.IntN(2), []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.IntN(3)])
	}
	c.Weight = float64(1+r.IntN(8)) / 8
	switch r.IntN(16) {
	case 0:
		c.Weight = 0
	case 1:
		c.Weight = math.Ldexp(1, r.IntN(120)-60)
	case 2:
		c.Weight = math.Inf(1)
	}
	return c
}

// TestAffinity2MatchesGeneric pins the closed-form 2-D kernel to the
// oracle's generic path bit for bit: every score (or the same error)
// of affinity, and every bound of certify, over random pairs of
// kernelComponents, exact ties (a component against itself) and three
// variance floors. It also requires that both the closed form and the
// fall-through to the ridge ladder were exercised.
func TestAffinity2MatchesGeneric(t *testing.T) {
	r := rng.New(23)
	ref := newRefScratch(2)
	var closed, ladder int
	for _, floor := range []float64{gauss.DefaultVarianceFloor, 1e-9, 1} {
		red := &reducer{}
		for trial := 0; trial < 40000; trial++ {
			src, dst := kernelComponent(r), kernelComponent(r)
			if r.IntN(8) == 0 {
				dst = src
			}
			if err := red.reset([]gauss.Component{src, dst}, 1, floor); err != nil {
				t.Fatal(err)
			}
			for _, c := range []gauss.Component{src, dst} {
				got, want := red.certify(c), certifyRef(c, floor, ref)
				if got.ok != want.ok || !sameBits(got.tr, want.tr) || !sameBits(got.ld, want.ld) || !sameBits(got.ldErr, want.ldErr) {
					t.Fatalf("floor %g, certify(%v) = %+v, generic %+v", floor, c, got, want)
				}
			}
			got, err := affinity(src, dst, floor, red.s)
			want, werr := affinityRef(src, dst, floor, ref)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("floor %g, affinity(%v, %v): error %v, generic error %v", floor, src, dst, err, werr)
			case err != nil && err.Error() != werr.Error():
				t.Fatalf("floor %g, affinity(%v, %v): error %v, generic error %v", floor, src, dst, err, werr)
			case err == nil && !sameBits(got, want):
				t.Fatalf("floor %g, affinity(%v, %v) = %v (%#x), generic %v (%#x)",
					floor, src, dst, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if _, ok := affinity2(src, dst, floor); ok {
				closed++
			} else if werr == nil {
				ladder++
			}
		}
	}
	if closed < 10000 || ladder < 100 {
		t.Errorf("closed form scored %d pairs, the ridge ladder %d; want both exercised", closed, ladder)
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
