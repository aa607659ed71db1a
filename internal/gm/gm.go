// Package gm implements the paper's Gaussian Mixture instantiation of
// the generic algorithm (§5): collections are summarized by the tuple
// (mu, sigma) of their weighted mean and covariance, so a classification
// is a weighted set of Gaussians — a Gaussian Mixture. Partition
// decisions use Expectation Maximization (§5.2): computing the
// Maximum-Likelihood k-GM reduction of an l-GM is NP-hard, so the
// method approximates it with hard EM (em.ReduceMixture).
//
// As in the paper, the summary distance d_S is the Euclidean distance
// between means, the same as the centroids instantiation.
package gm

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"distclass/internal/core"
	"distclass/internal/em"
	"distclass/internal/gauss"
	"distclass/internal/stats"
	"distclass/internal/vec"
)

// Summary is the GM summary: a Gaussian (mean + covariance). Weight
// lives on the enclosing core.Collection.
type Summary struct {
	G gauss.Gaussian
}

var _ core.Summary = Summary{}

// Dim returns the dimension of the summarized values.
func (s Summary) Dim() int { return s.G.Dim() }

// String renders the summary.
func (s Summary) String() string { return s.G.String() }

// Reducer selects the mixture-reduction engine behind Partition.
type Reducer int

// Supported reducers.
const (
	// ReducerEM is the paper's choice (§5.2): hard-assignment EM.
	ReducerEM Reducer = iota
	// ReducerGreedy is classic greedy pairwise merging with Runnalls'
	// KL-bound cost (Salmond-style, the paper's [18]) — deterministic
	// and monotone; useful as a cross-check and ablation.
	ReducerGreedy
)

func (r Reducer) String() string {
	switch r {
	case ReducerEM:
		return "em"
	case ReducerGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("reducer(%d)", int(r))
	}
}

// Method is the Gaussian Mixture instantiation. The zero value uses the
// default EM reduction and options.
type Method struct {
	// Opts tune the mixture reduction used by Partition.
	Opts em.Options
	// Reducer selects the reduction engine (default ReducerEM).
	Reducer Reducer
}

var (
	_ core.Method        = Method{}
	_ core.AuxSummarizer = Method{}
)

// Name returns "gm".
func (Method) Name() string { return "gm" }

// Summarize implements valToSummary (§5.1): mean = val, zero covariance.
func (Method) Summarize(val core.Value) (core.Summary, error) {
	if len(val) == 0 {
		return nil, errors.New("gm: empty value")
	}
	return Summary{G: gauss.NewPoint(val)}, nil
}

// Merge implements mergeSet: the moment-preserving merge of the weighted
// Gaussians (requirement R4 holds by the law of total covariance).
func (Method) Merge(cs []core.Collection) (core.Summary, error) {
	buf := compPool.Get().(*compBuf)
	defer buf.release()
	comps, err := buf.fill(cs)
	if err != nil {
		return nil, err
	}
	merged, err := gauss.Merge(comps)
	if err != nil {
		return nil, fmt.Errorf("gm: %w", err)
	}
	return Summary{G: merged.Gaussian}, nil
}

// Distance is the Euclidean distance between means (the paper defines
// d_S as in the centroids algorithm).
func (Method) Distance(a, b core.Summary) (float64, error) {
	sa, ok := a.(Summary)
	if !ok {
		return 0, fmt.Errorf("gm: unexpected summary type %T", a)
	}
	sb, ok := b.(Summary)
	if !ok {
		return 0, fmt.Errorf("gm: unexpected summary type %T", b)
	}
	return vec.Dist(sa.G.Mean, sb.G.Mean)
}

// Partition groups the collections with EM mixture reduction, then
// enforces the generic algorithm's quantum rule: no group may be a
// singleton of weight <= q while another group exists to merge it into.
func (m Method) Partition(cs []core.Collection, k int, q float64) ([][]int, error) {
	if len(cs) == 0 {
		return nil, errors.New("gm: partition of no collections")
	}
	if k < 1 {
		return nil, fmt.Errorf("gm: k = %d must be at least 1", k)
	}
	buf := compPool.Get().(*compBuf)
	defer buf.release()
	comps, err := buf.fill(cs)
	if err != nil {
		return nil, err
	}
	var groups [][]int
	switch m.Reducer {
	case ReducerGreedy:
		groups, err = em.ReduceGreedy(comps, k, m.Opts)
	default:
		groups, err = em.ReduceMixture(comps, k, m.Opts)
	}
	if err != nil {
		return nil, fmt.Errorf("gm: %w", err)
	}
	return enforceQuantumRule(groups, comps, q), nil
}

// enforceQuantumRule merges every singleton group of weight <= q into
// the group with the nearest merged mean.
func enforceQuantumRule(groups [][]int, comps []gauss.Component, q float64) [][]int {
	const eps = 1e-12
	for {
		if len(groups) < 2 {
			return groups
		}
		victim := -1
		for gi, g := range groups {
			if len(g) == 1 && comps[g[0]].Weight <= q+eps {
				victim = gi
				break
			}
		}
		if victim < 0 {
			return groups
		}
		vMean := comps[groups[victim][0]].Mean
		best, bestD := -1, math.Inf(1)
		for gi, g := range groups {
			if gi == victim {
				continue
			}
			sub := make([]gauss.Component, len(g))
			for i, idx := range g {
				sub[i] = comps[idx]
			}
			merged, err := gauss.Merge(sub)
			if err != nil {
				continue
			}
			if d := vec.DistSq(vMean, merged.Mean); d < bestD {
				best, bestD = gi, d
			}
		}
		if best < 0 {
			return groups
		}
		groups[best] = append(groups[best], groups[victim]...)
		groups = append(groups[:victim], groups[victim+1:]...)
	}
}

// SummarizeAux computes f(aux) for Lemma 1 verification: the weighted
// mean and covariance of the inputs with the aux vector as weights.
func (Method) SummarizeAux(aux vec.Vector, inputs []core.Value) (core.Summary, error) {
	if aux.Dim() != len(inputs) {
		return nil, fmt.Errorf("gm: aux dim %d but %d inputs", aux.Dim(), len(inputs))
	}
	mu, cov, err := stats.WeightedMeanCov(inputs, aux)
	if err != nil {
		return nil, fmt.Errorf("gm: %w", err)
	}
	return Summary{G: gauss.Gaussian{Mean: mu, Cov: cov}}, nil
}

// FullDistance is a stricter summary distance used by tests: the
// Euclidean distance between means plus the entry-wise max difference
// of covariances. (The algorithm itself uses Distance, the paper's
// mean-only d_S.)
func FullDistance(a, b core.Summary) (float64, error) {
	sa, ok := a.(Summary)
	if !ok {
		return 0, fmt.Errorf("gm: unexpected summary type %T", a)
	}
	sb, ok := b.(Summary)
	if !ok {
		return 0, fmt.Errorf("gm: unexpected summary type %T", b)
	}
	dMean, err := vec.Dist(sa.G.Mean, sb.G.Mean)
	if err != nil {
		return 0, err
	}
	if sa.G.Cov.Dim() != sb.G.Cov.Dim() {
		return 0, fmt.Errorf("gm: covariance dims %d vs %d", sa.G.Cov.Dim(), sb.G.Cov.Dim())
	}
	var dCov float64
	for i := 0; i < sa.G.Cov.Dim(); i++ {
		for j := 0; j < sa.G.Cov.Dim(); j++ {
			if d := math.Abs(sa.G.Cov.At(i, j) - sb.G.Cov.At(i, j)); d > dCov {
				dCov = d
			}
		}
	}
	return dMean + dCov, nil
}

// ToMixture converts a classification produced under this method into a
// gauss.Mixture for density evaluation, sampling or reporting.
func ToMixture(cls core.Classification) (gauss.Mixture, error) {
	comps, err := toComponents(cls)
	if err != nil {
		return nil, err
	}
	return gauss.Mixture(comps), nil
}

func toComponents(cs []core.Collection) ([]gauss.Component, error) {
	return appendComponents(make([]gauss.Component, 0, len(cs)), cs)
}

// appendComponents appends the collections, as weighted Gaussians that
// share their summaries' storage, to dst.
func appendComponents(dst []gauss.Component, cs []core.Collection) ([]gauss.Component, error) {
	for _, c := range cs {
		s, ok := c.Summary.(Summary)
		if !ok {
			return dst, fmt.Errorf("gm: unexpected summary type %T", c.Summary)
		}
		dst = append(dst, gauss.Component{Gaussian: s.G, Weight: c.Weight})
	}
	return dst, nil
}

// compBuf is the component view Partition and Merge build over their
// collections.
type compBuf struct{ comps []gauss.Component }

// compPool holds component views between Partition and Merge calls, so
// a warm call allocates none (DESIGN.md, "Zero-alloc hot paths"). Every
// view goes back cleared, so the pool pins no summary.
//
//lint:allow globalstate a pool of cleared component views carries no run state; it only recycles capacity
var compPool = sync.Pool{New: func() any { return new(compBuf) }}

// fill views cs as components in b. The view is valid until release.
func (b *compBuf) fill(cs []core.Collection) ([]gauss.Component, error) {
	var err error
	b.comps, err = appendComponents(b.comps[:0], cs)
	return b.comps, err
}

// release clears b's view and puts b back in compPool.
func (b *compBuf) release() {
	clear(b.comps)
	b.comps = b.comps[:0]
	compPool.Put(b)
}

// Assign returns the index of the mixture component with the highest
// posterior responsibility for x (weights times density, computed in
// log space). It is the association rule of Figure 1 and the outlier
// attribution rule of Figure 3.
func Assign(mix gauss.Mixture, x vec.Vector, floor float64) (int, error) {
	if len(mix) == 0 {
		return 0, errors.New("gm: assign against empty mixture")
	}
	best, bestScore := -1, math.Inf(-1)
	total := mix.TotalWeight()
	for j, c := range mix {
		cond, err := c.Condition(floor)
		if err != nil {
			return 0, err
		}
		lp, err := cond.LogDensity(x)
		if err != nil {
			return 0, err
		}
		if score := math.Log(c.Weight/total) + lp; score > bestScore {
			best, bestScore = j, score
		}
	}
	return best, nil
}
