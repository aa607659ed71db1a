// Package centroids implements the paper's in-line example
// instantiation of the generic algorithm (Algorithm 2): collections are
// summarized by their centroid — the weighted average of their values —
// and partition decisions greedily merge the closest centroids until the
// k bound is met, exactly as k-means-style classification would.
//
// The summary domain S equals the value domain R^d; d_S is the Euclidean
// distance between centroids, which satisfies requirement R1 (summaries
// of nearby mixture vectors are near).
package centroids

import (
	"errors"
	"fmt"
	"math"

	"distclass/internal/core"
	"distclass/internal/vec"
)

// Centroid is the summary type: the weighted mean of a collection.
type Centroid struct {
	Point vec.Vector
}

var _ core.Summary = Centroid{}

// Dim returns the dimension of the centroid.
func (c Centroid) Dim() int { return c.Point.Dim() }

// String renders the centroid.
func (c Centroid) String() string { return c.Point.String() }

// Method is the centroids instantiation. The zero value is ready to use.
type Method struct{}

var (
	_ core.Method        = Method{}
	_ core.AuxSummarizer = Method{}
)

// Name returns "centroids".
func (Method) Name() string { return "centroids" }

// Summarize implements valToSummary: the centroid of a single value is
// the value itself.
func (Method) Summarize(val core.Value) (core.Summary, error) {
	if len(val) == 0 {
		return nil, errors.New("centroids: empty value")
	}
	return Centroid{Point: val.Clone()}, nil
}

// Merge implements mergeSet: the weight-averaged centroid. It sums the
// weighted points straight into the result, in the same order and with
// the same operations as vec.WeightedMean, so the mean is bit-identical
// without the points/weights temporaries.
func (Method) Merge(cs []core.Collection) (core.Summary, error) {
	if len(cs) == 0 {
		return nil, errors.New("centroids: merge of no collections")
	}
	var mean vec.Vector
	var total float64
	for _, c := range cs {
		cen, err := asCentroid(c.Summary)
		if err != nil {
			return nil, err
		}
		if mean == nil {
			mean = vec.New(cen.Dim())
		}
		if cen.Dim() != mean.Dim() {
			return nil, fmt.Errorf("centroids: %w: %d vs %d", vec.ErrDimMismatch, mean.Dim(), cen.Dim())
		}
		vec.Axpy(mean, c.Weight, cen.Point)
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("centroids: total weight %v is not positive", total)
	}
	vec.ScaleInPlace(1/total, mean)
	return Centroid{Point: mean}, nil
}

// Distance is the Euclidean distance between centroids (d_S).
func (Method) Distance(a, b core.Summary) (float64, error) {
	ca, err := asCentroid(a)
	if err != nil {
		return 0, err
	}
	cb, err := asCentroid(b)
	if err != nil {
		return 0, err
	}
	return vec.Dist(ca.Point, cb.Point)
}

func asCentroid(s core.Summary) (Centroid, error) {
	c, ok := s.(Centroid)
	if !ok {
		return Centroid{}, fmt.Errorf("centroids: unexpected summary type %T", s)
	}
	return c, nil
}

// Partition scratch bounds: an input of up to stackGroups collections
// whose centroids fit in stackCoords coordinates (16 two-dimensional
// collections) runs entirely on stack arrays; larger inputs fall back
// to heap scratch. The bound keeps Partition's frame under 1 KiB:
// on the concurrent backends thousands of goroutines absorb, and a
// larger frame grows every one of their stacks.
const (
	stackGroups = 16
	stackCoords = 32
)

// group is a partition candidate: its member indices as a linked list
// (head through next to tail) and its total weight. The group's running
// centroid lives in the flat centroid buffer at the head member's row;
// a merge keeps the first group's head, so the row never moves.
type group struct {
	head, tail int32
	weight     float64
}

// partitioner is Partition's state: the candidate groups in order, the
// member links, and the flat d-column centroid buffer with one row per
// input collection.
type partitioner struct {
	d      int
	groups []group
	next   []int32 // next member of the same group, -1 at the tail
	cen    []float64
}

// Partition implements the paper's greedy partition (Algorithm 2): every
// collection starts as its own set; sets of weight q are first merged
// with their nearest set; then, while more than k sets remain, the two
// sets with the closest centroids are merged. It allocates only the
// returned groups: one backing array for every member index plus the
// slice of groups over it.
func (Method) Partition(cs []core.Collection, k int, q float64) ([][]int, error) {
	if len(cs) == 0 {
		return nil, errors.New("centroids: partition of no collections")
	}
	if k < 1 {
		return nil, fmt.Errorf("centroids: k = %d must be at least 1", k)
	}
	first, err := asCentroid(cs[0].Summary)
	if err != nil {
		return nil, err
	}
	n, d := len(cs), first.Dim()
	var (
		groupBuf [stackGroups]group
		nextBuf  [stackGroups]int32
		cenBuf   [stackCoords]float64
	)
	// The slices are sized up front and only ever shortened in place:
	// growing one through the pointer receivers below would move the
	// stack arrays to the heap.
	p := partitioner{d: d}
	if n <= stackGroups {
		p.groups, p.next = groupBuf[:n], nextBuf[:n]
	} else {
		p.groups, p.next = make([]group, n), make([]int32, n)
	}
	if n*d <= stackCoords {
		p.cen = cenBuf[:n*d]
	} else {
		p.cen = make([]float64, n*d)
	}
	if err := p.load(cs); err != nil {
		return nil, err
	}
	if err := p.reduce(k, q); err != nil {
		return nil, err
	}
	return p.members(), nil
}

// load makes every collection its own group.
func (p *partitioner) load(cs []core.Collection) error {
	for i, c := range cs {
		cen, err := asCentroid(c.Summary)
		if err != nil {
			return err
		}
		if cen.Dim() != p.d {
			return fmt.Errorf("centroids: %w: %d vs %d", vec.ErrDimMismatch, p.d, cen.Dim())
		}
		p.groups[i] = group{head: int32(i), tail: int32(i), weight: c.Weight}
		p.next[i] = -1
		copy(p.cen[i*p.d:], cen.Point)
	}
	return nil
}

// reduce runs the two merge phases of Algorithm 2.
func (p *partitioner) reduce(k int, q float64) error {
	// Quantum rule: a set holding a single collection of weight <= q must
	// be merged with another (line 7), while at least two sets remain.
	const eps = 1e-12
	for len(p.groups) >= 2 {
		idx := -1
		for i, g := range p.groups {
			if g.head == g.tail && g.weight <= q+eps {
				idx = i
				break
			}
		}
		if idx < 0 {
			break
		}
		cen := p.centroid(p.groups[idx])
		best, bestDist := -1, math.Inf(1)
		for j, g := range p.groups {
			if j == idx {
				continue
			}
			if d := vec.DistSq(cen, p.centroid(g)); d < bestDist {
				best, bestDist = j, d
			}
		}
		if best < 0 {
			return errNoFiniteDistance
		}
		p.merge(idx, best)
	}
	// Greedy closest-pair merging down to k sets (lines 8-10).
	for len(p.groups) > k {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := range p.groups {
			ci := p.centroid(p.groups[i])
			for j := i + 1; j < len(p.groups); j++ {
				if d := vec.DistSq(ci, p.centroid(p.groups[j])); d < best {
					bi, bj, best = i, j, d
				}
			}
		}
		if bi < 0 {
			return errNoFiniteDistance
		}
		p.merge(bi, bj)
	}
	return nil
}

// errNoFiniteDistance reports centroids so far out (or NaN) that no two
// groups are a finite squared distance apart, leaving no pair to merge.
var errNoFiniteDistance = errors.New("centroids: no two groups are a finite distance apart")

func (p *partitioner) centroid(g group) vec.Vector {
	row := int(g.head) * p.d
	return p.cen[row : row+p.d]
}

// merge folds group b into group a: a's members then b's, with the
// weighted centroid written over a's row by exactly the scale-then-axpy
// arithmetic of vec.Scale and vec.Axpy. The merged group takes the
// lower of the two positions and the other is removed, keeping the
// order of the rest.
func (p *partitioner) merge(a, b int) {
	ga, gb := p.groups[a], p.groups[b]
	w := ga.weight + gb.weight
	sa, sb := ga.weight/w, gb.weight/w
	ca, cb := p.centroid(ga), p.centroid(gb)
	for i := range ca {
		ca[i] = float64(sa*ca[i]) + sb*cb[i]
	}
	p.next[ga.tail] = gb.head
	lo, hi := min(a, b), max(a, b)
	p.groups[lo] = group{head: ga.head, tail: gb.tail, weight: w}
	copy(p.groups[hi:], p.groups[hi+1:])
	p.groups = p.groups[:len(p.groups)-1]
}

// members lays the groups' member lists out in one backing array.
func (p *partitioner) members() [][]int {
	flat := make([]int, len(p.next))
	out := make([][]int, len(p.groups))
	pos := 0
	for gi, g := range p.groups {
		start := pos
		for m := g.head; m >= 0; m = p.next[m] {
			flat[pos] = int(m)
			pos++
		}
		out[gi] = flat[start:pos:pos]
	}
	return out
}

// SummarizeAux computes f(aux) for Lemma 1 verification: the centroid of
// the collection whose per-input weights are given by aux.
func (Method) SummarizeAux(aux vec.Vector, inputs []core.Value) (core.Summary, error) {
	if aux.Dim() != len(inputs) {
		return nil, fmt.Errorf("centroids: aux dim %d but %d inputs", aux.Dim(), len(inputs))
	}
	mean, err := vec.WeightedMean(inputs, aux)
	if err != nil {
		return nil, fmt.Errorf("centroids: %w", err)
	}
	return Centroid{Point: mean}, nil
}
