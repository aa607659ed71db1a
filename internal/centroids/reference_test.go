package centroids

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"distclass/internal/core"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

// The reference implementation below is the original allocation-heavy
// Partition and Merge, kept verbatim as the oracle: the scratch-based
// versions must return the same groups in the same member order, with
// bit-identical running and merged centroids.

type refGroup struct {
	members  []int
	centroid vec.Vector
	weight   float64
}

func refMergeGroups(a, b refGroup) refGroup {
	w := a.weight + b.weight
	cen := vec.Scale(a.weight/w, a.centroid)
	vec.Axpy(cen, b.weight/w, b.centroid)
	return refGroup{
		members:  append(append([]int{}, a.members...), b.members...),
		centroid: cen,
		weight:   w,
	}
}

func refPartition(cs []core.Collection, k int, q float64) ([]refGroup, error) {
	if len(cs) == 0 {
		return nil, errors.New("centroids: partition of no collections")
	}
	if k < 1 {
		return nil, fmt.Errorf("centroids: k = %d must be at least 1", k)
	}
	groups := make([]refGroup, len(cs))
	for i, c := range cs {
		cen, ok := c.Summary.(Centroid)
		if !ok {
			return nil, fmt.Errorf("centroids: unexpected summary type %T", c.Summary)
		}
		groups[i] = refGroup{members: []int{i}, centroid: cen.Point, weight: c.Weight}
	}
	groups = refMergeQuantumSingletons(groups, q)
	for len(groups) > k {
		i, j := refClosestPair(groups)
		merged := refMergeGroups(groups[i], groups[j])
		groups[i] = merged
		groups = append(groups[:j], groups[j+1:]...)
	}
	return groups, nil
}

func refMergeQuantumSingletons(groups []refGroup, q float64) []refGroup {
	const eps = 1e-12
	for {
		if len(groups) < 2 {
			return groups
		}
		idx := -1
		for i, g := range groups {
			if len(g.members) == 1 && g.weight <= q+eps {
				idx = i
				break
			}
		}
		if idx < 0 {
			return groups
		}
		best, bestDist := -1, math.Inf(1)
		for j, g := range groups {
			if j == idx {
				continue
			}
			d := vec.DistSq(groups[idx].centroid, g.centroid)
			if d < bestDist {
				best, bestDist = j, d
			}
		}
		merged := refMergeGroups(groups[idx], groups[best])
		lo, hi := idx, best
		if lo > hi {
			lo, hi = hi, lo
		}
		groups[lo] = merged
		groups = append(groups[:hi], groups[hi+1:]...)
	}
}

func refClosestPair(groups []refGroup) (int, int) {
	bi, bj, best := -1, -1, math.Inf(1)
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			d := vec.DistSq(groups[i].centroid, groups[j].centroid)
			if d < best {
				bi, bj, best = i, j, d
			}
		}
	}
	return bi, bj
}

func refMerge(cs []core.Collection) (vec.Vector, error) {
	points := make([]vec.Vector, len(cs))
	weights := make([]float64, len(cs))
	for i, c := range cs {
		points[i] = c.Summary.(Centroid).Point
		weights[i] = c.Weight
	}
	return vec.WeightedMean(points, weights)
}

// randomCollections draws n collections in d dimensions. Coordinates
// come from a small integer grid, so distance ties and coincident
// centroids are common, and weights are multiples of q with weight q
// itself (a quantum singleton) frequent.
func randomCollections(r *rng.RNG, n, d int, q float64) []core.Collection {
	cs := make([]core.Collection, n)
	for i := range cs {
		p := vec.New(d)
		for j := range p {
			p[j] = float64(r.IntN(7) - 3)
		}
		w := q
		if r.IntN(3) > 0 {
			w = q * float64(1+r.IntN(1<<12))
		}
		cs[i] = core.Collection{Summary: Centroid{Point: p}, Weight: w}
	}
	return cs
}

func sameBits(a, b vec.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPartitionMatchesReference runs the scratch Partition and the
// reference on the same random inputs: small ones that fit the stack
// buffers and large ones (n beyond stackGroups, n·d beyond stackCoords)
// that take the heap fallback, with k = 1 and distance ties included.
func TestPartitionMatchesReference(t *testing.T) {
	const q = 1.0 / 1024
	r := rng.New(20)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.IntN(stackGroups+8)
		d := 1 + r.IntN(5)
		k := 1 + r.IntN(5)
		cs := randomCollections(r, n, d, q)
		want, err := refPartition(cs, k, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := method.Partition(cs, k, q)
		if err != nil {
			t.Fatalf("trial %d: Partition: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (n=%d d=%d k=%d): %d groups, reference %d", trial, n, d, k, len(got), len(want))
		}
		// The running centroids, read from the partitioner's own state.
		p := partitioner{d: d, groups: make([]group, n), next: make([]int32, n), cen: make([]float64, n*d)}
		if err := p.load(cs); err != nil {
			t.Fatal(err)
		}
		if err := p.reduce(k, q); err != nil {
			t.Fatal(err)
		}
		members := make([]core.Collection, 0, n)
		for gi, g := range want {
			if fmt.Sprint(got[gi]) != fmt.Sprint(g.members) {
				t.Fatalf("trial %d (n=%d d=%d k=%d) group %d = %v, reference %v", trial, n, d, k, gi, got[gi], g.members)
			}
			if c := p.centroid(p.groups[gi]); !sameBits(c, g.centroid) {
				t.Fatalf("trial %d group %d running centroid %v, reference %v", trial, gi, c, g.centroid)
			}
			members = members[:0]
			for _, idx := range g.members {
				members = append(members, cs[idx])
			}
			s, err := method.Merge(members)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refMerge(members)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(s.(Centroid).Point, ref) {
				t.Fatalf("trial %d group %d merged centroid %v, reference %v", trial, gi, s, ref)
			}
		}
	}
}

// TestPartitionGroupsDoNotOverlap pins that the groups Partition
// returns share one backing array without overlapping capacity: an
// append to one group must not overwrite the next.
func TestPartitionGroupsDoNotOverlap(t *testing.T) {
	cs := randomCollections(rng.New(4), 12, 2, 1.0/1024)
	groups, err := method.Partition(cs, 3, 1.0/1024)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		if cap(g) != len(g) {
			t.Errorf("group %d: len %d cap %d", i, len(g), cap(g))
		}
	}
}

func TestPartitionRejectsMixedDims(t *testing.T) {
	cs := []core.Collection{
		{Summary: Centroid{Point: vec.Of(0, 0)}, Weight: 1},
		{Summary: Centroid{Point: vec.Of(1)}, Weight: 1},
	}
	if _, err := method.Partition(cs, 1, 0.25); !errors.Is(err, vec.ErrDimMismatch) {
		t.Errorf("Partition of mixed dimensions: %v, want ErrDimMismatch", err)
	}
	if _, err := method.Merge(cs); !errors.Is(err, vec.ErrDimMismatch) {
		t.Errorf("Merge of mixed dimensions: %v, want ErrDimMismatch", err)
	}
}

func TestPartitionNaNCentroidsError(t *testing.T) {
	cs := []core.Collection{
		{Summary: Centroid{Point: vec.Of(math.NaN())}, Weight: 1},
		{Summary: Centroid{Point: vec.Of(math.NaN())}, Weight: 1},
	}
	if _, err := method.Partition(cs, 1, 0.25); err == nil {
		t.Error("Partition of NaN centroids should error, not pick a pair")
	}
}

// TestPartitionAllocs pins Partition on stack scratch: for up to
// stackGroups two-dimensional collections only the returned groups are
// allocated — one backing array plus the slice of groups.
func TestPartitionAllocs(t *testing.T) {
	for _, n := range []int{2, 5, stackGroups} {
		cs := randomCollections(rng.New(uint64(n)), n, 2, 1.0/1024)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := method.Partition(cs, 2, 1.0/1024); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("Partition of %d collections: %v allocs, want <= 2", n, allocs)
		}
	}
}

// TestMergeAllocs pins Merge to the merged summary itself: the mean
// vector and its interface box.
func TestMergeAllocs(t *testing.T) {
	cs := randomCollections(rng.New(9), 6, 2, 1.0/1024)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := method.Merge(cs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Merge: %v allocs, want <= 2", allocs)
	}
}
