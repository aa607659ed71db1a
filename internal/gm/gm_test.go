package gm

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"distclass/internal/core"
	"distclass/internal/gauss"
	"distclass/internal/mat"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

var method Method

func mkColl(t *testing.T, w float64, xs ...float64) core.Collection {
	t.Helper()
	s, err := method.Summarize(vec.Of(xs...))
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	return core.Collection{Summary: s, Weight: w}
}

func TestName(t *testing.T) {
	if method.Name() != "gm" {
		t.Errorf("Name = %q", method.Name())
	}
}

func TestSummarize(t *testing.T) {
	s, err := method.Summarize(vec.Of(1, 2))
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	sum := s.(Summary)
	if !sum.G.Mean.Equal(vec.Of(1, 2)) {
		t.Errorf("mean = %v", sum.G.Mean)
	}
	if !sum.G.Cov.Equal(mat.New(2)) {
		t.Errorf("cov = %v, want zero", sum.G.Cov)
	}
	if sum.Dim() != 2 {
		t.Errorf("Dim = %d", sum.Dim())
	}
	if _, err := method.Summarize(nil); err == nil {
		t.Errorf("empty value should error")
	}
}

func TestMergeTracksMoments(t *testing.T) {
	a := mkColl(t, 1, 0, 0)
	b := mkColl(t, 1, 2, 0)
	s, err := method.Merge([]core.Collection{a, b})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	g := s.(Summary).G
	if !g.Mean.ApproxEqual(vec.Of(1, 0), 1e-12) {
		t.Errorf("mean = %v", g.Mean)
	}
	if math.Abs(g.Cov.At(0, 0)-1) > 1e-12 {
		t.Errorf("var_x = %v, want 1", g.Cov.At(0, 0))
	}
	if _, err := method.Merge(nil); err == nil {
		t.Errorf("empty merge should error")
	}
}

// TestR2 checks valToSummary(val) == f(e_i).
func TestR2(t *testing.T) {
	inputs := []core.Value{vec.Of(1, 2), vec.Of(3, 4)}
	s, err := method.Summarize(inputs[0])
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	viaAux, err := method.SummarizeAux(vec.Of(1, 0), inputs)
	if err != nil {
		t.Fatalf("SummarizeAux: %v", err)
	}
	d, err := FullDistance(s, viaAux)
	if err != nil {
		t.Fatalf("FullDistance: %v", err)
	}
	if d > 1e-12 {
		t.Errorf("R2 violated: distance %v", d)
	}
}

// TestR3 checks f(v) == f(alpha v): weight scaling leaves the summary
// unchanged.
func TestR3(t *testing.T) {
	inputs := []core.Value{vec.Of(1, 2), vec.Of(3, 4), vec.Of(-2, 0)}
	aux := vec.Of(0.5, 1, 0.25)
	s1, err := method.SummarizeAux(aux, inputs)
	if err != nil {
		t.Fatalf("SummarizeAux: %v", err)
	}
	s2, err := method.SummarizeAux(vec.Scale(9, aux), inputs)
	if err != nil {
		t.Fatalf("SummarizeAux: %v", err)
	}
	d, _ := FullDistance(s1, s2)
	if d > 1e-9 {
		t.Errorf("R3 violated: distance %v", d)
	}
}

// TestR4 checks merge-then-summarize == summarize-then-merge including
// covariances.
func TestR4(t *testing.T) {
	inputs := []core.Value{vec.Of(0, 0), vec.Of(4, 0), vec.Of(2, 2), vec.Of(-1, 3)}
	auxA := vec.Of(1, 0.5, 0, 0.25)
	auxB := vec.Of(0, 0.5, 1, 0.75)
	sa, err := method.SummarizeAux(auxA, inputs)
	if err != nil {
		t.Fatalf("SummarizeAux: %v", err)
	}
	sb, err := method.SummarizeAux(auxB, inputs)
	if err != nil {
		t.Fatalf("SummarizeAux: %v", err)
	}
	merged, err := method.Merge([]core.Collection{
		{Summary: sa, Weight: auxA.Norm1()},
		{Summary: sb, Weight: auxB.Norm1()},
	})
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	sum, _ := vec.Add(auxA, auxB)
	direct, err := method.SummarizeAux(sum, inputs)
	if err != nil {
		t.Fatalf("SummarizeAux: %v", err)
	}
	d, _ := FullDistance(merged, direct)
	if d > 1e-9 {
		t.Errorf("R4 violated: distance %v", d)
	}
}

func TestDistanceIsMeanDistance(t *testing.T) {
	a, _ := gauss.New(vec.Of(0, 0), mat.Diagonal(5, 5))
	b, _ := gauss.New(vec.Of(3, 4), mat.Diagonal(0.1, 0.1))
	d, err := method.Distance(Summary{G: a}, Summary{G: b})
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if math.Abs(d-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5 (covariances must not matter)", d)
	}
}

func TestTypeErrors(t *testing.T) {
	foreign := fakeSummary{}
	if _, err := method.Distance(foreign, foreign); err == nil {
		t.Errorf("Distance with foreign type should error")
	}
	if _, err := FullDistance(foreign, foreign); err == nil {
		t.Errorf("FullDistance with foreign type should error")
	}
	cs := []core.Collection{{Summary: foreign, Weight: 1}}
	if _, err := method.Merge(cs); err == nil {
		t.Errorf("Merge with foreign type should error")
	}
	if _, err := method.Partition(cs, 1, 0.25); err == nil {
		t.Errorf("Partition with foreign type should error")
	}
	if _, err := ToMixture(core.Classification(cs)); err == nil {
		t.Errorf("ToMixture with foreign type should error")
	}
}

type fakeSummary struct{}

func (fakeSummary) Dim() int       { return 1 }
func (fakeSummary) String() string { return "fake" }

func TestPartitionTwoClusters(t *testing.T) {
	cs := []core.Collection{
		mkColl(t, 1, 0, 0), mkColl(t, 1, 0.3, 0), mkColl(t, 1, -0.2, 0.1),
		mkColl(t, 1, 8, 8), mkColl(t, 1, 8.2, 7.9),
	}
	groups, err := method.Partition(cs, 2, core.DefaultQ)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if err := core.ValidatePartition(groups, len(cs), 2); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	for _, g := range groups {
		first := g[0] < 3
		for _, idx := range g {
			if (idx < 3) != first {
				t.Errorf("mixed group: %v", groups)
			}
		}
	}
}

func TestPartitionVarianceAware(t *testing.T) {
	// Figure 1: probe nearer the tight cluster's centroid but likelier
	// under the wide one.
	wide, _ := gauss.New(vec.Of(0, 0), mat.Diagonal(9, 9))
	tight, _ := gauss.New(vec.Of(4, 0), mat.Diagonal(0.01, 0.01))
	cs := []core.Collection{
		{Summary: Summary{G: wide}, Weight: 10},
		{Summary: Summary{G: tight}, Weight: 10},
		mkColl(t, 0.5, 2.6, 0),
	}
	groups, err := method.Partition(cs, 2, core.DefaultQ)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for _, g := range groups {
		hasProbe, hasTight := false, false
		for _, idx := range g {
			if idx == 2 {
				hasProbe = true
			}
			if idx == 1 {
				hasTight = true
			}
		}
		if hasProbe && hasTight {
			t.Errorf("probe grouped with the tight cluster: %v", groups)
		}
	}
}

func TestPartitionQuantumRule(t *testing.T) {
	const q = 0.25
	cs := []core.Collection{
		mkColl(t, q, 0, 0),
		mkColl(t, 1, 50, 50),
		mkColl(t, 1, 51, 50),
	}
	groups, err := method.Partition(cs, 3, q)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for _, g := range groups {
		if len(g) == 1 && math.Abs(cs[g[0]].Weight-q) < 1e-12 {
			t.Errorf("quantum singleton survived: %v", groups)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := method.Partition(nil, 2, 0.25); err == nil {
		t.Errorf("empty should error")
	}
	if _, err := method.Partition([]core.Collection{mkColl(t, 1, 0)}, 0, 0.25); err == nil {
		t.Errorf("k=0 should error")
	}
}

func TestToMixture(t *testing.T) {
	cls := core.Classification{mkColl(t, 0.5, 1, 1), mkColl(t, 1.5, 2, 2)}
	mix, err := ToMixture(cls)
	if err != nil {
		t.Fatalf("ToMixture: %v", err)
	}
	if len(mix) != 2 || mix.TotalWeight() != 2 {
		t.Errorf("mixture = %v", mix)
	}
}

func TestAssign(t *testing.T) {
	wide, _ := gauss.New(vec.Of(0, 0), mat.Diagonal(9, 9))
	tight, _ := gauss.New(vec.Of(4, 0), mat.Diagonal(0.01, 0.01))
	mix := gauss.Mixture{
		{Gaussian: wide, Weight: 1},
		{Gaussian: tight, Weight: 1},
	}
	// Figure 1's probe: nearer to the tight centroid, likelier under wide.
	got, err := Assign(mix, vec.Of(2.6, 0), 0)
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if got != 0 {
		t.Errorf("Assign = %d, want 0 (wide component)", got)
	}
	// A point at the tight mean goes to the tight component.
	got2, _ := Assign(mix, vec.Of(4, 0), 0)
	if got2 != 1 {
		t.Errorf("Assign at tight mean = %d, want 1", got2)
	}
	if _, err := Assign(nil, vec.Of(0), 0); err == nil {
		t.Errorf("empty mixture should error")
	}
}

// TestGMWithGenericNode runs the GM method under the generic node and
// checks Lemma 1 with covariance-aware distance.
func TestGMWithGenericNode(t *testing.T) {
	const nNodes = 4
	r := rng.New(555)
	inputs := make([]core.Value, nNodes)
	nodes := make([]*core.Node, nNodes)
	for i := range nodes {
		inputs[i] = vec.Of(r.UniformRange(-3, 3), r.UniformRange(-3, 3))
		aux := vec.New(nNodes)
		aux[i] = 1
		n, err := core.NewNode(i, inputs[i], aux, core.Config{Method: method, K: 2, Q: 1.0 / 1024})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = n
	}
	var inflight []core.Classification
	for step := 0; step < 200; step++ {
		if len(inflight) > 0 && r.Bool(0.5) {
			mi := r.IntN(len(inflight))
			msg := inflight[mi]
			inflight = append(inflight[:mi], inflight[mi+1:]...)
			if err := nodes[r.IntN(nNodes)].Absorb(msg); err != nil {
				t.Fatalf("Absorb: %v", err)
			}
		} else {
			out := nodes[r.IntN(nNodes)].Split()
			if len(out) > 0 {
				inflight = append(inflight, out)
			}
		}
		for _, n := range nodes {
			for _, c := range n.Classification() {
				if math.Abs(c.Aux.Norm1()-c.Weight) > 1e-9 {
					t.Fatalf("step %d: aux mass %v != weight %v", step, c.Aux.Norm1(), c.Weight)
				}
				want, err := method.SummarizeAux(c.Aux, inputs)
				if err != nil {
					t.Fatalf("SummarizeAux: %v", err)
				}
				d, err := FullDistance(want, c.Summary)
				if err != nil {
					t.Fatalf("FullDistance: %v", err)
				}
				if d > 1e-8 {
					t.Fatalf("step %d: Lemma 1 violated by %v", step, d)
				}
			}
		}
	}
}

func TestPropertyPartitionValid(t *testing.T) {
	const q = 1.0 / 256
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(10)
		k := 1 + r.IntN(5)
		cs := make([]core.Collection, n)
		for i := range cs {
			s, err := method.Summarize(vec.Of(r.UniformRange(-10, 10), r.UniformRange(-10, 10)))
			if err != nil {
				return false
			}
			cs[i] = core.Collection{Summary: s, Weight: q * float64(1+r.IntN(64))}
		}
		groups, err := method.Partition(cs, k, q)
		if err != nil {
			return false
		}
		if core.ValidatePartition(groups, n, k) != nil {
			return false
		}
		if n >= 2 {
			for _, g := range groups {
				if len(g) == 1 && cs[g[0]].Weight <= q+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGMPartition(b *testing.B) {
	r := rng.New(7)
	cs := make([]core.Collection, 14)
	for i := range cs {
		s, err := method.Summarize(vec.Of(r.UniformRange(-10, 10), r.UniformRange(-10, 10)))
		if err != nil {
			b.Fatal(err)
		}
		cs[i] = core.Collection{Summary: s, Weight: 0.5}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := method.Partition(cs, 7, core.DefaultQ); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGreedyReducerPartition(t *testing.T) {
	greedy := Method{Reducer: ReducerGreedy}
	cs := []core.Collection{
		mkColl(t, 1, 0, 0), mkColl(t, 1, 0.3, 0),
		mkColl(t, 1, 8, 8), mkColl(t, 1, 8.2, 7.9), mkColl(t, 1, 7.9, 8.1),
	}
	groups, err := greedy.Partition(cs, 2, core.DefaultQ)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	if err := core.ValidatePartition(groups, len(cs), 2); err != nil {
		t.Fatalf("invalid partition: %v", err)
	}
	for _, g := range groups {
		first := g[0] < 2
		for _, idx := range g {
			if (idx < 2) != first {
				t.Errorf("mixed group: %v", groups)
			}
		}
	}
}

func TestReducerString(t *testing.T) {
	if ReducerEM.String() != "em" || ReducerGreedy.String() != "greedy" {
		t.Errorf("reducer strings: %q %q", ReducerEM, ReducerGreedy)
	}
	if Reducer(7).String() == "" {
		t.Errorf("unknown reducer should render")
	}
}

// TestGreedyReducerEndToEnd runs the generic node with the greedy
// reducer and checks two-cluster recovery.
func TestGreedyReducerEndToEnd(t *testing.T) {
	r := rng.New(999)
	method := Method{Reducer: ReducerGreedy}
	const nNodes = 10
	nodes := make([]*core.Node, nNodes)
	for i := range nodes {
		c := -5.0
		if i%2 == 1 {
			c = 5
		}
		n, err := core.NewNode(i, vec.Of(c+r.UniformRange(-1, 1)), nil,
			core.Config{Method: method, K: 2})
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = n
	}
	for step := 0; step < 400; step++ {
		src := r.IntN(nNodes)
		dst := r.IntN(nNodes - 1)
		if dst >= src {
			dst++
		}
		out := nodes[src].Split()
		if len(out) == 0 {
			continue
		}
		if err := nodes[dst].Absorb(out); err != nil {
			t.Fatalf("Absorb: %v", err)
		}
	}
	for i, n := range nodes {
		var sawLow, sawHigh bool
		for _, c := range n.Classification() {
			mean := c.Summary.(Summary).G.Mean
			if mean[0] < 0 {
				sawLow = true
			} else {
				sawHigh = true
			}
		}
		if !sawLow || !sawHigh {
			t.Errorf("node %d missing a cluster: %v", i, n.Classification())
		}
	}
}

// mergedCollections draws n 2-D collections shaped like a Figure 2
// node's partition input: moment-matched merges of a few points around
// one of three centres.
func mergedCollections(r *rng.RNG, n int) []core.Collection {
	cs := make([]core.Collection, n)
	for i := range cs {
		c := float64(r.IntN(3))
		pts := make([]core.Collection, 1+r.IntN(6))
		for p := range pts {
			s, err := method.Summarize(vec.Of(5*c+r.Normal(0, 1), r.Normal(0, 1)))
			if err != nil {
				panic(err)
			}
			pts[p] = core.Collection{Summary: s, Weight: 1.0 / 64}
		}
		s, err := method.Merge(pts)
		if err != nil {
			panic(err)
		}
		cs[i] = core.Collection{Summary: s, Weight: float64(len(pts)) / 64}
	}
	return cs
}

// TestPartitionMergeAllocs pins a warm Figure-2-sized receive (17
// merged collections, k = 7): Partition allocates only the groups
// em.ReduceMixture returns, and Merge only the merged summary (its
// mean, its covariance's header and entries, the merge's diff buffer
// and the interface box). The component views come from a pool, which
// race builds drop at random, so the counts are checked only without
// the race detector.
func TestPartitionMergeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled component views at random")
	}
	cs := mergedCollections(rng.New(3), 17)
	var groups [][]int
	partition := testing.AllocsPerRun(50, func() {
		var err error
		if groups, err = method.Partition(cs, 7, core.DefaultQ); err != nil {
			t.Fatal(err)
		}
	})
	members := make([]core.Collection, 0, len(cs))
	for _, i := range groups[0] {
		members = append(members, cs[i])
	}
	merge := testing.AllocsPerRun(50, func() {
		if _, err := method.Merge(members); err != nil {
			t.Fatal(err)
		}
	})
	if partition != 2 || merge != 5 {
		t.Errorf("warm allocs: Partition %v, Merge %v; want 2 and 5", partition, merge)
	}
}

// TestCompBufReleasePinsNoSummary pins that a released component view,
// after a full fill and after a fill stopped by a foreign summary,
// references no summary.
func TestCompBufReleasePinsNoSummary(t *testing.T) {
	good := mergedCollections(rng.New(4), 6)
	bad := append(append([]core.Collection{}, good[:3]...), core.Collection{Summary: fakeSummary{}, Weight: 1})
	for _, cs := range [][]core.Collection{good, bad} {
		b := &compBuf{}
		_, err := b.fill(cs)
		if (err != nil) != (len(cs) == len(bad)) {
			t.Errorf("fill of %d collections: error %v", len(cs), err)
		}
		b.release()
		for i, c := range b.comps[:cap(b.comps)] {
			if c.Mean != nil || c.Cov != nil {
				t.Errorf("released slot %d still holds %v", i, c)
			}
		}
	}
}

// TestPoolConcurrentPartition runs Partition and Merge on distinct
// problems from several goroutines at once, so pooled component views
// and reducers move between goroutines. Every result must equal its
// problem's serial result, and must still equal it after every
// goroutine has made many more calls.
func TestPoolConcurrentPartition(t *testing.T) {
	const workers, calls = 4, 50
	probs := make([][]core.Collection, workers)
	want := make([][][]int, workers)
	wantMerged := make([]core.Summary, workers)
	for w := range probs {
		probs[w] = mergedCollections(rng.New(uint64(50+w)), 8+5*w)
		var err error
		if want[w], err = method.Partition(probs[w], 3, core.DefaultQ); err != nil {
			t.Fatalf("problem %d: %v", w, err)
		}
		if wantMerged[w], err = method.Merge(probs[w]); err != nil {
			t.Fatalf("problem %d: %v", w, err)
		}
	}
	kept := make([][][]int, workers)
	var wg sync.WaitGroup
	for w := range probs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				got, err := method.Partition(probs[w], 3, core.DefaultQ)
				if err != nil || !reflect.DeepEqual(got, want[w]) {
					t.Errorf("problem %d call %d: Partition = %v, %v; want %v", w, c, got, err, want[w])
					return
				}
				merged, err := method.Merge(probs[w])
				if err != nil || !reflect.DeepEqual(merged, wantMerged[w]) {
					t.Errorf("problem %d call %d: Merge = %v, %v; want %v", w, c, merged, err, wantMerged[w])
					return
				}
				if c == 0 {
					kept[w] = got
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range kept {
		if !reflect.DeepEqual(kept[w], want[w]) {
			t.Errorf("problem %d: first result changed to %v by later calls; want %v", w, kept[w], want[w])
		}
	}
}
