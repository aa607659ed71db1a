package em

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"distclass/internal/gauss"
	"distclass/internal/mat"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

func pointComp(w float64, xs ...float64) gauss.Component {
	return gauss.Component{Gaussian: gauss.NewPoint(vec.Of(xs...)), Weight: w}
}

func TestReduceMixtureFewerThanK(t *testing.T) {
	cs := []gauss.Component{pointComp(1, 0, 0), pointComp(1, 5, 5)}
	groups, err := ReduceMixture(cs, 4, Options{})
	if err != nil {
		t.Fatalf("ReduceMixture: %v", err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	for i, g := range groups {
		if len(g) != 1 || g[0] != i {
			t.Errorf("group %d = %v, want singleton {%d}", i, g, i)
		}
	}
}

func TestReduceMixtureTwoClusters(t *testing.T) {
	cs := []gauss.Component{
		pointComp(1, 0, 0), pointComp(1, 0.2, 0), pointComp(1, -0.1, 0.1),
		pointComp(1, 10, 10), pointComp(1, 10.3, 9.8), pointComp(1, 9.9, 10.1),
	}
	groups, err := ReduceMixture(cs, 2, Options{})
	if err != nil {
		t.Fatalf("ReduceMixture: %v", err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups: %v", len(groups), groups)
	}
	// Each group must be entirely from one cluster (indices 0-2 vs 3-5).
	for _, g := range groups {
		first := g[0] < 3
		for _, idx := range g {
			if (idx < 3) != first {
				t.Errorf("mixed group: %v", groups)
			}
		}
	}
}

func TestReduceMixtureUsesVariance(t *testing.T) {
	// A wide component at the origin and a tight one at (4, 0). A point
	// component at (2.6, 0) is closer (Euclidean) to the tight cluster
	// but likelier under the wide one; expected log-density assignment
	// must put it with the wide component. This is Figure 1's scenario.
	wide, err := gauss.New(vec.Of(0, 0), mat.Diagonal(9, 9))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tight, err := gauss.New(vec.Of(4, 0), mat.Diagonal(0.01, 0.01))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cs := []gauss.Component{
		{Gaussian: wide, Weight: 10},
		{Gaussian: tight, Weight: 10},
		pointComp(0.5, 2.6, 0),
	}
	groups, err := ReduceMixture(cs, 2, Options{})
	if err != nil {
		t.Fatalf("ReduceMixture: %v", err)
	}
	var probeGroup []int
	for _, g := range groups {
		for _, idx := range g {
			if idx == 2 {
				probeGroup = g
			}
		}
	}
	hasWide := false
	for _, idx := range probeGroup {
		if idx == 0 {
			hasWide = true
		}
	}
	if !hasWide {
		t.Errorf("probe joined the tight cluster despite the wide one being likelier: %v", groups)
	}
}

func TestReduceMixtureErrors(t *testing.T) {
	if _, err := ReduceMixture(nil, 2, Options{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := ReduceMixture([]gauss.Component{pointComp(1, 0)}, 0, Options{}); err == nil {
		t.Errorf("k=0 should error")
	}
}

func TestReduceMixtureIdenticalMeans(t *testing.T) {
	// All means coincide: farthest-first cannot find k distinct seeds and
	// must still return a valid (single-group) partition.
	cs := []gauss.Component{
		pointComp(1, 1, 1), pointComp(2, 1, 1), pointComp(3, 1, 1),
	}
	groups, err := ReduceMixture(cs, 2, Options{})
	if err != nil {
		t.Fatalf("ReduceMixture: %v", err)
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 3 {
		t.Errorf("partition covers %d of 3: %v", total, groups)
	}
}

func TestPropertyReducePartitionValid(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(15)
		k := 1 + r.IntN(5)
		cs := make([]gauss.Component, n)
		for i := range cs {
			cs[i] = pointComp(r.UniformRange(0.1, 2), r.UniformRange(-10, 10), r.UniformRange(-10, 10))
		}
		groups, err := ReduceMixture(cs, k, Options{})
		if err != nil {
			return false
		}
		if len(groups) > k {
			return false
		}
		seen := make([]bool, n)
		count := 0
		for _, g := range groups {
			if len(g) == 0 {
				return false
			}
			for _, idx := range g {
				if idx < 0 || idx >= n || seen[idx] {
					return false
				}
				seen[idx] = true
				count++
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sampleTwoBlobs(t *testing.T, r *rng.RNG, n int) []vec.Vector {
	t.Helper()
	g1, err := rng.NewMVN(vec.Of(-5, 0), mat.Identity(2))
	if err != nil {
		t.Fatalf("NewMVN: %v", err)
	}
	g2, err := rng.NewMVN(vec.Of(5, 0), mat.Identity(2))
	if err != nil {
		t.Fatalf("NewMVN: %v", err)
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		if i%2 == 0 {
			pts[i] = g1.Sample(r)
		} else {
			pts[i] = g2.Sample(r)
		}
	}
	return pts
}

func TestFitGMMTwoBlobs(t *testing.T) {
	r := rng.New(101)
	pts := sampleTwoBlobs(t, r, 600)
	res, err := FitGMM(pts, 2, r, Options{MaxIters: 100})
	if err != nil {
		t.Fatalf("FitGMM: %v", err)
	}
	if len(res.Mixture) != 2 {
		t.Fatalf("components = %d", len(res.Mixture))
	}
	// Means near (-5, 0) and (5, 0), weights near 300 each.
	var left, right *gauss.Component
	for i := range res.Mixture {
		if res.Mixture[i].Mean[0] < 0 {
			left = &res.Mixture[i]
		} else {
			right = &res.Mixture[i]
		}
	}
	if left == nil || right == nil {
		t.Fatalf("components on the same side: %v", res.Mixture)
	}
	if !left.Mean.ApproxEqual(vec.Of(-5, 0), 0.3) || !right.Mean.ApproxEqual(vec.Of(5, 0), 0.3) {
		t.Errorf("means = %v / %v", left.Mean, right.Mean)
	}
	if math.Abs(left.Weight-300) > 30 || math.Abs(right.Weight-300) > 30 {
		t.Errorf("weights = %v / %v, want ~300", left.Weight, right.Weight)
	}
	if math.Abs(left.Cov.At(0, 0)-1) > 0.4 {
		t.Errorf("variance = %v, want ~1", left.Cov.At(0, 0))
	}
	if res.Iters < 1 {
		t.Errorf("Iters = %d", res.Iters)
	}
}

func TestFitGMMLikelihoodImproves(t *testing.T) {
	r := rng.New(103)
	pts := sampleTwoBlobs(t, r, 200)
	one, err := FitGMM(pts, 1, r, Options{MaxIters: 100})
	if err != nil {
		t.Fatalf("FitGMM k=1: %v", err)
	}
	two, err := FitGMM(pts, 2, r, Options{MaxIters: 100})
	if err != nil {
		t.Fatalf("FitGMM k=2: %v", err)
	}
	if two.LogLikelihood <= one.LogLikelihood {
		t.Errorf("k=2 LL (%v) should beat k=1 LL (%v) on bimodal data",
			two.LogLikelihood, one.LogLikelihood)
	}
}

func TestFitGMMErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := FitGMM(nil, 1, r, Options{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty error = %v", err)
	}
	pts := []vec.Vector{vec.Of(1), vec.Of(2)}
	if _, err := FitGMM(pts, 0, r, Options{}); err == nil {
		t.Errorf("k=0 should error")
	}
	if _, err := FitGMM(pts, 3, r, Options{}); err == nil {
		t.Errorf("k>n should error")
	}
}

func TestKMeansTwoBlobs(t *testing.T) {
	r := rng.New(105)
	pts := sampleTwoBlobs(t, r, 400)
	res, err := KMeans(pts, 2, r, Options{MaxIters: 100})
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	if len(res.Centers) != 2 || len(res.Assign) != 400 {
		t.Fatalf("centers=%d assigns=%d", len(res.Centers), len(res.Assign))
	}
	c0, c1 := res.Centers[0], res.Centers[1]
	if c0[0] > c1[0] {
		c0, c1 = c1, c0
	}
	if !c0.ApproxEqual(vec.Of(-5, 0), 0.4) || !c1.ApproxEqual(vec.Of(5, 0), 0.4) {
		t.Errorf("centers = %v / %v", c0, c1)
	}
	if res.Inertia <= 0 {
		t.Errorf("Inertia = %v", res.Inertia)
	}
	// Assignments must point at the nearest center.
	for i, p := range pts {
		a := res.Assign[i]
		for j := range res.Centers {
			if vec.DistSq(p, res.Centers[j]) < vec.DistSq(p, res.Centers[a])-1e-9 {
				t.Fatalf("point %d assigned to non-nearest center", i)
			}
		}
	}
}

func TestKMeansDegenerate(t *testing.T) {
	r := rng.New(107)
	pts := []vec.Vector{vec.Of(1, 1), vec.Of(1, 1), vec.Of(1, 1)}
	res, err := KMeans(pts, 2, r, Options{})
	if err != nil {
		t.Fatalf("KMeans identical points: %v", err)
	}
	if res.Inertia > 1e-12 {
		t.Errorf("Inertia = %v for identical points", res.Inertia)
	}
}

func TestKMeansErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := KMeans(nil, 1, r, Options{}); !errors.Is(err, ErrNoData) {
		t.Errorf("empty error = %v", err)
	}
	if _, err := KMeans([]vec.Vector{vec.Of(1)}, 2, r, Options{}); err == nil {
		t.Errorf("k>n should error")
	}
}

func TestPropertyKMeansInertiaNotWorseThanOneCluster(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 4 + r.IntN(40)
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = vec.Of(r.UniformRange(-10, 10), r.UniformRange(-10, 10))
		}
		one, err := KMeans(pts, 1, r, Options{})
		if err != nil {
			return false
		}
		two, err := KMeans(pts, 2, r, Options{})
		if err != nil {
			return false
		}
		return two.Inertia <= one.Inertia+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkReduceMixture(b *testing.B) {
	r := rng.New(11)
	cs := make([]gauss.Component, 20)
	for i := range cs {
		cs[i] = pointComp(r.UniformRange(0.5, 2), r.UniformRange(-10, 10), r.UniformRange(-10, 10))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceMixture(cs, 7, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceMixtureMerged reduces inputs shaped like a Figure 2
// node's partition input: 17 merged (non-zero-covariance) components
// to k = 7.
func BenchmarkReduceMixtureMerged(b *testing.B) {
	cs := mergedProblem(rng.New(11), 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReduceMixture(cs, 7, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReduceMixtureAllocs pins a warm Figure-2-sized reduction (17
// merged inputs, k = 7) to the groups it returns: one backing slice of
// member indices and one slice of groups, the same whether EM stops
// after one iteration or runs to convergence. Everything else lives in
// the pooled reducer. Race builds drop pooled items at random, so the
// count is checked only without the race detector.
func TestReduceMixtureAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled reducers at random")
	}
	cs := mergedProblem(rng.New(3), 17)
	for _, iters := range []int{1, 0} {
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := ReduceMixture(cs, 7, Options{MaxIters: iters}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("MaxIters %d: %v allocs per warm call, want 2", iters, allocs)
		}
	}
}

// TestReducerReleasePinsNoInput pins that a released reducer, after a
// success and after each kind of error, references no input, so the
// pool holds no summary between calls.
func TestReducerReleasePinsNoInput(t *testing.T) {
	nan := pointComp(1, 0, 0)
	nan.Cov = mat.Diagonal(math.NaN(), 1)
	cases := map[string][]gauss.Component{
		"success":       mergedProblem(rng.New(5), 12),
		"dimension":     {pointComp(1, 0, 0), pointComp(1, 1, 1), pointComp(1, 0, 0, 0)},
		"merge":         {pointComp(1, 0, 0), pointComp(0, 1, 1), pointComp(1, 9, 9)},
		"no finite fit": {nan, nan, pointComp(1, 5, 5)},
	}
	for name, cs := range cases {
		r := &reducer{}
		_, err := r.reduce(cs, 2, Options{}.withDefaults())
		if (err == nil) != (name == "success") {
			t.Errorf("%s: error %v", name, err)
		}
		r.release()
		if r.cs != nil {
			t.Errorf("%s: released reducer keeps its inputs", name)
		}
		for i, c := range r.sub[:cap(r.sub)] {
			if c.Mean != nil || c.Cov != nil {
				t.Errorf("%s: released member slot %d still holds %v", name, i, c)
			}
		}
	}
}

// TestPoolConcurrentReduce runs ReduceMixture on distinct problems of
// several dimensions from several goroutines at once, so pooled
// reducers move between goroutines and change shape. Every result must
// equal its problem's serial result, and must still equal it after
// every goroutine has made many more calls: the returned groups share
// no memory with a pooled reducer.
func TestPoolConcurrentReduce(t *testing.T) {
	const workers, calls = 4, 50
	probs := make([][]gauss.Component, workers)
	want := make([][][]int, workers)
	for w := range probs {
		r := rng.New(uint64(40 + w))
		if w%2 == 0 {
			probs[w] = mergedProblem(r, 9+4*w)
		} else {
			probs[w] = make([]gauss.Component, 15)
			for i := range probs[w] {
				probs[w][i] = pointComp(1, r.Normal(0, 5), r.Normal(0, 5), r.Normal(0, 5))
			}
		}
		var err error
		if want[w], err = ReduceMixture(probs[w], 3, Options{}); err != nil {
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
				got, err := ReduceMixture(probs[w], 3, Options{})
				if err != nil || !reflect.DeepEqual(got, want[w]) {
					t.Errorf("problem %d call %d: %v, %v; want %v", w, c, got, err, want[w])
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

// TestReduceMixtureMixedDimensions pins that inputs of different
// dimensions are an error, not a panic, whenever there is anything to
// reduce.
func TestReduceMixtureMixedDimensions(t *testing.T) {
	cs := []gauss.Component{pointComp(1, 0, 0), pointComp(1, 0, 0, 0), pointComp(1, 1, 1)}
	for k := 1; k <= 2; k++ {
		if _, err := ReduceMixture(cs, k, Options{}); !errors.Is(err, vec.ErrDimMismatch) {
			t.Errorf("k=%d: error %v, want ErrDimMismatch", k, err)
		}
	}
}

func BenchmarkFitGMM(b *testing.B) {
	r := rng.New(13)
	pts := make([]vec.Vector, 200)
	for i := range pts {
		pts[i] = vec.Of(r.UniformRange(-10, 10), r.UniformRange(-10, 10))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FitGMM(pts, 3, r, Options{MaxIters: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFitGMMIterationCap(t *testing.T) {
	r := rng.New(201)
	pts := sampleTwoBlobs(t, r, 100)
	res, err := FitGMM(pts, 2, r, Options{MaxIters: 3})
	if err != nil {
		t.Fatalf("FitGMM: %v", err)
	}
	if res.Iters > 3 {
		t.Errorf("Iters = %d exceeds cap", res.Iters)
	}
}

func TestFitGMMSingleComponentMatchesMoments(t *testing.T) {
	r := rng.New(203)
	pts := sampleTwoBlobs(t, r, 400)
	res, err := FitGMM(pts, 1, r, Options{})
	if err != nil {
		t.Fatalf("FitGMM: %v", err)
	}
	if len(res.Mixture) != 1 {
		t.Fatalf("components = %d", len(res.Mixture))
	}
	// k=1 EM is just the sample mean/covariance.
	var sx, sy float64
	for _, p := range pts {
		sx += p[0]
		sy += p[1]
	}
	mean := res.Mixture[0].Mean
	if math.Abs(mean[0]-sx/400) > 1e-6 || math.Abs(mean[1]-sy/400) > 1e-6 {
		t.Errorf("k=1 mean = %v, want sample mean (%v, %v)", mean, sx/400, sy/400)
	}
	// Bimodal blobs at +-5: overall variance along x ~ 25 + 1.
	if res.Mixture[0].Cov.At(0, 0) < 15 {
		t.Errorf("k=1 var_x = %v, want ~26", res.Mixture[0].Cov.At(0, 0))
	}
}

func TestKMeansRespectsMaxIters(t *testing.T) {
	r := rng.New(205)
	pts := sampleTwoBlobs(t, r, 200)
	res, err := KMeans(pts, 2, r, Options{MaxIters: 2})
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	if res.Iters > 2 {
		t.Errorf("Iters = %d exceeds cap", res.Iters)
	}
}

func TestReduceMixtureRespectsMaxIters(t *testing.T) {
	r := rng.New(207)
	cs := make([]gauss.Component, 12)
	for i := range cs {
		cs[i] = pointComp(1, r.UniformRange(-10, 10), r.UniformRange(-10, 10))
	}
	// MaxIters=1 still yields a valid partition.
	groups, err := ReduceMixture(cs, 3, Options{MaxIters: 1})
	if err != nil {
		t.Fatalf("ReduceMixture: %v", err)
	}
	count := 0
	for _, g := range groups {
		count += len(g)
	}
	if count != 12 {
		t.Errorf("partition covers %d of 12", count)
	}
}
