package core_test

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

func cfg(k int, q float64) core.Config {
	return core.Config{Method: centroids.Method{}, K: k, Q: q}
}

func TestNewNode(t *testing.T) {
	n, err := core.NewNode(3, vec.Of(1, 2), vec.Of(0, 0, 0, 1), cfg(2, 0))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if n.ID() != 3 {
		t.Errorf("ID = %d", n.ID())
	}
	if n.K() != 2 {
		t.Errorf("K = %d", n.K())
	}
	if n.Q() != core.DefaultQ {
		t.Errorf("Q = %v, want DefaultQ", n.Q())
	}
	if n.Method().Name() != "centroids" {
		t.Errorf("Method = %q", n.Method().Name())
	}
	cls := n.Classification()
	if len(cls) != 1 || cls[0].Weight != 1 {
		t.Fatalf("initial classification = %v", cls)
	}
	if !cls[0].Aux.Equal(vec.Of(0, 0, 0, 1)) {
		t.Errorf("aux = %v", cls[0].Aux)
	}
	got := cls[0].Summary.(centroids.Centroid)
	if !got.Point.Equal(vec.Of(1, 2)) {
		t.Errorf("summary = %v", got)
	}
}

func TestNewNodeValidation(t *testing.T) {
	tests := []struct {
		name  string
		value vec.Vector
		cfg   core.Config
		ok    bool
	}{
		{"missing method", vec.Of(1), core.Config{K: 1}, false},
		{"K=0", vec.Of(1), cfg(0, 0), false},
		{"empty value", nil, cfg(1, 0), false},
		{"Q > 0.5", vec.Of(1), cfg(1, 0.7), false},
		{"Q not dividing 1", vec.Of(1), cfg(1, 0.3), false},
		{"negative Q", vec.Of(1), cfg(1, -0.25), false},
		{"Q=0.1 not a power of two", vec.Of(1), cfg(1, 0.1), false},
		{"Q=1/3 not a power of two", vec.Of(1), cfg(1, 1.0/3), false},
		{"Q=0.25", vec.Of(1), cfg(1, 0.25), true},
		{"Q=0.5", vec.Of(1), cfg(1, 0.5), true},
		{"Q=2^-30", vec.Of(1), cfg(1, 1.0/(1<<30)), true},
	}
	for _, tt := range tests {
		_, err := core.NewNode(0, tt.value, nil, tt.cfg)
		if (err == nil) != tt.ok {
			t.Errorf("%s: NewNode error = %v, want ok %v", tt.name, err, tt.ok)
		}
	}
}

func TestHalf(t *testing.T) {
	tests := []struct {
		w, q, want float64
	}{
		{1, 0.25, 0.5},
		{0.75, 0.25, 0.5},  // 0.375 rounds up to 0.5 (tie at 1.5 quanta)
		{0.25, 0.25, 0.25}, // w == q keeps everything (tie rounds away from zero)
		{0.5, 0.25, 0.25},
		{2, 0.5, 1},
		{1, 1.0 / 1024, 0.5},
	}
	for _, tt := range tests {
		if got := core.Half(tt.w, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Half(%v, %v) = %v, want %v", tt.w, tt.q, got, tt.want)
		}
	}
}

func TestSplitConservesWeightAndAux(t *testing.T) {
	n, err := core.NewNode(0, vec.Of(4, 0), vec.Of(1, 0), cfg(2, 0.25))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	out := n.Split()
	if len(out) != 1 {
		t.Fatalf("Split returned %d collections", len(out))
	}
	if w := n.Weight() + out.TotalWeight(); math.Abs(w-1) > 1e-12 {
		t.Errorf("total weight after split = %v, want 1", w)
	}
	if math.Abs(n.Weight()-0.5) > 1e-12 {
		t.Errorf("kept weight = %v, want 0.5", n.Weight())
	}
	// Aux scales with the weight ratio.
	keptAux := n.Classification()[0].Aux
	if !keptAux.ApproxEqual(vec.Of(0.5, 0), 1e-12) {
		t.Errorf("kept aux = %v", keptAux)
	}
	if !out[0].Aux.ApproxEqual(vec.Of(0.5, 0), 1e-12) {
		t.Errorf("sent aux = %v", out[0].Aux)
	}
	// Summaries unchanged by splitting.
	if !out[0].Summary.(centroids.Centroid).Point.Equal(vec.Of(4, 0)) {
		t.Errorf("sent summary = %v", out[0].Summary)
	}
}

func TestSplitAtQuantumKeepsEverything(t *testing.T) {
	n, err := core.NewNode(0, vec.Of(1), nil, cfg(2, 0.5))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	// First split: 1 -> 0.5 kept, 0.5 sent.
	out := n.Split()
	if len(out) != 1 || out.TotalWeight() != 0.5 {
		t.Fatalf("first split = %v", out)
	}
	// Second split: w == q == 0.5, half keeps all; nothing to send.
	out2 := n.Split()
	if len(out2) != 0 {
		t.Errorf("split at quantum should send nothing, got %v", out2)
	}
	if n.Weight() != 0.5 {
		t.Errorf("weight after quantum split = %v", n.Weight())
	}
}

func TestWeightsStayQuantized(t *testing.T) {
	const q = 1.0 / 256
	n, err := core.NewNode(0, vec.Of(1), nil, cfg(3, q))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	for i := 0; i < 20; i++ {
		n.Split()
		for _, c := range n.Classification() {
			mult := c.Weight / q
			if math.Abs(mult-math.Round(mult)) > 1e-9 {
				t.Fatalf("weight %v is not a multiple of q after %d splits", c.Weight, i+1)
			}
			if c.Weight < q-1e-12 {
				t.Fatalf("weight %v below quantum", c.Weight)
			}
		}
	}
}

func TestAbsorbMergesDownToK(t *testing.T) {
	n, err := core.NewNode(0, vec.Of(0, 0), nil, cfg(2, 0.25))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	mk := func(x, y, w float64) core.Classification {
		s, _ := centroids.Method{}.Summarize(vec.Of(x, y))
		return core.Classification{{Summary: s, Weight: w}}
	}
	// Three far-apart incoming collections + own = 4 collections, k = 2.
	err = n.Absorb(mk(10, 0, 1), mk(10.5, 0, 1), mk(0.5, 0, 1))
	if err != nil {
		t.Fatalf("Absorb: %v", err)
	}
	cls := n.Classification()
	if len(cls) != 2 {
		t.Fatalf("got %d collections, want 2: %v", len(cls), cls)
	}
	if math.Abs(n.Weight()-4) > 1e-12 {
		t.Errorf("weight = %v, want 4", n.Weight())
	}
	// The two clusters {0, 0.5} and {10, 10.5} should have merged.
	var nearOrigin, nearTen bool
	for _, c := range cls {
		p := c.Summary.(centroids.Centroid).Point
		switch {
		case math.Abs(p[0]-0.25) < 1e-9 && c.Weight == 2:
			nearOrigin = true
		case math.Abs(p[0]-10.25) < 1e-9 && c.Weight == 2:
			nearTen = true
		}
	}
	if !nearOrigin || !nearTen {
		t.Errorf("unexpected clusters: %v", cls)
	}
}

func TestAbsorbNothing(t *testing.T) {
	n, err := core.NewNode(0, vec.Of(1), nil, cfg(2, 0.25))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	if err := n.Absorb(); err != nil {
		t.Fatalf("Absorb(): %v", err)
	}
	if n.Len() != 1 || n.Weight() != 1 {
		t.Errorf("state changed by empty absorb: len=%d w=%v", n.Len(), n.Weight())
	}
}

func TestAbsorbAccumulatesAux(t *testing.T) {
	n, err := core.NewNode(0, vec.Of(0), vec.Of(1, 0), cfg(1, 0.25))
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	s, _ := centroids.Method{}.Summarize(vec.Of(2))
	in := core.Classification{{Summary: s, Weight: 1, Aux: vec.Of(0, 1)}}
	if err := n.Absorb(in); err != nil {
		t.Fatalf("Absorb: %v", err)
	}
	cls := n.Classification()
	if len(cls) != 1 {
		t.Fatalf("len = %d", len(cls))
	}
	if !cls[0].Aux.ApproxEqual(vec.Of(1, 1), 1e-12) {
		t.Errorf("aux = %v, want (1,1)", cls[0].Aux)
	}
	p := cls[0].Summary.(centroids.Centroid).Point
	if !p.ApproxEqual(vec.Of(1), 1e-12) {
		t.Errorf("merged centroid = %v, want (1)", p)
	}
}

func TestValidatePartition(t *testing.T) {
	tests := []struct {
		name   string
		groups [][]int
		n, k   int
		ok     bool
	}{
		{"valid", [][]int{{0, 2}, {1}}, 3, 2, true},
		{"too many groups", [][]int{{0}, {1}, {2}}, 3, 2, false},
		{"empty group", [][]int{{0, 1, 2}, {}}, 3, 2, false},
		{"missing index", [][]int{{0, 1}}, 3, 2, false},
		{"duplicate index", [][]int{{0, 1}, {1, 2}}, 3, 2, false},
		{"out of range", [][]int{{0, 3}, {1, 2}}, 3, 2, false},
		{"negative", [][]int{{-1, 0, 1, 2}}, 3, 2, false},
		{"no groups", nil, 3, 2, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := core.ValidatePartition(tt.groups, tt.n, tt.k)
			if (err == nil) != tt.ok {
				t.Errorf("ValidatePartition(%v) error = %v, want ok=%v", tt.groups, err, tt.ok)
			}
		})
	}
}

func TestClassificationClone(t *testing.T) {
	s, _ := centroids.Method{}.Summarize(vec.Of(1))
	cl := core.Classification{{Summary: s, Weight: 1, Aux: vec.Of(1, 0)}}
	cp := cl.Clone()
	cp[0].Aux[0] = 99
	cp[0].Weight = 5
	if cl[0].Aux[0] != 1 || cl[0].Weight != 1 {
		t.Errorf("Clone aliases original")
	}
}

func TestClassificationString(t *testing.T) {
	s, _ := centroids.Method{}.Summarize(vec.Of(1, 2))
	cl := core.Classification{{Summary: s, Weight: 0.5}, {Summary: s, Weight: 0.5}}
	str := cl.String()
	if !strings.Contains(str, "w=0.5") || !strings.Contains(str, "\n") {
		t.Errorf("String = %q", str)
	}
}

func TestDissimilarity(t *testing.T) {
	m := centroids.Method{}
	mk := func(x float64, w float64) core.Collection {
		s, _ := m.Summarize(vec.Of(x))
		return core.Collection{Summary: s, Weight: w}
	}
	a := core.Classification{mk(0, 1), mk(10, 1)}
	b := core.Classification{mk(0, 1), mk(10, 1)}
	d, err := core.Dissimilarity(a, b, m)
	if err != nil {
		t.Fatalf("Dissimilarity: %v", err)
	}
	if d != 0 {
		t.Errorf("identical classifications dissimilarity = %v", d)
	}
	c := core.Classification{mk(1, 1), mk(10, 1)}
	d2, _ := core.Dissimilarity(a, c, m)
	if math.Abs(d2-0.5) > 1e-12 {
		t.Errorf("dissimilarity = %v, want 0.5", d2)
	}
	// Empty handling.
	d3, _ := core.Dissimilarity(nil, nil, m)
	if d3 != 0 {
		t.Errorf("both empty = %v", d3)
	}
	d4, _ := core.Dissimilarity(a, nil, m)
	if !math.IsInf(d4, 1) {
		t.Errorf("one empty = %v, want +Inf", d4)
	}
}

func TestMaxReferenceAngles(t *testing.T) {
	s, _ := centroids.Method{}.Summarize(vec.Of(0))
	pool := []core.Collection{
		{Summary: s, Weight: 1, Aux: vec.Of(1, 0)},
		{Summary: s, Weight: 1, Aux: vec.Of(1, 1)},
	}
	angles, err := core.MaxReferenceAngles(pool)
	if err != nil {
		t.Fatalf("MaxReferenceAngles: %v", err)
	}
	// Axis 0: max angle is 45deg (from (1,1)); axis 1: max is 90deg (from (1,0)).
	if math.Abs(angles[0]-math.Pi/4) > 1e-9 {
		t.Errorf("angles[0] = %v, want pi/4", angles[0])
	}
	if math.Abs(angles[1]-math.Pi/2) > 1e-9 {
		t.Errorf("angles[1] = %v, want pi/2", angles[1])
	}
	if _, err := core.MaxReferenceAngles(nil); err == nil {
		t.Errorf("empty pool should error")
	}
	noAux := []core.Collection{{Summary: s, Weight: 1}}
	if _, err := core.MaxReferenceAngles(noAux); err == nil {
		t.Errorf("missing aux should error")
	}
}

// TestAuxiliaryCorrectnessLemma1 drives a random sequence of splits and
// absorbs across a small set of nodes with full mixture-space tracking
// and checks the two invariants of Lemma 1 after every operation:
// f(c.aux) == c.summary and ||c.aux||_1 == c.weight.
func TestAuxiliaryCorrectnessLemma1(t *testing.T) {
	const nNodes = 5
	r := rng.New(1234)
	inputs := make([]core.Value, nNodes)
	nodes := make([]*core.Node, nNodes)
	method := centroids.Method{}
	for i := range nodes {
		inputs[i] = vec.Of(r.UniformRange(-10, 10), r.UniformRange(-10, 10))
		aux := vec.New(nNodes)
		aux[i] = 1
		n, err := core.NewNode(i, inputs[i], aux, cfg(3, 1.0/1024))
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = n
	}
	var inflight []core.Classification
	check := func(step int) {
		t.Helper()
		var pool []core.Collection
		for _, n := range nodes {
			pool = append(pool, n.Classification()...)
		}
		for _, m := range inflight {
			pool = append(pool, m...)
		}
		var total float64
		for _, c := range pool {
			total += c.Weight
			if math.Abs(c.Aux.Norm1()-c.Weight) > 1e-9 {
				t.Fatalf("step %d: ||aux||_1 = %v != weight %v", step, c.Aux.Norm1(), c.Weight)
			}
			want, err := method.SummarizeAux(c.Aux, inputs)
			if err != nil {
				t.Fatalf("step %d: SummarizeAux: %v", step, err)
			}
			d, err := method.Distance(want, c.Summary)
			if err != nil {
				t.Fatalf("step %d: Distance: %v", step, err)
			}
			if d > 1e-9 {
				t.Fatalf("step %d: f(aux) differs from summary by %v", step, d)
			}
		}
		if math.Abs(total-nNodes) > 1e-9 {
			t.Fatalf("step %d: total weight %v, want %d", step, total, nNodes)
		}
	}
	check(0)
	for step := 1; step <= 300; step++ {
		if len(inflight) > 0 && r.Bool(0.5) {
			// Deliver a random in-flight message to a random node.
			mi := r.IntN(len(inflight))
			msg := inflight[mi]
			inflight = append(inflight[:mi], inflight[mi+1:]...)
			if err := nodes[r.IntN(nNodes)].Absorb(msg); err != nil {
				t.Fatalf("step %d: Absorb: %v", step, err)
			}
		} else {
			out := nodes[r.IntN(nNodes)].Split()
			if len(out) > 0 {
				inflight = append(inflight, out)
			}
		}
		check(step)
	}
}

// TestLemma2MonotoneAngles verifies that the per-axis maximal reference
// angle never increases over a random run (Lemma 2).
func TestLemma2MonotoneAngles(t *testing.T) {
	const nNodes = 4
	r := rng.New(77)
	nodes := make([]*core.Node, nNodes)
	for i := range nodes {
		aux := vec.New(nNodes)
		aux[i] = 1
		n, err := core.NewNode(i, vec.Of(r.UniformRange(-5, 5)), aux, cfg(2, 1.0/1024))
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		nodes[i] = n
	}
	var inflight []core.Classification
	pool := func() []core.Collection {
		var p []core.Collection
		for _, n := range nodes {
			p = append(p, n.Classification()...)
		}
		for _, m := range inflight {
			p = append(p, m...)
		}
		return p
	}
	prev, err := core.MaxReferenceAngles(pool())
	if err != nil {
		t.Fatalf("MaxReferenceAngles: %v", err)
	}
	for step := 0; step < 400; step++ {
		if len(inflight) > 0 && r.Bool(0.6) {
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
		cur, err := core.MaxReferenceAngles(pool())
		if err != nil {
			t.Fatalf("MaxReferenceAngles: %v", err)
		}
		for i := range cur {
			if cur[i] > prev[i]+1e-9 {
				t.Fatalf("step %d: axis %d angle grew from %v to %v", step, i, prev[i], cur[i])
			}
		}
		prev = cur
	}
}

// TestPropertyWeightConservation checks that any random interleaving of
// splits and absorbs conserves total system weight exactly.
func TestPropertyWeightConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nNodes := 2 + r.IntN(5)
		nodes := make([]*core.Node, nNodes)
		for i := range nodes {
			n, err := core.NewNode(i, vec.Of(r.UniformRange(-5, 5)), nil, cfg(1+r.IntN(3), 1.0/4096))
			if err != nil {
				return false
			}
			nodes[i] = n
		}
		var inflight []core.Classification
		for step := 0; step < 100; step++ {
			if len(inflight) > 0 && r.Bool(0.5) {
				mi := r.IntN(len(inflight))
				msg := inflight[mi]
				inflight = append(inflight[:mi], inflight[mi+1:]...)
				if err := nodes[r.IntN(nNodes)].Absorb(msg); err != nil {
					return false
				}
			} else {
				out := nodes[r.IntN(nNodes)].Split()
				if len(out) > 0 {
					inflight = append(inflight, out)
				}
			}
		}
		var total float64
		for _, n := range nodes {
			total += n.Weight()
		}
		for _, m := range inflight {
			total += m.TotalWeight()
		}
		return math.Abs(total-float64(nNodes)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyKBoundRespected checks that no node ever exceeds k
// collections after an absorb.
func TestPropertyKBoundRespected(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := 1 + r.IntN(4)
		nNodes := 3 + r.IntN(4)
		nodes := make([]*core.Node, nNodes)
		for i := range nodes {
			n, err := core.NewNode(i, vec.Of(r.UniformRange(-5, 5), r.UniformRange(-5, 5)), nil, cfg(k, 1.0/4096))
			if err != nil {
				return false
			}
			nodes[i] = n
		}
		for step := 0; step < 60; step++ {
			src, dst := r.IntN(nNodes), r.IntN(nNodes)
			if src == dst {
				continue
			}
			out := nodes[src].Split()
			if len(out) == 0 {
				continue
			}
			if err := nodes[dst].Absorb(out); err != nil {
				return false
			}
			if nodes[dst].Len() > k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertySplitPreservesSummaries checks that splitting changes
// only weights: the kept and sent collections carry the same summaries
// as before, in order.
func TestPropertySplitPreservesSummaries(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, err := core.NewNode(0, vec.Of(r.UniformRange(-5, 5)), nil, cfg(3, 1.0/1024))
		if err != nil {
			return false
		}
		// Grow a few collections by absorbing far-apart values.
		for i := 0; i < 2; i++ {
			s, err := centroids.Method{}.Summarize(vec.Of(r.UniformRange(20*float64(i+1), 20*float64(i+1)+1)))
			if err != nil {
				return false
			}
			if err := n.Absorb(core.Classification{{Summary: s, Weight: 1}}); err != nil {
				return false
			}
		}
		before := n.Classification()
		sent := n.Split()
		after := n.Classification()
		if len(after) != len(before) {
			return false
		}
		m := centroids.Method{}
		for i := range before {
			d, err := m.Distance(before[i].Summary, after[i].Summary)
			if err != nil || d != 0 {
				return false
			}
		}
		for _, c := range sent {
			found := false
			for _, b := range before {
				if d, err := m.Distance(c.Summary, b.Summary); err == nil && d == 0 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDissimilaritySymmetric checks the diagnostic's symmetry.
func TestDissimilaritySymmetric(t *testing.T) {
	m := centroids.Method{}
	mk := func(x, w float64) core.Collection {
		s, err := m.Summarize(vec.Of(x))
		if err != nil {
			t.Fatalf("Summarize: %v", err)
		}
		return core.Collection{Summary: s, Weight: w}
	}
	a := core.Classification{mk(0, 1), mk(5, 2)}
	b := core.Classification{mk(1, 3)}
	ab, err := core.Dissimilarity(a, b, m)
	if err != nil {
		t.Fatalf("Dissimilarity: %v", err)
	}
	ba, err := core.Dissimilarity(b, a, m)
	if err != nil {
		t.Fatalf("Dissimilarity: %v", err)
	}
	if ab != ba {
		t.Errorf("asymmetric: %v vs %v", ab, ba)
	}
}
