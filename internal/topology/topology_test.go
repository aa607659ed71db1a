package topology

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"distclass/internal/rng"
)

// neighbors collects node i's neighbors through the accessors, in
// ascending order.
func neighbors(g *Graph, i int) []int {
	out := make([]int, g.Degree(i))
	for r := range out {
		out[r] = g.Neighbor(i, r)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name  string
		n     int
		edges [][2]int
	}{
		{"non-positive n", 0, nil},
		{"out of range", 2, [][2]int{{0, 2}}},
		{"negative node", 2, [][2]int{{-1, 0}}},
		{"self loop", 2, [][2]int{{1, 1}}},
		{"duplicate", 3, [][2]int{{0, 1}, {1, 0}}},
		{"duplicate among others", 5, [][2]int{{0, 1}, {2, 3}, {1, 2}, {4, 0}, {3, 2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.n, tt.edges); err == nil {
				t.Errorf("New(%d, %v) should error", tt.n, tt.edges)
			}
		})
	}
}

func TestNewBasics(t *testing.T) {
	g, err := New(4, [][2]int{{0, 1}, {2, 1}, {2, 3}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if g.N() != 4 {
		t.Errorf("N = %d", g.N())
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
	if nbrs := neighbors(g, 1); !reflect.DeepEqual(nbrs, []int{0, 2}) {
		t.Errorf("neighbors of 1 = %v, want [0 2]", nbrs)
	}
	if g.Degree(3) != 1 {
		t.Errorf("Degree(3) = %d", g.Degree(3))
	}
}

func TestIsConnected(t *testing.T) {
	path, _ := New(3, [][2]int{{0, 1}, {1, 2}})
	if !path.IsConnected() {
		t.Errorf("path should be connected")
	}
	split, _ := New(4, [][2]int{{0, 1}, {2, 3}})
	if split.IsConnected() {
		t.Errorf("two components should not be connected")
	}
	single, _ := New(1, nil)
	if !single.IsConnected() {
		t.Errorf("singleton should be connected")
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    func() (*Graph, error)
		want int
	}{
		{"full 5", func() (*Graph, error) { return Full(5) }, 1},
		{"ring 6", func() (*Graph, error) { return Ring(6) }, 3},
		{"path 4", func() (*Graph, error) { return New(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}) }, 3},
		{"star 7", func() (*Graph, error) { return Star(7) }, 2},
		{"singleton", func() (*Graph, error) { return New(1, nil) }, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := tt.g()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			got, err := g.Diameter()
			if err != nil {
				t.Fatalf("Diameter: %v", err)
			}
			if got != tt.want {
				t.Errorf("Diameter = %d, want %d", got, tt.want)
			}
		})
	}
	split, _ := New(2, nil)
	if _, err := split.Diameter(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("Diameter of disconnected = %v, want ErrDisconnected", err)
	}
}

func TestFull(t *testing.T) {
	g, err := Full(6)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	if g.EdgeCount() != 15 {
		t.Errorf("EdgeCount = %d, want 15", g.EdgeCount())
	}
	for i := 0; i < 6; i++ {
		if g.Degree(i) != 5 {
			t.Errorf("Degree(%d) = %d, want 5", i, g.Degree(i))
		}
	}
}

// TestFullMatchesNew pins the implicit complete graph against the one
// built from its edge list, through every accessor.
func TestFullMatchesNew(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 257} {
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
		want, err := New(n, edges)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		got, err := Full(n)
		if err != nil {
			t.Fatalf("Full(%d): %v", n, err)
		}
		if got.N() != n || got.EdgeCount() != want.EdgeCount() || got.IsConnected() != want.IsConnected() {
			t.Errorf("Full(%d): N %d, edges %d, connected %v; New over all pairs: edges %d, connected %v",
				n, got.N(), got.EdgeCount(), got.IsConnected(), want.EdgeCount(), want.IsConnected())
		}
		gd, gerr := got.Diameter()
		wd, werr := want.Diameter()
		if gd != wd || gerr != nil || werr != nil {
			t.Errorf("Full(%d): diameter %d (%v), New over all pairs %d (%v)", n, gd, gerr, wd, werr)
		}
		for i := 0; i < n; i++ {
			if got.Degree(i) != want.Degree(i) {
				t.Fatalf("Full(%d): node %d degree %d, want %d", n, i, got.Degree(i), want.Degree(i))
			}
			for r := range want.Degree(i) {
				if got.Neighbor(i, r) != want.Neighbor(i, r) {
					t.Fatalf("Full(%d): node %d neighbor %d is %d, want %d", n, i, r, got.Neighbor(i, r), want.Neighbor(i, r))
				}
			}
		}
	}
	if _, err := Full(0); err == nil {
		t.Error("Full(0) accepted")
	}
}

// TestFullBytesFlat pins the complete graph at O(1) memory: a million
// nodes cost one small struct, not n(n-1) neighbor ids.
func TestFullBytesFlat(t *testing.T) {
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < calls; k++ {
		if _, err := Full(1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1024 {
		t.Errorf("Full(1_000_000) allocates %d B per call, want under 1 KiB", per)
	}
}

func TestRing(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 10} {
		g, err := Ring(n)
		if err != nil {
			t.Fatalf("Ring(%d): %v", n, err)
		}
		if !g.IsConnected() {
			t.Errorf("Ring(%d) not connected", n)
		}
		if n >= 3 {
			for i := 0; i < n; i++ {
				if g.Degree(i) != 2 {
					t.Errorf("Ring(%d) degree(%d) = %d", n, i, g.Degree(i))
				}
			}
		}
	}
	if _, err := Ring(0); err == nil {
		t.Errorf("Ring(0) should error")
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(3, 4)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if g.N() != 12 || !g.IsConnected() {
		t.Errorf("Grid(3,4): N=%d connected=%v", g.N(), g.IsConnected())
	}
	// Edges: 3*3 horizontal rows (3 rows x 3) + 2*4 vertical = 9 + 8 = 17.
	if g.EdgeCount() != 17 {
		t.Errorf("Grid(3,4) edges = %d, want 17", g.EdgeCount())
	}
	// Corner degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Errorf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(5) != 4 {
		t.Errorf("interior degree = %d", g.Degree(5))
	}
	if _, err := Grid(0, 3); err == nil {
		t.Errorf("Grid(0,3) should error")
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(3, 4)
	if err != nil {
		t.Fatalf("Torus: %v", err)
	}
	for i := 0; i < g.N(); i++ {
		if g.Degree(i) != 4 {
			t.Errorf("Torus degree(%d) = %d, want 4", i, g.Degree(i))
		}
	}
	if _, err := Torus(2, 4); err == nil {
		t.Errorf("Torus(2,4) should error")
	}
}

func TestStar(t *testing.T) {
	g, err := Star(5)
	if err != nil {
		t.Fatalf("Star: %v", err)
	}
	if g.Degree(0) != 4 {
		t.Errorf("center degree = %d", g.Degree(0))
	}
	for i := 1; i < 5; i++ {
		if g.Degree(i) != 1 {
			t.Errorf("leaf degree(%d) = %d", i, g.Degree(i))
		}
	}
	if _, err := Star(1); err == nil {
		t.Errorf("Star(1) should error")
	}
}

func TestTree(t *testing.T) {
	g, err := Tree(7)
	if err != nil {
		t.Fatalf("Tree: %v", err)
	}
	if !g.IsConnected() || g.EdgeCount() != 6 {
		t.Errorf("Tree(7): connected=%v edges=%d", g.IsConnected(), g.EdgeCount())
	}
	// Root has children 1 and 2.
	if nbrs := neighbors(g, 0); !reflect.DeepEqual(nbrs, []int{1, 2}) {
		t.Errorf("root neighbors = %v", nbrs)
	}
	if _, err := Tree(0); err == nil {
		t.Errorf("Tree(0) should error")
	}
}

func TestErdosRenyi(t *testing.T) {
	r := rng.New(5)
	g, err := ErdosRenyi(50, 0.2, r, 100)
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	if !g.IsConnected() {
		t.Errorf("ER graph not connected")
	}
	// Zero probability on n >= 2 can never connect.
	if _, err := ErdosRenyi(5, 0, r, 3); !errors.Is(err, ErrDisconnected) {
		t.Errorf("ER(p=0) error = %v, want ErrDisconnected", err)
	}
	if _, err := ErdosRenyi(0, 0.5, r, 1); err == nil {
		t.Errorf("ER(n=0) should error")
	}
}

func TestGeometric(t *testing.T) {
	r := rng.New(6)
	g, err := Geometric(60, 0.35, r, 100)
	if err != nil {
		t.Fatalf("Geometric: %v", err)
	}
	if !g.IsConnected() {
		t.Errorf("geometric graph not connected")
	}
	if _, err := Geometric(30, 0.001, r, 2); !errors.Is(err, ErrDisconnected) {
		t.Errorf("tiny radius error = %v, want ErrDisconnected", err)
	}
	if _, err := Geometric(5, 0, r, 1); err == nil {
		t.Errorf("radius 0 should error")
	}
	if _, err := Geometric(0, 0.5, r, 1); err == nil {
		t.Errorf("n=0 should error")
	}
}

func TestRegular(t *testing.T) {
	r := rng.New(9)
	const n, d = 200, 8
	g, err := Regular(n, d, r, 10)
	if err != nil {
		t.Fatalf("Regular: %v", err)
	}
	if !g.IsConnected() {
		t.Errorf("regular graph not connected")
	}
	// Every node drew d partners, so no node is isolated and the total
	// edge count cannot exceed the n*d draw budget (duplicates only
	// shrink it).
	for i := 0; i < n; i++ {
		if g.Degree(i) < 1 {
			t.Errorf("node %d is isolated", i)
		}
	}
	if m := g.EdgeCount(); m > n*d || m < n*d/2 {
		t.Errorf("edge count %d outside (%d, %d]", m, n*d/2, n*d)
	}
	// d >= n degrades to the full mesh.
	full, err := Regular(5, 10, r, 1)
	if err != nil {
		t.Fatalf("Regular(5, 10): %v", err)
	}
	if full.EdgeCount() != 10 {
		t.Errorf("Regular(5, 10) edges = %d, want the full mesh's 10", full.EdgeCount())
	}
	if _, err := Regular(0, 3, r, 1); err == nil {
		t.Errorf("n=0 should error")
	}
	if _, err := Regular(10, 0, r, 1); err == nil {
		t.Errorf("d=0 should error")
	}
}

// regularMap is Regular as it was built before the adjacency was
// filled directly: the draws deduplicated through an edge map into an
// edge list for New. It is the oracle for TestRegularMatchesMapOracle.
func regularMap(n, d int, r *rng.RNG, maxTries int) (*Graph, error) {
	if d >= n {
		return Full(n)
	}
	for try := 0; try < maxTries; try++ {
		seen := make(map[[2]int]bool, n*d)
		edges := make([][2]int, 0, n*d)
		for i := 0; i < n; i++ {
			for picked := 0; picked < d; {
				j := r.IntN(n)
				if j == i {
					continue
				}
				u, v := i, j
				if u > v {
					u, v = v, u
				}
				key := [2]int{u, v}
				picked++ // a duplicate draw still consumes the slot
				if seen[key] {
					continue
				}
				seen[key] = true
				edges = append(edges, key)
			}
		}
		g, err := New(n, edges)
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, ErrDisconnected
}

// TestRegularMatchesMapOracle pins Regular to the map-deduplicated
// construction: the same neighbor lists and the same RNG state after,
// over sizes, degrees (d = 1 and 2 often need resampling) and seeds.
func TestRegularMatchesMapOracle(t *testing.T) {
	for _, n := range []int{2, 3, 10, 64, 500} {
		for _, d := range []int{1, 2, 3, 8} {
			for seed := uint64(1); seed <= 4; seed++ {
				r, ro := rng.New(seed), rng.New(seed)
				g, err := Regular(n, d, r, 5)
				want, errWant := regularMap(n, d, ro, 5)
				if (err != nil) != (errWant != nil) {
					t.Fatalf("n=%d d=%d seed=%d: error %v, oracle %v", n, d, seed, err, errWant)
				}
				if next, nextWant := r.Uint64(), ro.Uint64(); next != nextWant {
					t.Fatalf("n=%d d=%d seed=%d: RNG diverged from the oracle's", n, d, seed)
				}
				if err != nil {
					continue
				}
				for i := 0; i < n; i++ {
					if got, wantN := neighbors(g, i), neighbors(want, i); !reflect.DeepEqual(got, wantN) {
						t.Fatalf("n=%d d=%d seed=%d: node %d neighbors %v, oracle %v", n, d, seed, i, got, wantN)
					}
				}
			}
		}
	}
}

func TestBuildAllKinds(t *testing.T) {
	kinds := []Kind{KindFull, KindRing, KindGrid, KindTorus, KindStar, KindTree, KindER, KindGeometric, KindRegular}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			r := rng.New(7)
			g, err := Build(kind, 16, r)
			if err != nil {
				t.Fatalf("Build(%s, 16): %v", kind, err)
			}
			if g.N() != 16 {
				t.Errorf("N = %d, want 16", g.N())
			}
			if !g.IsConnected() {
				t.Errorf("Build(%s) not connected", kind)
			}
		})
	}
	if _, err := Build("nope", 4, rng.New(1)); err == nil {
		t.Errorf("unknown kind should error")
	}
	if _, err := Build(KindTorus, 6, rng.New(1)); err == nil {
		t.Errorf("torus with n=6 should error (sides < 3)")
	}
}

func TestBuildSingletons(t *testing.T) {
	for _, kind := range []Kind{KindER, KindGeometric} {
		g, err := Build(kind, 1, rng.New(2))
		if err != nil {
			t.Fatalf("Build(%s, 1): %v", kind, err)
		}
		if g.N() != 1 || !g.IsConnected() {
			t.Errorf("Build(%s, 1) bad graph", kind)
		}
	}
}

func TestNearSquare(t *testing.T) {
	tests := []struct {
		n, rows, cols int
	}{
		{16, 4, 4}, {12, 3, 4}, {7, 1, 7}, {1, 1, 1}, {100, 10, 10},
	}
	for _, tt := range tests {
		rows, cols := nearSquare(tt.n)
		if rows != tt.rows || cols != tt.cols {
			t.Errorf("nearSquare(%d) = (%d, %d), want (%d, %d)", tt.n, rows, cols, tt.rows, tt.cols)
		}
		if rows*cols != tt.n {
			t.Errorf("nearSquare(%d) does not factor n", tt.n)
		}
	}
}

func TestPropertyHandshake(t *testing.T) {
	// Sum of degrees equals twice the edge count for random ER graphs.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(30)
		g, err := ErdosRenyi(n, 0.5, r, 50)
		if err != nil {
			// p=0.5 might fail to connect for tiny n; treat as vacuous.
			return errors.Is(err, ErrDisconnected)
		}
		var sum int
		for i := 0; i < n; i++ {
			sum += g.Degree(i)
		}
		return sum == 2*g.EdgeCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyNeighborsSymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(20)
		g, err := ErdosRenyi(n, 0.4, r, 50)
		if err != nil {
			return errors.Is(err, ErrDisconnected)
		}
		for u := 0; u < n; u++ {
			for _, v := range neighbors(g, u) {
				if !slices.Contains(neighbors(g, v), u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiameterTorusAndGeometric(t *testing.T) {
	torus, err := Torus(4, 4)
	if err != nil {
		t.Fatalf("Torus: %v", err)
	}
	d, err := torus.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	// 4x4 torus: max wrap distance 2+2.
	if d != 4 {
		t.Errorf("torus diameter = %d, want 4", d)
	}
	r := rng.New(71)
	geo, err := Geometric(40, 0.45, r, 50)
	if err != nil {
		t.Fatalf("Geometric: %v", err)
	}
	gd, err := geo.Diameter()
	if err != nil {
		t.Fatalf("Diameter: %v", err)
	}
	if gd < 1 || gd > 39 {
		t.Errorf("geometric diameter = %d", gd)
	}
}

// BenchmarkBuild prices graph set-up per rep: the implicit full mesh
// of the paper's figures at n = 1000, and the degree-8 regular graph
// of the 100k workloads.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		kind Kind
		n    int
	}{{"full_1k", KindFull, 1000}, {"regular_100k", KindRegular, 100_000}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				if _, err := Build(c.kind, c.n, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
