// Package topology builds the communication graphs the simulator runs
// on. The paper's model (§3.1) only requires a static connected network;
// the convergence proof (§6) holds for any connected topology, so the
// test suite and ablation benches exercise a range of them: fully
// connected, ring, 2-D grid and torus, star, balanced tree, Erdős–Rényi
// random graphs, and random geometric graphs (the natural model of a
// radio sensor field).
//
// Graphs here are undirected and simple; the simulator derives the two
// directed channels of each edge. All generators return an error rather
// than a disconnected graph.
package topology

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"distclass/internal/rng"
)

// ErrDisconnected reports that a generated or provided graph is not
// connected.
var ErrDisconnected = errors.New("topology: graph is not connected")

// Graph is an undirected simple graph over nodes 0..n-1. Degree and
// Neighbor are the only way to read it: the complete graph stores no
// adjacency at all, every other graph a sorted list per node.
type Graph struct {
	n   int
	adj [][]int // sorted neighbor lists; nil on the complete graph
}

// New builds a graph from an edge list. Self-loops and duplicate edges
// are rejected. The adjacency lists share one backing array; duplicates
// show up as equal neighbors once each list is sorted.
func New(n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: n = %d must be positive", n)
	}
	deg := make([]int, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("topology: edge (%d, %d) out of range [0, %d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("topology: self-loop at node %d", u)
		}
		deg[u]++
		deg[v]++
	}
	flat := make([]int, 2*len(edges))
	adj := make([][]int, n)
	off := 0
	for i, d := range deg {
		adj[i] = flat[off : off : off+d]
		off += d
	}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for u, a := range adj {
		slices.Sort(a)
		for x := 1; x < len(a); x++ {
			if a[x] == a[x-1] {
				return nil, fmt.Errorf("topology: duplicate edge (%d, %d)", min(u, a[x]), max(u, a[x]))
			}
		}
	}
	return &Graph{n: n, adj: adj}, nil
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Degree returns the degree of node i.
func (g *Graph) Degree(i int) int {
	if g.adj == nil {
		return g.n - 1
	}
	return len(g.adj[i])
}

// Neighbor returns node i's r-th neighbor in ascending order, for
// 0 <= r < Degree(i). On the complete graph that is r below i and r+1
// from i on.
func (g *Graph) Neighbor(i, r int) int {
	if g.adj == nil {
		if r < i {
			return r
		}
		return r + 1
	}
	return g.adj[i][r]
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	if g.adj == nil {
		return g.n * (g.n - 1) / 2
	}
	var m int
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// IsConnected reports whether the graph is connected (true for n = 1).
func (g *Graph) IsConnected() bool {
	if g.n == 0 {
		return false
	}
	if g.adj == nil {
		return true
	}
	visited := make([]bool, g.n)
	queue := []int{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == g.n
}

// Diameter returns the longest shortest path in the graph, or an error
// if the graph is disconnected.
func (g *Graph) Diameter() (int, error) {
	if !g.IsConnected() {
		return 0, ErrDisconnected
	}
	if g.adj == nil {
		return min(g.n-1, 1), nil
	}
	var diam int
	dist := make([]int, g.n)
	for s := 0; s < g.n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					if dist[v] > diam {
						diam = dist[v]
					}
					queue = append(queue, v)
				}
			}
		}
	}
	return diam, nil
}

// Full returns the complete graph on n nodes (the paper's simulation
// topology, §5.3). It stores no adjacency: Degree, Neighbor and the
// whole-graph queries answer in closed form, so it takes O(1) memory
// at any n.
func Full(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: n = %d must be positive", n)
	}
	return &Graph{n: n}, nil
}

// Ring returns the cycle on n nodes (n >= 3), or the single edge for
// n = 2, or the singleton for n = 1.
func Ring(n int) (*Graph, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("topology: ring size %d must be positive", n)
	case n == 1:
		return New(1, nil)
	case n == 2:
		return New(2, [][2]int{{0, 1}})
	}
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return New(n, edges)
}

// Grid returns the rows x cols 2-D lattice.
func Grid(rows, cols int) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("topology: grid %dx%d must have positive sides", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return New(rows*cols, edges)
}

// Torus returns the rows x cols lattice with wraparound edges. Both
// sides must be at least 3 to keep the graph simple.
func Torus(rows, cols int) (*Graph, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("topology: torus %dx%d needs sides >= 3", rows, cols)
	}
	var edges [][2]int
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			edges = append(edges, [2]int{id(r, c), id(r, (c+1)%cols)})
			edges = append(edges, [2]int{id(r, c), id((r+1)%rows, c)})
		}
	}
	return New(rows*cols, edges)
}

// Star returns the star with node 0 at the center.
func Star(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star size %d must be at least 2", n)
	}
	edges := make([][2]int, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = [2]int{0, i}
	}
	return New(n, edges)
}

// Tree returns the complete binary tree on n nodes (heap ordering:
// node i's children are 2i+1 and 2i+2).
func Tree(n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: tree size %d must be positive", n)
	}
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{(i - 1) / 2, i})
	}
	return New(n, edges)
}

// ErdosRenyi samples G(n, p) until it is connected, up to maxTries
// attempts (ErrDisconnected if every attempt fails). p is clamped to
// [0, 1].
func ErdosRenyi(n int, p float64, r *rng.RNG, maxTries int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: n = %d must be positive", n)
	}
	if maxTries <= 0 {
		maxTries = 1
	}
	p = math.Max(0, math.Min(1, p))
	for try := 0; try < maxTries; try++ {
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Bool(p) {
					edges = append(edges, [2]int{i, j})
				}
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
	return nil, fmt.Errorf("topology: G(%d, %v) after %d tries: %w", n, p, maxTries, ErrDisconnected)
}

// Geometric samples a random geometric graph: n points uniform in the
// unit square, an edge whenever two points are within radius. It
// resamples until connected, up to maxTries attempts. This is the
// standard model of a sensor field with fixed radio range.
func Geometric(n int, radius float64, r *rng.RNG, maxTries int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: n = %d must be positive", n)
	}
	if radius <= 0 {
		return nil, fmt.Errorf("topology: radius %v must be positive", radius)
	}
	if maxTries <= 0 {
		maxTries = 1
	}
	r2 := radius * radius
	for try := 0; try < maxTries; try++ {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = r.Float64()
			ys[i] = r.Float64()
		}
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx, dy := xs[i]-xs[j], ys[i]-ys[j]
				if dx*dx+dy*dy <= r2 {
					edges = append(edges, [2]int{i, j})
				}
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
	return nil, fmt.Errorf("topology: geometric(%d, %v) after %d tries: %w", n, radius, maxTries, ErrDisconnected)
}

// Regular samples a sparse random graph of mean degree just under 2d:
// every node draws d random partners, and the union of the draws
// (deduplicated — i drawing j and j drawing i is one edge) forms the
// edge set. Construction is O(n·d) with no edge map: the draws fill
// the adjacency lists directly, duplicates included, and each list is
// then sorted and compacted. This makes it the sparse topology of
// choice at scales where the O(n²) generators (ER, geometric) are out
// of reach. It resamples until connected, up to maxTries
// attempts; for d >= 3 the first sample is connected with overwhelming
// probability.
func Regular(n, d int, r *rng.RNG, maxTries int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("topology: n = %d must be positive", n)
	}
	if d <= 0 {
		return nil, fmt.Errorf("topology: degree %d must be positive", d)
	}
	if d >= n {
		return Full(n)
	}
	if maxTries <= 0 {
		maxTries = 1
	}
	for try := 0; try < maxTries; try++ {
		// draws[i*d+s] is node i's s'th partner. A duplicate draw still
		// consumes its slot; it becomes an equal neighbor that the
		// compaction below removes.
		draws := make([]int, n*d)
		deg := make([]int, n)
		for i := 0; i < n; i++ {
			for s := 0; s < d; {
				j := r.IntN(n)
				if j == i {
					continue
				}
				draws[i*d+s] = j
				deg[i]++
				deg[j]++
				s++
			}
		}
		flat := make([]int, 2*n*d)
		adj := make([][]int, n)
		off := 0
		for i, k := range deg {
			adj[i] = flat[off : off : off+k]
			off += k
		}
		for i := 0; i < n; i++ {
			for _, j := range draws[i*d : (i+1)*d] {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
		for i, a := range adj {
			slices.Sort(a)
			adj[i] = slices.Clip(slices.Compact(a))
		}
		g := &Graph{n: n, adj: adj}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: regular(%d, %d) after %d tries: %w", n, d, maxTries, ErrDisconnected)
}

// Kind names a generator for CLI/bench parameterization.
type Kind string

// Supported topology kinds.
const (
	KindFull      Kind = "full"
	KindRing      Kind = "ring"
	KindGrid      Kind = "grid"
	KindTorus     Kind = "torus"
	KindStar      Kind = "star"
	KindTree      Kind = "tree"
	KindER        Kind = "er"
	KindGeometric Kind = "geometric"
	KindRegular   Kind = "regular"
)

// Build constructs a connected n-node graph of the given kind using
// sensible default parameters (grid/torus use the near-square factoring
// of n; ER uses p = 2 ln(n)/n; geometric uses radius sqrt(3 ln(n)/n);
// regular uses degree 8).
func Build(kind Kind, n int, r *rng.RNG) (*Graph, error) {
	switch kind {
	case KindFull:
		return Full(n)
	case KindRing:
		return Ring(n)
	case KindGrid:
		rows, cols := nearSquare(n)
		return Grid(rows, cols)
	case KindTorus:
		rows, cols := nearSquare(n)
		if rows < 3 || cols < 3 {
			return nil, fmt.Errorf("topology: torus needs n >= 9, got %d", n)
		}
		return Torus(rows, cols)
	case KindStar:
		return Star(n)
	case KindTree:
		return Tree(n)
	case KindER:
		if n == 1 {
			return New(1, nil)
		}
		p := 2 * math.Log(float64(n)) / float64(n)
		return ErdosRenyi(n, p, r, 100)
	case KindGeometric:
		if n == 1 {
			return New(1, nil)
		}
		radius := math.Sqrt(3 * math.Log(float64(n)) / float64(n))
		return Geometric(n, radius, r, 100)
	case KindRegular:
		if n == 1 {
			return New(1, nil)
		}
		return Regular(n, 8, r, 100)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q", kind)
	}
}

// nearSquare factors n into rows x cols with rows*cols == n and the
// sides as close as possible. Prime n degrades to 1 x n.
func nearSquare(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	for rows > 1 && n%rows != 0 {
		rows--
	}
	if rows < 1 {
		rows = 1
	}
	return rows, n / rows
}
