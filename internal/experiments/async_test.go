package experiments

import (
	"math"
	"testing"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/gm"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/vec"
)

// classifierAgent runs a classification node on the generic async
// driver, which these tests need for Step, Drain and InFlight.
type classifierAgent struct {
	node *core.Node
}

func (a *classifierAgent) Emit() (core.Classification, bool) {
	out := a.node.Split()
	return out, len(out) > 0
}

func (a *classifierAgent) Receive(batch []core.Classification) error {
	return a.node.Absorb(batch...)
}

// TestAsyncDistributedConvergence is Theorem 1 as an executable check:
// under a fully asynchronous, randomly scheduled execution over several
// connected topologies, with per-message (not batched) delivery, all
// nodes' classifications converge to a common destination — for both
// published instantiations.
func TestAsyncDistributedConvergence(t *testing.T) {
	methods := []core.Method{centroids.Method{}, gm.Method{}}
	kinds := []topology.Kind{topology.KindFull, topology.KindRing, topology.KindStar, topology.KindGrid}
	for _, method := range methods {
		for _, kind := range kinds {
			t.Run(method.Name()+"/"+string(kind), func(t *testing.T) {
				const n = 12
				r := rng.New(101)
				graph, err := topology.Build(kind, n, r.Split())
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				values := bimodalDataset(n, r)
				nodes := make([]*core.Node, n)
				agents := make([]engine.Agent[core.Classification], n)
				for i := range nodes {
					node, err := core.NewNode(i, values[i], nil,
						core.Config{Method: method, K: 2, Q: 1.0 / 4096})
					if err != nil {
						t.Fatalf("NewNode: %v", err)
					}
					nodes[i] = node
					agents[i] = &classifierAgent{node: node}
				}
				async, err := engine.NewAsyncDriver(graph, agents, r.Split(), engine.Options[core.Classification]{})
				if err != nil {
					t.Fatalf("NewAsync: %v", err)
				}
				// Long random schedule, then drain in-flight messages.
				budget := 60000
				if kind == topology.KindRing {
					budget = 200000 // rings mix slowly
				}
				if err := async.RunSteps(budget, nil); err != nil {
					t.Fatalf("RunSteps: %v", err)
				}
				if err := async.Drain(); err != nil {
					t.Fatalf("Drain: %v", err)
				}

				// Weight conservation across the whole system.
				var total float64
				for _, node := range nodes {
					total += node.Weight()
				}
				if math.Abs(total-float64(n)) > 1e-9 {
					t.Errorf("total weight = %v, want %d", total, n)
				}

				// Common destination: every pair of nodes is close under
				// the method's summary distance.
				for i := 1; i < n; i++ {
					d, err := core.Dissimilarity(
						nodes[0].Classification(), nodes[i].Classification(), method)
					if err != nil {
						t.Fatalf("Dissimilarity: %v", err)
					}
					if d > 0.35 {
						t.Errorf("nodes 0 and %d disagree by %v", i, d)
					}
				}

				// The classification is meaningful: both cluster centers
				// appear in node 0's view.
				var sawLow, sawHigh bool
				for _, c := range nodes[0].Classification() {
					var mean vec.Vector
					switch s := c.Summary.(type) {
					case centroids.Centroid:
						mean = s.Point
					case gm.Summary:
						mean = s.G.Mean
					}
					switch {
					case math.Abs(mean[0]+4) < 1.5:
						sawLow = true
					case math.Abs(mean[0]-4) < 1.5:
						sawHigh = true
					}
				}
				if !sawLow || !sawHigh {
					t.Errorf("node 0 missing a cluster: %v", nodes[0].Classification())
				}
			})
		}
	}
}

// TestAsyncLemma2AcrossTopologies re-checks the monotone reference
// angle property (Lemma 2) on asynchronous runs with full mixture-space
// auxiliaries over non-trivial topologies.
func TestAsyncLemma2AcrossTopologies(t *testing.T) {
	for _, kind := range []topology.Kind{topology.KindRing, topology.KindStar} {
		t.Run(string(kind), func(t *testing.T) {
			const n = 6
			r := rng.New(103)
			graph, err := topology.Build(kind, n, r.Split())
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			values := bimodalDataset(n, r)
			nodes := make([]*core.Node, n)
			agents := make([]engine.Agent[core.Classification], n)
			for i := range nodes {
				aux := vec.New(n)
				aux[i] = 1
				node, err := core.NewNode(i, values[i], aux,
					core.Config{Method: gm.Method{}, K: 2, Q: 1.0 / 4096})
				if err != nil {
					t.Fatalf("NewNode: %v", err)
				}
				nodes[i] = node
				agents[i] = &classifierAgent{node: node}
			}
			async, err := engine.NewAsyncDriver(graph, agents, r.Split(), engine.Options[core.Classification]{})
			if err != nil {
				t.Fatalf("NewAsync: %v", err)
			}
			pool := func() []core.Collection {
				var p []core.Collection
				for _, node := range nodes {
					p = append(p, node.Classification()...)
				}
				return p
			}
			prev, err := core.MaxReferenceAngles(pool())
			if err != nil {
				t.Fatalf("MaxReferenceAngles: %v", err)
			}
			for step := 0; step < 3000; step++ {
				if err := async.Step(); err != nil {
					t.Fatalf("Step: %v", err)
				}
				if step%25 != 0 {
					continue
				}
				// Note: in-flight collections also belong to the pool; a
				// node-only pool can only shrink the max further, so the
				// monotonicity check remains sound between samples only
				// if we include them. Drain-free sampling: skip rounds
				// with in-flight mass.
				if async.InFlight() > 0 {
					continue
				}
				cur, err := core.MaxReferenceAngles(pool())
				if err != nil {
					t.Fatalf("MaxReferenceAngles: %v", err)
				}
				for i := range cur {
					if cur[i] > prev[i]+1e-9 {
						t.Fatalf("step %d: axis %d angle grew from %v to %v",
							step, i, prev[i], cur[i])
					}
				}
				prev = cur
			}
		})
	}
}
