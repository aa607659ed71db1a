// Scratch-reuse safety: split and absorb run on node-owned scratch
// buffers (the kept/cls double buffer, the union buffer, the member
// buffer). These tests pin the two contracts that make that reuse
// sound: outgoing messages never alias node state, and a failed absorb
// leaves the node's classification untouched. The benchmarks are the
// allocs/op regression guard driven by `make bench`.
package core_test

import (
	"strings"
	"testing"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/rng"
	"distclass/internal/vec"
)

// churn runs rounds of split/absorb between two nodes, the pattern
// that cycles every scratch buffer.
func churn(t *testing.T, a, b *core.Node, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if out := a.Split(); len(out) > 0 {
			if err := b.Absorb(out); err != nil {
				t.Fatalf("round %d: b.Absorb: %v", i, err)
			}
		}
		if out := b.Split(); len(out) > 0 {
			if err := a.Absorb(out); err != nil {
				t.Fatalf("round %d: a.Absorb: %v", i, err)
			}
		}
	}
}

// TestSplitOutputNotAliased pins that the classification Split hands
// to the transport is immune to the sender's subsequent operations: a
// frame can sit in a queue across many of the sender's split/absorb
// cycles and still deliver the weights it was stamped with.
func TestSplitOutputNotAliased(t *testing.T) {
	r := rng.New(7)
	mk := func(id int) *core.Node {
		n, err := core.NewNode(id, randVec(r, 3), nil, cfg(4, 0))
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		return n
	}
	a, b := mk(0), mk(1)
	churn(t, a, b, 8) // populate multiple collections per node

	out := a.Split()
	if len(out) == 0 {
		t.Fatal("split sent nothing")
	}
	frozen := out.Clone()

	// The frame "sits in a queue" while the sender keeps working,
	// cycling its scratch buffers many times over.
	churn(t, a, b, 32)

	if len(out) != len(frozen) {
		t.Fatalf("queued frame changed length: %d, want %d", len(out), len(frozen))
	}
	for i := range out {
		if out[i].Weight != frozen[i].Weight {
			t.Errorf("collection %d weight mutated: %v, want %v", i, out[i].Weight, frozen[i].Weight)
		}
		got := out[i].Summary.(centroids.Centroid)
		want := frozen[i].Summary.(centroids.Centroid)
		if !got.Point.Equal(want.Point) {
			t.Errorf("collection %d summary mutated: %v, want %v", i, got.Point, want.Point)
		}
	}
}

// failingMethod wraps centroids but fails Merge while the shared flag
// is raised, to drive absorb's mid-loop error path.
type failingMethod struct {
	centroids.Method
	failNow *bool
}

func (m failingMethod) Merge(cs []core.Collection) (core.Summary, error) {
	if *m.failNow {
		return nil, errFail
	}
	return m.Method.Merge(cs)
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "injected merge failure" }

// TestAbsorbErrorLeavesStateIntact pins absorb's error contract: when
// a merge fails mid-partition, the node's classification is exactly
// what it was before the call — the next classification is built in
// the dead half of the double buffer, never in place.
func TestAbsorbErrorLeavesStateIntact(t *testing.T) {
	failNow := false
	m := failingMethod{failNow: &failNow}
	n, err := core.NewNode(0, vec.Of(0, 0), nil, core.Config{Method: m, K: 2})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	// Give the node several collections so a failing absorb has real
	// state to corrupt.
	for i := 0; i < 3; i++ {
		in := core.Classification{{
			Summary: centroids.Centroid{Point: vec.Of(float64(10*i), 1)},
			Weight:  0.5,
		}}
		if err := n.Absorb(in); err != nil {
			t.Fatalf("setup Absorb: %v", err)
		}
	}
	before := n.Classification()
	weight := n.Weight()

	failNow = true
	bad := core.Classification{
		{Summary: centroids.Centroid{Point: vec.Of(0.01, 1)}, Weight: 0.25},
		{Summary: centroids.Centroid{Point: vec.Of(10.01, 1)}, Weight: 0.25},
	}
	errAbsorb := n.Absorb(bad)
	if errAbsorb == nil || !strings.Contains(errAbsorb.Error(), "injected merge failure") {
		t.Fatalf("absorb error = %v, want injected merge failure", errAbsorb)
	}

	after := n.Classification()
	if n.Weight() != weight {
		t.Errorf("failed absorb changed weight: %v, want %v", n.Weight(), weight)
	}
	if len(after) != len(before) {
		t.Fatalf("failed absorb changed classification size: %d, want %d", len(after), len(before))
	}
	for i := range after {
		if after[i].Weight != before[i].Weight {
			t.Errorf("collection %d weight: %v, want %v", i, after[i].Weight, before[i].Weight)
		}
		got := after[i].Summary.(centroids.Centroid)
		want := before[i].Summary.(centroids.Centroid)
		if !got.Point.Equal(want.Point) {
			t.Errorf("collection %d summary: %v, want %v", i, got.Point, want.Point)
		}
	}
}

// BenchmarkSplitAbsorbCycle measures the steady-state gossip exchange
// two nodes sustain: one split and one absorb per direction. After the
// scratch-reuse work the only allocation per cycle is the outgoing
// classification itself (it escapes to the transport) plus whatever
// the method's partition needs.
func BenchmarkSplitAbsorbCycle(b *testing.B) {
	r := rng.New(11)
	mk := func(id int) *core.Node {
		n, err := core.NewNode(id, randVec(r, 8), nil, cfg(8, 0))
		if err != nil {
			b.Fatalf("NewNode: %v", err)
		}
		return n
	}
	x, y := mk(0), mk(1)
	// Warm both nodes to steady-state collection counts.
	for i := 0; i < 16; i++ {
		if out := x.Split(); len(out) > 0 {
			if err := y.Absorb(out); err != nil {
				b.Fatal(err)
			}
		}
		if out := y.Split(); len(out) > 0 {
			if err := x.Absorb(out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := x.Split(); len(out) > 0 {
			if err := y.Absorb(out); err != nil {
				b.Fatal(err)
			}
		}
		if out := y.Split(); len(out) > 0 {
			if err := x.Absorb(out); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestSplitAbsorbAllocs pins a warm centroids exchange on one node to
// the allocations that escape it: the outgoing half of the split, the
// groups Partition returns (two allocations), and each merged summary
// (a mean vector and its interface box, at most k of them).
func TestSplitAbsorbAllocs(t *testing.T) {
	const k = 2
	r := rng.New(5)
	n, err := core.NewNode(0, randVec(r, 2), nil, cfg(k, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		in := core.Classification{{Summary: centroids.Centroid{Point: randVec(r, 2)}, Weight: 1}}
		if err := n.Absorb(in); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() {
		out := n.Split()
		if len(out) == 0 {
			t.Fatal("split sent nothing")
		}
		if err := n.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 1+2+2*k {
		t.Errorf("split+absorb: %v allocs, want <= %d", allocs, 1+2+2*k)
	}
}
