package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"distclass/internal/vec"
)

// meanSummary is a one-dimensional mean, enough of a summary to cycle
// every scratch buffer without importing a method package (which would
// import core back).
type meanSummary float64

func (meanSummary) Dim() int         { return 1 }
func (s meanSummary) String() string { return fmt.Sprintf("mean(%g)", float64(s)) }

// roundRobinMethod merges by weighted mean and partitions index i into
// group i mod k. Its flags make the next Partition fail, return an
// invalid partition, or make the next Merge fail.
type roundRobinMethod struct {
	failPartition, badPartition, failMerge *bool
}

var errPinTest = errors.New("injected failure")

func (roundRobinMethod) Name() string { return "round-robin-mean" }

func (roundRobinMethod) Summarize(v Value) (Summary, error) { return meanSummary(v[0]), nil }

func (m roundRobinMethod) Merge(cs []Collection) (Summary, error) {
	if *m.failMerge {
		return nil, errPinTest
	}
	var sum, w float64
	for _, c := range cs {
		sum += c.Weight * float64(c.Summary.(meanSummary))
		w += c.Weight
	}
	return meanSummary(sum / w), nil
}

func (m roundRobinMethod) Partition(cs []Collection, k int, _ float64) ([][]int, error) {
	if *m.failPartition {
		return nil, errPinTest
	}
	if *m.badPartition {
		return [][]int{{0}}, nil // leaves the rest of the union uncovered
	}
	groups := make([][]int, min(k, len(cs)))
	for i := range cs {
		groups[i%k] = append(groups[i%k], i)
	}
	return groups, nil
}

func (roundRobinMethod) Distance(a, b Summary) (float64, error) {
	return math.Abs(float64(a.(meanSummary)) - float64(b.(meanSummary))), nil
}

// TestScratchPinsNoSummary pins that the node's scratch buffers hold no
// summary past their length after a split or an absorb — on success
// and on every error path — so scratch capacity never keeps a
// superseded summary or the messages it was built from alive.
func TestScratchPinsNoSummary(t *testing.T) {
	var failPartition, badPartition, failMerge bool
	m := roundRobinMethod{failPartition: &failPartition, badPartition: &badPartition, failMerge: &failMerge}
	mk := func(id int) *Node {
		n, err := NewNode(id, vec.Of(float64(id)), vec.Of(1, 0), Config{Method: m, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	check := func(step string, n *Node) {
		t.Helper()
		bufs := []struct {
			name string
			buf  []Collection
		}{{"scratchKept", n.scratchKept}, {"scratchBig", n.scratchBig}, {"scratchMem", n.scratchMem}}
		for _, b := range bufs {
			for j, c := range b.buf[len(b.buf):cap(b.buf)] {
				if c.Summary != nil || c.Aux != nil {
					t.Fatalf("%s: %s[%d] past length %d still holds %v", step, b.name, len(b.buf)+j, len(b.buf), c.Summary)
				}
			}
		}
	}
	a, b := mk(0), mk(1)
	for round := 0; round < 12; round++ {
		for _, pair := range [][2]*Node{{a, b}, {b, a}} {
			src, dst := pair[0], pair[1]
			out := src.Split()
			check(fmt.Sprintf("round %d: node %d split", round, src.ID()), src)
			// Three absorbs in eight fail, one on each error path.
			mode := (round + src.ID()) % 8
			failPartition, badPartition, failMerge = mode == 1, mode == 3, mode == 5
			err := dst.Absorb(out, Classification{{Summary: meanSummary(round), Weight: 0.5}})
			if failing := failPartition || badPartition || failMerge; failing != (err != nil) {
				t.Fatalf("round %d: absorb error %v with failure injected = %v", round, err, failing)
			}
			check(fmt.Sprintf("round %d: node %d absorb (mode %d)", round, dst.ID(), mode), dst)
		}
	}
	failPartition, badPartition, failMerge = false, false, false
}
