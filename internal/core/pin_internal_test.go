package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
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

// TestScratchPinsNoSummary pins that split leaves nothing past the
// length of the node's kept buffer, and that every absorb outcome —
// success, partition error, invalid partition and merge error — hands
// its scratch back holding no summary and no aux vector anywhere up to
// its capacity. The scratch goes back to a pool that any node's next
// absorb draws from, so a pinned entry would keep a superseded summary
// or the messages it was built from alive indefinitely.
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
	checkEmpty := func(step, name string, buf []Collection) {
		t.Helper()
		for j, c := range buf[:cap(buf)] {
			if j >= len(buf) && (c.Summary != nil || c.Aux != nil) {
				t.Fatalf("%s: %s[%d] past length %d still holds %v", step, name, j, len(buf), c.Summary)
			}
		}
	}
	// One scratch serves both nodes, as the pool would share it.
	var s absorbScratch
	outcomes := map[string]int{}
	a, b := mk(0), mk(1)
	for round := 0; round < 12; round++ {
		for _, pair := range [][2]*Node{{a, b}, {b, a}} {
			src, dst := pair[0], pair[1]
			out := src.Split()
			step := fmt.Sprintf("round %d: node %d split", round, src.ID())
			checkEmpty(step, "scratchKept", src.scratchKept)
			// Three absorbs in eight fail, one on each error path.
			mode := (round + src.ID()) % 8
			failPartition, badPartition, failMerge = mode == 1, mode == 3, mode == 5
			err := dst.absorbWith(&s, []Classification{out, {{Summary: meanSummary(round), Weight: 0.5, Aux: vec.Of(0, 1)}}})
			outcome := "success"
			switch {
			case failPartition:
				outcome = "partition error"
			case badPartition:
				outcome = "invalid partition"
			case failMerge:
				outcome = "merge error"
			}
			if (outcome == "success") != (err == nil) {
				t.Fatalf("round %d: absorb error %v with outcome %s", round, err, outcome)
			}
			outcomes[outcome]++
			step = fmt.Sprintf("round %d: node %d absorb (%s)", round, dst.ID(), outcome)
			checkEmpty(step, "scratchKept", dst.scratchKept)
			if len(s.big) != 0 || len(s.mem) != 0 {
				t.Fatalf("%s: scratch returned with union length %d, members length %d", step, len(s.big), len(s.mem))
			}
			checkEmpty(step, "union", s.big)
			checkEmpty(step, "members", s.mem)
		}
	}
	failPartition, badPartition, failMerge = false, false, false
	for _, o := range []string{"success", "partition error", "invalid partition", "merge error"} {
		if outcomes[o] == 0 {
			t.Errorf("no absorb ended in %s", o)
		}
	}
	if cap(s.big) == 0 || cap(s.mem) == 0 {
		t.Errorf("scratch never grew (union cap %d, members cap %d): nothing was checked", cap(s.big), cap(s.mem))
	}
}

// TestNodeFootprint pins that a node's memory is bounded by k, not by
// the largest batch it has absorbed: after a wide absorb and a split,
// no slice field of Node has capacity beyond 2k. The fields are
// enumerated by reflection, so a slice added to Node later is covered
// too.
func TestNodeFootprint(t *testing.T) {
	const k = 2
	var off bool
	m := roundRobinMethod{failPartition: &off, badPartition: &off, failMerge: &off}
	n, err := NewNode(0, vec.Of(0), nil, Config{Method: m, K: k})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Classification, 8)
	for i := range batch {
		batch[i] = Classification{
			{Summary: meanSummary(float64(i)), Weight: 1},
			{Summary: meanSummary(float64(-i)), Weight: 1},
		}
	}
	if err := n.Absorb(batch...); err != nil {
		t.Fatal(err)
	}
	if out := n.Split(); len(out) == 0 {
		t.Fatal("split sent nothing")
	}
	v := reflect.ValueOf(n).Elem()
	slices := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			continue
		}
		slices++
		if f.Cap() > 2*k {
			t.Errorf("Node.%s has capacity %d after a 16-collection absorb, want <= 2k = %d", v.Type().Field(i).Name, f.Cap(), 2*k)
		}
	}
	if slices == 0 {
		t.Fatal("Node has no slice fields: the footprint check checked nothing")
	}
}
