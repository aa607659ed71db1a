// White-box pins for the shard scheduler's quantum: a quantum ticks at
// most sliceNodes nodes from the shard's cursor and flushes its
// cross-shard batches before it releases the pause lock, and a sweep
// of quanta ticks every alive local node exactly once.
package engine

import (
	"fmt"
	"testing"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// sendCounter counts send events per node. In push mode every tick of
// a node with an alive neighbor sends exactly once, so the counts are
// tick counts. The test drives the quanta itself, on one goroutine.
type sendCounter []int

func (c sendCounter) Record(e trace.Event) error {
	if e.Kind == trace.KindSend {
		c[e.Node]++
	}
	return nil
}

// TestShardSweep drives two shards of four slices each quantum by
// quantum, interleaved so each drains frames the other flushed, and
// checks at every exclusive-lock boundary what Kill, Restart and Stop
// rely on: no out-batch holds a frame, and the cursor stands at the
// start of the next slice or, after the last one, wrapped to lo.
// Over each sweep every alive node is ticked exactly once, and nodes
// killed before the sweep or mid-sweep (ahead of the cursor) never.
func TestShardSweep(t *testing.T) {
	const (
		n      = 1800 // two shards of 900 nodes: slices of 256, 256, 256, 132
		sweeps = 2
	)
	r := rng.New(11)
	values := make([]core.Value, n)
	for i := range values {
		values[i] = core.Value{r.Normal(0, 1), r.Normal(0, 1)}
	}
	graph, err := topology.Build(topology.KindRegular, n, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	nodeCfg := core.Config{Method: centroids.Method{}, K: 2}
	nodes := make([]*core.Node, n)
	for i, v := range values {
		if nodes[i], err = core.NewNode(i, v, nil, nodeCfg); err != nil {
			t.Fatal(err)
		}
	}
	ticks := make(sendCounter, n)
	cfg := Config{
		Backend: BackendShard, Method: nodeCfg.Method, Values: values,
		Shards: 2, Trace: ticks,
	}.withDefaults()
	// The workers are never started: the test is the only scheduler.
	e := newShardEngine(cfg, graph, nodes, nodeCfg, r)
	defer e.Stop()
	if len(e.shards) != 2 || e.shards[0].hi != 900 {
		t.Fatalf("shards %d, first ends at %d; want 2 of 900 nodes", len(e.shards), e.shards[0].hi)
	}

	dead := []int{5, 300, 899, 901} // killed before the first sweep
	for _, v := range dead {
		if _, err := e.Kill(v); err != nil {
			t.Fatalf("Kill(%d): %v", v, err)
		}
	}
	// Killed mid-sweep, after each shard's first slice, ahead of the
	// cursor: never ticked.
	midSweep := map[int]int{0: 700, 1: 1799}

	for sweep := 1; sweep <= sweeps; sweep++ {
		quanta := make([]int, len(e.shards))
		wrapped := make([]bool, len(e.shards))
		for done := 0; done < len(e.shards); {
			for si, s := range e.shards {
				if wrapped[si] {
					continue
				}
				e.pauseMu.RLock()
				w := e.quantum(s)
				e.pauseMu.RUnlock()
				quanta[si]++

				e.pauseMu.Lock()
				msg := boundaryViolation(e, s, quanta[si], w)
				e.pauseMu.Unlock()
				if msg != "" {
					t.Fatalf("sweep %d: shard %d after quantum %d: %s", sweep, si, quanta[si], msg)
				}

				if w {
					wrapped[si] = true
					done++
				}
				if v, ok := midSweep[si]; ok && sweep == 1 && quanta[si] == 1 {
					if _, err := e.Kill(v); err != nil {
						t.Fatalf("Kill(%d): %v", v, err)
					}
					dead = append(dead, v)
				}
			}
		}
		for si, s := range e.shards {
			if want := (s.hi - s.lo + sliceNodes - 1) / sliceNodes; quanta[si] != want {
				t.Errorf("sweep %d: shard %d took %d quanta, want %d", sweep, si, quanta[si], want)
			}
		}
		isDead := make(map[int]bool, len(dead))
		for _, v := range dead {
			isDead[v] = true
		}
		for i, got := range ticks {
			want := sweep
			if isDead[i] {
				want = 0
			}
			if got != want {
				t.Fatalf("after sweep %d: node %d (dead %v) ticked %d times, want %d", sweep, i, isDead[i], got, want)
			}
		}
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
}

// boundaryViolation checks, with pauseMu held exclusively, that no
// out-batch holds a frame and that shard s's cursor stands where its
// q-th quantum of the sweep leaves it; it describes the first
// violation, or returns "".
func boundaryViolation(e *shardEngine, s *shard, q int, wrapped bool) string {
	for _, sh := range e.shards {
		for d, batch := range sh.out {
			if len(batch) != 0 {
				return fmt.Sprintf("shard %d holds %d unflushed frames for shard %d at an exclusive boundary", sh.id, len(batch), d)
			}
		}
	}
	want := s.lo + q*sliceNodes
	if want >= s.hi {
		want = s.lo
	}
	if s.cursor != want || wrapped != (want == s.lo) {
		return fmt.Sprintf("cursor %d wrapped %v, want cursor %d", s.cursor, wrapped, want)
	}
	return ""
}
