// Cross-backend equivalence: the same workload must converge and
// conserve weight exactly on the deterministic simulator and on the
// concurrent transports. The backends share one protocol loop; these
// tests pin that the substrates differ only in scheduling, never in
// protocol outcome.
package engine_test

import (
	"testing"
	"time"

	"distclass"
	"distclass/internal/rng"
)

// fig1Values is the Figure-1-style workload: two well-separated
// Gaussian clusters, one value per node.
func fig1Values(n int, seed uint64) []distclass.Value {
	r := rng.New(seed)
	values := make([]distclass.Value, n)
	for i := range values {
		c := -3.0
		if i%2 == 1 {
			c = 3.0
		}
		values[i] = distclass.Value{c + r.Normal(0, 0.5), r.Normal(0, 0.5)}
	}
	return values
}

func TestCrossBackendEquivalence(t *testing.T) {
	const (
		n   = 24
		tol = 0.05
	)
	values := fig1Values(n, 5)
	opts := []distclass.Option{
		distclass.WithK(2),
		distclass.WithSeed(11),
		distclass.WithTolerance(tol),
	}

	for _, b := range []distclass.Backend{distclass.BackendRound, distclass.BackendAsync} {
		t.Run(b.String(), func(t *testing.T) {
			sys, err := distclass.New(values, distclass.GaussianMixture(),
				append(opts, distclass.WithBackend(b))...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if _, converged, err := sys.RunUntilConverged(); err != nil {
				t.Fatalf("RunUntilConverged: %v", err)
			} else if !converged {
				t.Fatal("did not converge")
			}
			if w := sys.TotalWeight(); w != float64(n) {
				t.Errorf("weight not conserved: %v, want exactly %d", w, n)
			}
		})
	}

	for _, b := range []distclass.Backend{distclass.BackendPipe, distclass.BackendShard} {
		t.Run(b.String(), func(t *testing.T) {
			cl, err := distclass.StartLive(values, distclass.GaussianMixture(),
				append(opts, distclass.WithBackend(b), distclass.WithInterval(time.Millisecond))...)
			if err != nil {
				t.Fatalf("StartLive: %v", err)
			}
			converged, err := cl.WaitConverged(15*time.Second, tol)
			// Stop before the audit: it joins every goroutine and
			// re-absorbs queued frames, so no weight is in flight when
			// TotalWeight sums the nodes.
			cl.Stop()
			if err == nil {
				err = cl.Err()
			}
			if err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			if !converged {
				t.Fatal("did not converge")
			}
			if w := cl.TotalWeight(); w != float64(n) {
				t.Errorf("weight not conserved: %v, want exactly %d", w, n)
			}
		})
	}
}

// TestPipeBackendLargeScale runs the pipe backend well above the
// smoke workload: 128 nodes on a sparse regular graph, each with a
// gossip goroutine and a writer and receiver per link. It must still
// converge and conserve weight exactly — and `make race` runs it under
// the race detector, which is the point: liveEngine's locking has to
// hold at scale, not just on toy networks. 128 nodes keeps the run
// well under the race detector's cap on live goroutines.
func TestPipeBackendLargeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node wire cluster; skipped in -short mode")
	}
	const (
		n   = 128
		tol = 0.05
	)
	interval, deadline := 5*time.Millisecond, 60*time.Second
	if raceEnabled {
		interval, deadline = 20*time.Millisecond, 180*time.Second
	}
	cl, err := distclass.StartLive(fig1Values(n, 17), distclass.GaussianMixture(),
		distclass.WithK(2),
		distclass.WithSeed(23),
		distclass.WithTopology(distclass.TopologyRegular),
		distclass.WithBackend(distclass.BackendPipe),
		distclass.WithInterval(interval))
	if err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	converged, err := cl.WaitConverged(deadline, tol)
	cl.Stop()
	if err == nil {
		err = cl.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("%d-node pipe cluster did not converge", n)
	}
	if w := cl.TotalWeight(); w != float64(n) {
		t.Errorf("weight not conserved: %v, want exactly %d", w, n)
	}
	if alive := cl.AliveCount(); alive != n {
		t.Errorf("AliveCount = %d, want %d", alive, n)
	}
}
