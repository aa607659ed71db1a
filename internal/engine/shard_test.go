// Shard-backend churn and scale: the sharded scheduler must keep the
// protocol's outcome under churn — Fig-1 convergence, exact weight
// conservation, clean kill/restart accounting (its convergence against
// the other backends is TestCrossBackendEquivalence). The churn run is
// race-detector-sized; the 100k-node scale run is gated behind
// DISTCLASS_SCALE_TEST=1.
package engine_test

import (
	"os"
	"testing"
	"time"

	"distclass"
	"distclass/internal/engine"
	"distclass/internal/topology"
)

// shardConfig is the Fig-1 workload on the shard backend at n nodes.
func shardConfig(n int, seed uint64, tol float64) engine.Config {
	return engine.Config{
		Backend:   engine.BackendShard,
		Method:    distclass.GaussianMixture(),
		Values:    monitorWorkload(n, 7),
		Topology:  topology.KindFull,
		Seed:      seed,
		Tolerance: tol,
		Interval:  time.Millisecond,
	}
}

// TestShardBackendChurn kills a quarter of a shard cluster mid-run,
// restarts half of the victims, and audits the weight ledger to
// float-exact tolerance: final = initial - destroyed + restarted.
func TestShardBackendChurn(t *testing.T) {
	const (
		n   = 64
		tol = 0.05
	)
	cfg := shardConfig(n, 29, tol)
	cfg.Shards = 4
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Stop()
	// Let gossip smear weight across nodes so kills destroy fractional,
	// in-flight-adjacent amounts — the hard case for the ledger.
	if err := eng.Run(20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	expected := float64(n)
	victims := []int{3, 17, 21, 40, 41, 42, 55, 63}
	for _, v := range victims {
		destroyed, err := eng.Kill(v)
		if err != nil {
			t.Fatalf("Kill(%d): %v", v, err)
		}
		expected -= destroyed
	}
	if got := eng.AliveCount(); got != n-len(victims) {
		t.Fatalf("AliveCount = %d, want %d", got, n-len(victims))
	}
	values := monitorWorkload(n, 7)
	for _, v := range victims[:4] {
		if err := eng.Restart(v, values[v]); err != nil {
			t.Fatalf("Restart(%d): %v", v, err)
		}
		expected++
	}
	_, converged, err := eng.RunUntilConverged(30 * time.Second)
	eng.Stop()
	if err == nil {
		err = eng.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatal("churned shard cluster did not converge")
	}
	got := eng.TotalWeight()
	if diff := got - expected; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("weight ledger drifted: have %v, want %v (diff %g)", got, expected, diff)
	}
}

// TestShardBackendScale is the 100k-node acceptance run: Fig-1
// workload on a degree-8 regular topology, sharded across GOMAXPROCS
// workers. It allocates ~100k nodes' worth of state and runs for
// minutes, so it is opt-in: DISTCLASS_SCALE_TEST=1 go test -run
// TestShardBackendScale -timeout 30m ./internal/engine/
func TestShardBackendScale(t *testing.T) {
	if os.Getenv("DISTCLASS_SCALE_TEST") == "" {
		t.Skip("set DISTCLASS_SCALE_TEST=1 to run the 100k-node shard benchmark")
	}
	const (
		n   = 100_000
		tol = 0.05
	)
	cfg := shardConfig(n, 41, tol)
	cfg.Topology = topology.KindRegular
	cfg.Interval = 5 * time.Millisecond
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	start := time.Now()
	_, converged, err := eng.RunUntilConverged(20 * time.Minute)
	elapsed := time.Since(start)
	eng.Stop()
	if err == nil {
		err = eng.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatal("100k-node shard cluster did not converge")
	}
	if w := eng.TotalWeight(); w != float64(n) {
		t.Errorf("weight not conserved: %v, want exactly %d", w, n)
	}
	st := eng.Stats()
	t.Logf("100k-node shard run: converged in %v, %d messages sent",
		elapsed.Round(time.Millisecond), st.MessagesSent)
}
