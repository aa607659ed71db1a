// Shard-backend churn and scale: the sharded scheduler must keep the
// protocol's outcome under churn — Fig-1 convergence, exact weight
// conservation, clean kill/restart accounting (its convergence against
// the other backends is TestCrossBackendEquivalence). The churn run is
// race-detector-sized; the 100k-node scale run is gated behind
// DISTCLASS_SCALE_TEST=1.
package engine_test

import (
	"fmt"
	"os"
	"testing"
	"time"

	"distclass"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/gm"
	"distclass/internal/monitor"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/vec"
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

// TestShardBackendChurn kills part of a shard cluster mid-run,
// restarts half of the victims, and audits the weight ledger to
// float-exact tolerance: final = initial - destroyed + restarted. The
// multi-slice case gives each shard four scheduling slices, so kills
// and restarts land mid-sweep, between the slices of a shard.
func TestShardBackendChurn(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		shards  int
		seed    uint64
		method  distclass.Method
		topo    topology.Kind
		victims []int
	}{
		{
			name: "gm 64 nodes 4 shards", n: 64, shards: 4, seed: 29,
			method: distclass.GaussianMixture(), topo: topology.KindFull,
			victims: []int{3, 17, 21, 40, 41, 42, 55, 63},
		},
		{
			name: "centroids 2048 nodes 2 shards multi-slice", n: 2048, shards: 2, seed: 31,
			method: distclass.Centroids(), topo: topology.KindRegular,
			victims: []int{5, 300, 700, 1023, 1024, 1300, 1800, 2047},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			cfg := shardConfig(n, tc.seed, 0.05)
			cfg.Method = tc.method
			cfg.Topology = tc.topo
			cfg.Shards = tc.shards
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
			victims := tc.victims
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
		})
	}
}

// TestShardOverWire runs the shard workers over livenet: pipe and tcp,
// push and push-pull, centroids on a 48-node regular graph. Without
// churn the run must converge and end with the exact weight after
// Stop. With 6 kills and 3 restarts while the workers gossip it must
// stay error-free, count 6 crashes and never hold a surplus:
// final ≤ n − destroyed + restarted. A deficit is allowed — a frame
// already on the wire to a dying node is untracked loss (DESIGN.md
// §10). Push-pull has receive goroutines answer pulls on the queues
// the worker also pushes on, so a Send can lose the race for the last
// slot and the split half must be re-absorbed. CI runs this under the
// race detector (`shard race`).
func TestShardOverWire(t *testing.T) {
	const n = 48
	victims := []int{2, 9, 17, 30, 31, 45}
	for _, b := range []engine.Backend{engine.BackendPipe, engine.BackendTCP} {
		for _, mode := range []engine.Mode{engine.ModePush, engine.ModePushPull} {
			for _, churn := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/churn=%v", b, mode, churn)
				t.Run(name, func(t *testing.T) {
					cfg := engine.Config{
						Backend:   b,
						Method:    distclass.Centroids(),
						Values:    monitorWorkload(n, 13),
						Topology:  topology.KindRegular,
						Mode:      mode,
						Seed:      41,
						Tolerance: 0.05,
						Interval:  2 * time.Millisecond,
					}
					eng, err := engine.New(cfg)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					defer eng.Stop()
					expected := float64(n)
					if churn {
						if err := eng.Run(5); err != nil {
							t.Fatalf("Run: %v", err)
						}
						for _, v := range victims {
							destroyed, err := eng.Kill(v)
							if err != nil {
								t.Fatalf("Kill(%d): %v", v, err)
							}
							expected -= destroyed
							if err := eng.Run(1); err != nil {
								t.Fatalf("Run: %v", err)
							}
						}
						for _, v := range victims[:3] {
							if err := eng.Restart(v, cfg.Values[v]); err != nil {
								t.Fatalf("Restart(%d): %v", v, err)
							}
							expected++
						}
					}
					_, converged, err := eng.RunUntilConverged(60 * time.Second)
					eng.Stop()
					if err == nil {
						err = eng.Err()
					}
					if err != nil {
						t.Fatal(err)
					}
					if !converged {
						t.Fatal("did not converge")
					}
					got := eng.TotalWeight()
					if !churn {
						if got != float64(n) {
							t.Errorf("weight %v after Stop, want exactly %d", got, n)
						}
						return
					}
					if crashes := eng.Stats().Crashes; crashes != len(victims) {
						t.Errorf("Stats().Crashes = %d, want %d", crashes, len(victims))
					}
					if got > expected {
						t.Errorf("weight surplus: have %v, at most %v may remain", got, expected)
					}
				})
			}
		}
	}
}

// TestShardReconvergenceWatchesRestarted checks that RunUntilConverged
// does not report reconvergence before the restarted nodes have mixed.
// A restarted node holds its own value and weight 1, and on a large
// sparse cluster it takes many ticks to mix; a probe that watched only
// a seeded sample of nodes would fire within a few probes of the last
// Restart, with the restarted nodes still 4-6 units from the data
// mean. Once reconvergence is reported, each restarted node's
// classification must sit at the data mean.
func TestShardReconvergenceWatchesRestarted(t *testing.T) {
	const (
		n, kills, restarts = 3000, 20, 10
		maxMeanError       = 0.25
	)
	seeds := []uint64{1, 2, 3, 4, 5}
	budget := time.Minute
	if raceEnabled {
		seeds, budget = seeds[:1], 10*time.Minute
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			r := rng.New(seed)
			values := make([]core.Value, n)
			mean := vec.New(2)
			for i := range values {
				c := -4.0
				if i%2 == 1 {
					c = 4
				}
				values[i] = core.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
				vec.AddInPlace(mean, vec.Scale(1/float64(n), values[i]))
			}
			cfg := engine.Config{
				Backend:   engine.BackendShard,
				Method:    distclass.GaussianMixture(),
				Values:    values,
				K:         2,
				Topology:  topology.KindRegular,
				Seed:      seed,
				Tolerance: 0.05,
				Interval:  time.Millisecond,
				Shards:    1,
			}
			eng, err := engine.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer eng.Stop()
			if _, ok, err := eng.RunUntilConverged(budget); err != nil || !ok {
				t.Fatalf("first convergence: converged=%v err=%v", ok, err)
			}
			victims := r.Perm(n)[:kills]
			for _, v := range victims {
				if _, err := eng.Kill(v); err != nil {
					t.Fatalf("Kill(%d): %v", v, err)
				}
			}
			for _, v := range victims[:restarts] {
				if err := eng.Restart(v, values[v]); err != nil {
					t.Fatalf("Restart(%d): %v", v, err)
				}
			}
			if _, ok, err := eng.RunUntilConverged(budget); err != nil || !ok {
				t.Fatalf("reconvergence: converged=%v err=%v", ok, err)
			}
			eng.Stop()
			for _, v := range victims[:restarts] {
				got := vec.New(2)
				var weight float64
				for _, c := range eng.Classification(v) {
					vec.AddInPlace(got, vec.Scale(c.Weight, c.Summary.(gm.Summary).G.Mean))
					weight += c.Weight
				}
				d, err := vec.Dist(vec.Scale(1/weight, got), mean)
				if err != nil {
					t.Fatal(err)
				}
				if d > maxMeanError {
					t.Errorf("restarted node %d: classification mean %.3g from the data mean at reconvergence, want <= %g", v, d, maxMeanError)
				}
			}
		})
	}
}

// TestShardSpreadDuringChurn probes Spread from the engine's monitor
// goroutine and from a goroutine of its own while the test kills and
// restarts nodes: Restart and every concurrent probe share the list of
// revived nodes, which is what the race detector checks here.
func TestShardSpreadDuringChurn(t *testing.T) {
	const n = 64
	cfg := shardConfig(n, 5, 0.05)
	cfg.Monitor = monitor.New()
	cfg.MonitorInterval = time.Millisecond
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Stop()
	done := make(chan struct{})
	probeErr := make(chan error, 1)
	go func() {
		defer close(probeErr)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := eng.Spread(); err != nil {
				probeErr <- err
				return
			}
		}
	}()
	values := monitorWorkload(n, 7)
	for k := 0; k < 20; k++ {
		v := k * 3 % n
		if _, err := eng.Kill(v); err != nil {
			t.Fatalf("Kill(%d): %v", v, err)
		}
		if err := eng.Restart(v, values[v]); err != nil {
			t.Fatalf("Restart(%d): %v", v, err)
		}
	}
	close(done)
	if err := <-probeErr; err != nil {
		t.Errorf("Spread during churn: %v", err)
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
