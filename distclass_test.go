package distclass_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"distclass"
)

func twoClusters(n int) []distclass.Value {
	values := make([]distclass.Value, n)
	for i := range values {
		base := 0.0
		if i%2 == 1 {
			base = 10
		}
		// Deterministic spread around the cluster centers.
		values[i] = distclass.Value{base + float64(i%5)*0.1, base - float64(i%3)*0.1}
	}
	return values
}

func TestNewValidation(t *testing.T) {
	if _, err := distclass.New(nil, distclass.Centroids()); err == nil {
		t.Errorf("no values accepted")
	}
	if _, err := distclass.New(twoClusters(4), nil); err == nil {
		t.Errorf("nil method accepted")
	}
	if _, err := distclass.New(twoClusters(4), distclass.Centroids(), distclass.WithK(0)); err == nil {
		t.Errorf("k=0 accepted")
	}
	if _, err := distclass.New(twoClusters(4), distclass.Centroids(), distclass.WithTopology("bogus")); err == nil {
		t.Errorf("bogus topology accepted")
	}
}

func TestCentroidsSystemConverges(t *testing.T) {
	sys, err := distclass.New(twoClusters(40), distclass.Centroids(),
		distclass.WithK(2), distclass.WithSeed(7))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rounds, converged, err := sys.RunUntilConverged()
	if err != nil {
		t.Fatalf("RunUntilConverged: %v", err)
	}
	if !converged {
		t.Fatalf("did not converge in %d rounds", rounds)
	}
	// Every node must report two clusters near 0 and 10.
	for i := 0; i < sys.N(); i++ {
		cls := sys.Classification(i)
		if len(cls) != 2 {
			t.Fatalf("node %d holds %d collections", i, len(cls))
		}
		var sawLow, sawHigh bool
		for _, c := range cls {
			mean, err := distclass.MeanOf(c.Summary)
			if err != nil {
				t.Fatalf("MeanOf: %v", err)
			}
			switch {
			case math.Abs(mean[0]-0.2) < 1:
				sawLow = true
			case math.Abs(mean[0]-10.2) < 1:
				sawHigh = true
			}
		}
		if !sawLow || !sawHigh {
			t.Errorf("node %d missing a cluster: %v", i, cls)
		}
	}
	// Weight conservation.
	if got := sys.TotalWeight(); math.Abs(got-40) > 1e-9 {
		t.Errorf("TotalWeight = %v, want 40", got)
	}
	if sys.Stats().MessagesSent == 0 {
		t.Errorf("no messages sent")
	}
}

func TestGaussianMixtureSystem(t *testing.T) {
	sys, err := distclass.New(twoClusters(30), distclass.GaussianMixture(),
		distclass.WithK(2), distclass.WithSeed(9))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Run(25); err != nil {
		t.Fatalf("Run: %v", err)
	}
	mix, err := distclass.ToMixture(sys.Classification(0))
	if err != nil {
		t.Fatalf("ToMixture: %v", err)
	}
	if len(mix) != 2 {
		t.Fatalf("mixture has %d components", len(mix))
	}
	// One component near x=0, one near x=10.
	lo, hi := mix[0], mix[1]
	if lo.Mean[0] > hi.Mean[0] {
		lo, hi = hi, lo
	}
	if math.Abs(lo.Mean[0]-0.2) > 1 || math.Abs(hi.Mean[0]-10.2) > 1 {
		t.Errorf("component means %v / %v", lo.Mean, hi.Mean)
	}
	// Roughly equal cluster weights.
	ratio := lo.Weight / (lo.Weight + hi.Weight)
	if ratio < 0.3 || ratio > 0.7 {
		t.Errorf("weight ratio = %v", ratio)
	}
}

func TestRobustMean(t *testing.T) {
	// 28 good values around (0,0), 2 outliers at (30,30): the robust
	// mean must ignore the outliers.
	values := make([]distclass.Value, 30)
	for i := range values {
		if i < 28 {
			values[i] = distclass.Value{float64(i%7)*0.1 - 0.3, float64(i%5)*0.1 - 0.2}
		} else {
			values[i] = distclass.Value{30, 30}
		}
	}
	sys, err := distclass.New(values, distclass.GaussianMixture(),
		distclass.WithK(2), distclass.WithSeed(11))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Run(25); err != nil {
		t.Fatalf("Run: %v", err)
	}
	est, err := sys.RobustMean(0)
	if err != nil {
		t.Fatalf("RobustMean: %v", err)
	}
	if math.Abs(est[0]) > 0.5 || math.Abs(est[1]) > 0.5 {
		t.Errorf("robust mean = %v, want near origin", est)
	}
}

func TestTopologiesAndPolicies(t *testing.T) {
	for _, topo := range []distclass.Topology{
		distclass.TopologyRing, distclass.TopologyGrid, distclass.TopologyStar,
		distclass.TopologyTree, distclass.TopologyER, distclass.TopologyGeometric,
		distclass.TopologyTorus,
	} {
		t.Run(string(topo), func(t *testing.T) {
			sys, err := distclass.New(twoClusters(16), distclass.Centroids(),
				distclass.WithTopology(topo), distclass.WithSeed(3),
				distclass.WithPolicy(distclass.RoundRobin))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := sys.Run(10); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := sys.TotalWeight(); math.Abs(got-16) > 1e-9 {
				t.Errorf("TotalWeight = %v", got)
			}
		})
	}
}

func TestCrashes(t *testing.T) {
	sys, err := distclass.New(twoClusters(50), distclass.GaussianMixture(),
		distclass.WithCrashProb(0.1), distclass.WithSeed(5))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Run(15); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sys.AliveCount() >= 50 {
		t.Errorf("no nodes crashed with p=0.1 over 15 rounds")
	}
	// Surviving nodes still answer queries.
	for i := 0; i < sys.N(); i++ {
		if sys.Alive(i) {
			if cls := sys.Classification(i); len(cls) == 0 {
				t.Errorf("alive node %d has empty classification", i)
			}
			break
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		sys, err := distclass.New(twoClusters(20), distclass.GaussianMixture(),
			distclass.WithSeed(42))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := sys.Run(12); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return sys.Classification(0).String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestQuantumOption(t *testing.T) {
	sys, err := distclass.New(twoClusters(8), distclass.Centroids(),
		distclass.WithQ(0.25), distclass.WithSeed(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Run(20); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < sys.N(); i++ {
		for _, c := range sys.Classification(i) {
			mult := c.Weight / 0.25
			if math.Abs(mult-math.Round(mult)) > 1e-9 {
				t.Fatalf("node %d weight %v not a multiple of q", i, c.Weight)
			}
		}
	}
}

func TestGossipModes(t *testing.T) {
	for _, mode := range []distclass.Mode{distclass.ModePush, distclass.ModePull, distclass.ModePushPull} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, err := distclass.New(twoClusters(24), distclass.GaussianMixture(),
				distclass.WithK(2), distclass.WithSeed(31), distclass.WithMode(mode))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := sys.Run(25); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := sys.TotalWeight(); math.Abs(got-24) > 1e-9 {
				t.Errorf("TotalWeight = %v, want 24 (mode %s)", got, mode)
			}
			if len(sys.Classification(0)) != 2 {
				t.Errorf("node 0 holds %d collections", len(sys.Classification(0)))
			}
		})
	}
}

func TestStartLive(t *testing.T) {
	cluster, err := distclass.StartLive(twoClusters(12), distclass.GaussianMixture(),
		distclass.WithK(2), distclass.WithSeed(41), distclass.WithTolerance(0.25))
	if err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	defer cluster.Stop()
	converged, err := cluster.WaitConverged(10 * time.Second)
	if err != nil {
		t.Fatalf("WaitConverged: %v", err)
	}
	if !converged {
		spread, _ := cluster.Spread()
		t.Fatalf("live cluster did not converge (spread %v)", spread)
	}
	if cluster.N() != 12 {
		t.Errorf("N = %d", cluster.N())
	}
	if cluster.MessagesSent() == 0 {
		t.Errorf("no messages sent")
	}
	if len(cluster.Classification(0)) == 0 {
		t.Errorf("empty classification")
	}
	cluster.Stop()
	if err := cluster.Err(); err != nil {
		t.Errorf("Err after stop: %v", err)
	}
}

// TestStartLiveChurn drives the churn surface through the facade:
// kill, alive bookkeeping, restart with a fresh value, and the weight
// conservation the fail-stop model promises.
func TestStartLiveChurn(t *testing.T) {
	const n = 8
	cluster, err := distclass.StartLive(twoClusters(n), distclass.GaussianMixture(),
		distclass.WithSeed(43))
	if err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	defer cluster.Stop()
	destroyed, err := cluster.Kill(2)
	if err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if destroyed <= 0 {
		t.Errorf("Kill destroyed %v weight, want > 0", destroyed)
	}
	if cluster.Alive(2) || cluster.AliveCount() != n-1 {
		t.Errorf("Alive(2) = %v, AliveCount = %d after kill", cluster.Alive(2), cluster.AliveCount())
	}
	if _, err := cluster.Kill(2); err == nil {
		t.Errorf("double kill accepted")
	}
	value := distclass.Value{0, 0}
	if err := cluster.Restart(2, value); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if value[0] != 0 || value[1] != 0 {
		t.Errorf("Restart mutated the caller's value: %v", value)
	}
	if !cluster.Alive(2) || cluster.AliveCount() != n {
		t.Errorf("Alive(2) = %v, AliveCount = %d after restart", cluster.Alive(2), cluster.AliveCount())
	}
	cluster.Stop()
	if err := cluster.Err(); err != nil {
		t.Fatalf("Err after churn: %v", err)
	}
	total := cluster.TotalWeight()
	want := float64(n) - destroyed + 1
	if total > want+1e-9 || total < want/2 {
		t.Errorf("TotalWeight = %v after stop, want in (%v/2, %v]", total, want, want)
	}
}

func TestStartLiveValidation(t *testing.T) {
	if _, err := distclass.StartLive(twoClusters(4), nil); err == nil {
		t.Errorf("nil method accepted")
	}
	if _, err := distclass.StartLive(twoClusters(4), distclass.Centroids(),
		distclass.WithTopology("bogus")); err == nil {
		t.Errorf("bogus topology accepted")
	}
}

func TestRunObservedAndValues(t *testing.T) {
	values := twoClusters(10)
	sys, err := distclass.New(values, distclass.Centroids(), distclass.WithSeed(61))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	got := sys.Values()
	if len(got) != 10 {
		t.Fatalf("Values len = %d", len(got))
	}
	got[0][0] = 999
	if sys.Values()[0][0] == 999 {
		t.Errorf("Values aliases internal state")
	}
	calls := 0
	err = sys.RunObserved(50, func(round int) error {
		calls++
		if round == 3 {
			return distclass.ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunObserved: %v", err)
	}
	if calls != 4 {
		t.Errorf("callback ran %d times, want 4", calls)
	}
}

func TestAssignAndMeanOfErrors(t *testing.T) {
	if _, err := distclass.Assign(nil, distclass.Value{1}); err == nil {
		t.Errorf("empty classification accepted")
	}
	if _, err := distclass.MeanOf(badSummary{}); err == nil {
		t.Errorf("unknown summary accepted")
	}
	// ToMixture on centroids classifications must fail cleanly.
	sys, err := distclass.New(twoClusters(6), distclass.Centroids(), distclass.WithSeed(71))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := sys.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := distclass.ToMixture(sys.Classification(0)); err == nil {
		t.Errorf("ToMixture accepted centroid summaries")
	}
	// Assign with centroid classifications picks the nearest mean.
	cls := sys.Classification(0)
	idx, err := distclass.Assign(cls, distclass.Value{9.9, 10})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	mean, err := distclass.MeanOf(cls[idx].Summary)
	if err != nil {
		t.Fatalf("MeanOf: %v", err)
	}
	if mean[0] < 5 {
		t.Errorf("assigned to the far cluster: %v", mean)
	}
}

type badSummary struct{}

func (badSummary) Dim() int       { return 1 }
func (badSummary) String() string { return "bad" }

// TestObservabilityOptions runs both the simulator and a live cluster
// with a shared registry and trace sink through the public facade, and
// checks protocol events and per-round probes arrive.
func TestObservabilityOptions(t *testing.T) {
	reg := distclass.NewRegistry()
	var events eventCounter
	sys, err := distclass.New(twoClusters(20), distclass.Centroids(),
		distclass.WithK(2), distclass.WithSeed(3),
		distclass.WithMetrics(reg), distclass.WithTrace(&events))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, _, err := sys.RunUntilConverged(); err != nil {
		t.Fatalf("RunUntilConverged: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Counters["sim.messages_sent"] == 0 || snap.Counters["core.splits"] == 0 {
		t.Errorf("registry missing simulator/protocol counters: %+v", snap.Counters)
	}
	if _, ok := snap.Gauges["sim.spread"]; !ok {
		t.Errorf("registry missing sim.spread gauge")
	}
	if events.spreads == 0 || events.splits == 0 {
		t.Errorf("trace sink missed events: %d spreads, %d splits", events.spreads, events.splits)
	}

	// Same options drive the live deployment.
	liveReg := distclass.NewRegistry()
	var liveEvents eventCounter
	cluster, err := distclass.StartLive(twoClusters(6), distclass.Centroids(),
		distclass.WithK(2), distclass.WithSeed(5),
		distclass.WithMetrics(liveReg), distclass.WithTrace(&liveEvents))
	if err != nil {
		t.Fatalf("StartLive: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for liveReg.SumCounters("livenet.node.", ".sent") < 10 {
		select {
		case <-deadline:
			t.Fatalf("live cluster sent no messages")
		case <-time.After(time.Millisecond):
		}
	}
	cluster.Stop()
	if err := cluster.Err(); err != nil {
		t.Fatalf("cluster: %v", err)
	}
	if liveEvents.sends == 0 || liveEvents.splits == 0 {
		t.Errorf("live trace sink missed events: %d sends, %d splits", liveEvents.sends, liveEvents.splits)
	}
}

// eventCounter is a TraceSink that tallies event kinds. The livenet
// nodes record concurrently; the mutex mirrors what trace.Recorder does.
type eventCounter struct {
	mu                     sync.Mutex
	splits, spreads, sends int
}

func (c *eventCounter) Record(e distclass.TraceEvent) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case "split":
		c.splits++
	case "spread":
		c.spreads++
	case "send":
		c.sends++
	}
	return nil
}
