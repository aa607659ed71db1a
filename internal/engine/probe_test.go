// White-box pins for the spread probe's node set and its allocation
// cost. The probe set is part of the engine's determinism contract: a
// fixed-seed run must probe the same node pairs on every execution and
// on every machine, so the exact ids are pinned here — any change to
// the sampling scheme is a deliberate, visible diff.
package engine

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/gm"
	"distclass/internal/rng"
	"distclass/internal/topology"
)

// population is a probed stand-in: n nodes, alive unless listed dead.
type population struct {
	n    int
	dead []int
}

func (p population) N() int           { return p.n }
func (p population) AliveCount() int  { return p.n - len(p.dead) }
func (p population) Alive(i int) bool { return !slices.Contains(p.dead, i) }

func (p population) pairDissimilarity(int, int) (float64, error) { return 0, nil }

func TestProbeIndicesSeededPinned(t *testing.T) {
	cases := []struct {
		name string
		n    int
		seed uint64
		want []int
	}{
		// Up to spreadProbeNodes alive nodes the probe watches them all.
		{"tiny all nodes", 3, 99, []int{0, 1, 2}},
		{"all nodes at the sample size", 12, 99, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}},
		// Beyond, a seeded sample: a pure function of (seed, n),
		// ascending, spreadProbeNodes distinct ids. The rows above 64
		// predate the one-rule probe and are unchanged by it.
		{"seeded 64", 64, 99, []int{6, 9, 10, 16, 19, 26, 29, 30, 49, 51, 54, 55}},
		{"seeded small", 65, 0, []int{0, 3, 9, 11, 13, 18, 31, 40, 42, 47, 51, 54}},
		{"seeded mid", 100, 41, []int{0, 4, 18, 27, 37, 56, 60, 61, 64, 71, 81, 85}},
		{"seeded 100k", 100_000, 41, []int{907, 4203, 18508, 27483, 37315, 56851, 60319, 61354, 64192, 71797, 81283, 85611}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := population{n: tc.n}
			if got := probeIDs(nil, p, nil, tc.seed, nil); !slices.Equal(got, tc.want) {
				t.Fatalf("probe set %v, want %v", got, tc.want)
			}
			// Reuse must not disturb determinism: a dirty buffer and a
			// used generator yield the identical set.
			buf := []int{7, 7, 7}
			if again := probeIDs(buf, p, nil, tc.seed, rng.New(5)); !slices.Equal(again, tc.want) {
				t.Fatalf("buffer reuse changed probe set: %v, want %v", again, tc.want)
			}
		})
	}
	// Distinct seeds must decorrelate the sample — otherwise every
	// fixed-seed experiment would watch the same dozen nodes.
	a := probeIDs(nil, population{n: 100_000}, nil, 1, nil)
	b := probeIDs(nil, population{n: 100_000}, nil, 2, nil)
	if slices.Equal(a, b) {
		t.Errorf("seeds 1 and 2 produced the identical probe set %v", a)
	}
}

// TestProbeIDsDeadAndRevived pins the probe set under churn: the
// sample is drawn as ranks among the alive nodes (the same nodes an
// explicit alive list would give), a revived node joins it while it is
// alive, a dead one never appears, and no node appears twice.
func TestProbeIDsDeadAndRevived(t *testing.T) {
	const n, seed = 100, 41
	dead := []int{0, 4, 18, 30, 99}
	p := population{n: n, dead: dead}
	var aliveIDs []int
	for i := 0; i < n; i++ {
		if p.Alive(i) {
			aliveIDs = append(aliveIDs, i)
		}
	}
	ranks := probeIDs(nil, population{n: len(aliveIDs)}, nil, seed, nil)
	var want []int
	for _, r := range ranks {
		want = append(want, aliveIDs[r])
	}
	sample := probeIDs(nil, p, nil, seed, nil)
	if !slices.Equal(sample, want) {
		t.Fatalf("sample over %d alive nodes %v, want the alive-list sample %v", len(aliveIDs), sample, want)
	}

	// 42 is outside the sample, sample[3] inside it, 18 and 30 dead.
	revived := []int{42, sample[3], 18, 30}
	got := probeIDs(nil, p, revived, seed, nil)
	wantAll := append(slices.Clone(sample), 42)
	slices.Sort(wantAll)
	if !slices.Equal(got, wantAll) {
		t.Fatalf("probe set with revived %v is %v, want %v", revived, got, wantAll)
	}

	// Small populations probe every alive node; a revived one is not
	// counted twice.
	small := population{n: 6, dead: []int{2}}
	if got := probeIDs(nil, small, []int{2, 3}, seed, nil); !slices.Equal(got, []int{0, 1, 3, 4, 5}) {
		t.Fatalf("small probe set %v, want [0 1 3 4 5]", got)
	}
}

// idleShard builds an n-node centroids shard engine whose workers
// never start: nothing but the test touches its nodes.
func idleShard(t *testing.T, n int) *shardEngine {
	t.Helper()
	values := make([]core.Value, n)
	nodes := make([]*core.Node, n)
	nodeCfg := core.Config{Method: centroids.Method{}, K: 2}
	for i := range values {
		values[i] = core.Value{float64(i % 7), 0}
		var err error
		if nodes[i], err = core.NewNode(i, values[i], nil, nodeCfg); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Backend: BackendShard, Method: nodeCfg.Method, Values: values, Shards: 1}.withDefaults()
	return newShardEngine(cfg, nil, nodes, nodeCfg, rng.New(1))
}

// TestLiveProbeWatchesRevived checks that Restart enrolls the node in
// the live probe set, and that killing it again takes it out.
func TestLiveProbeWatchesRevived(t *testing.T) {
	e := idleShard(t, 200)
	defer e.Stop()
	const victim = 123
	probeSet := func() []int {
		e.revivedMu.Lock()
		defer e.revivedMu.Unlock()
		return probeIDs(nil, e, e.revived, e.cfg.Seed, nil)
	}
	if slices.Contains(probeSet(), victim) {
		t.Fatalf("node %d is in the seeded sample; pick another victim", victim)
	}
	if _, err := e.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := e.Restart(victim, core.Value{100, 0}); err != nil {
		t.Fatal(err)
	}
	if got := probeSet(); !slices.Contains(got, victim) || len(got) != spreadProbeNodes+1 {
		t.Fatalf("probe set after Restart(%d) is %v, want the sample plus %d", victim, got, victim)
	}
	// The revived node sits 100 away from every value, and the probe
	// must see it.
	if spread, err := e.Spread(); err != nil || spread < 50 {
		t.Fatalf("Spread = %v, %v; want the revived node's distance", spread, err)
	}
	if _, err := e.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if got := probeSet(); slices.Contains(got, victim) {
		t.Fatalf("probe set after killing %d again is %v", victim, got)
	}
}

// TestLiveSpreadBytesFlat pins the live probe's allocation after a
// Kill: a few small buffers per call, independent of N — no alive list
// proportional to the population.
func TestLiveSpreadBytesFlat(t *testing.T) {
	perCall := func(n int) uint64 {
		e := idleShard(t, n)
		defer e.Stop()
		if _, err := e.Kill(n / 2); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Spread(); err != nil {
			t.Fatal(err)
		}
		const calls = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for k := 0; k < calls; k++ {
			if _, err := e.Spread(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	small, large := perCall(256), perCall(4096)
	if large > small+64 || large > 1024 {
		t.Errorf("live Spread after a Kill allocates %d B per call at 4096 nodes, %d B at 256; want the same small figure", large, small)
	}
}

// TestSimSpreadAllocFree pins the simulator's Spread probe as
// allocation-free, with every node alive and after kills: the probe
// index buffer and generator are cached on the engine, and
// DissimilarityTo reads node state in place. This is the regression
// guard for the zero-alloc hot-path work — the probe runs once per
// round at every scale.
func TestSimSpreadAllocFree(t *testing.T) {
	r := rng.New(3)
	values := make([]core.Value, 128)
	for i := range values {
		c := -3.0
		if i%2 == 1 {
			c = 3.0
		}
		values[i] = core.Value{c + r.Normal(0, 0.5), r.Normal(0, 0.5)}
	}
	eng, err := New(Config{
		Backend:   BackendRound,
		Method:    gm.Method{},
		Values:    values,
		Topology:  topology.KindFull,
		Seed:      5,
		Tolerance: 0.05,
		Interval:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := eng.Run(3); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, kill := range []int{-1, 7, 64} {
		if kill >= 0 {
			if _, err := eng.Kill(kill); err != nil {
				t.Fatalf("Kill(%d): %v", kill, err)
			}
		}
		// Warm the cached buffers, then demand zero allocations.
		if _, err := eng.Spread(); err != nil {
			t.Fatalf("Spread: %v", err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := eng.Spread(); err != nil {
				t.Fatalf("Spread: %v", err)
			}
		})
		if allocs != 0 {
			t.Errorf("with %d alive nodes, sim Spread allocates %.1f times per probe, want 0", eng.AliveCount(), allocs)
		}
	}
}
