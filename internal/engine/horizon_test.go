package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/topology"
)

// TestWeightHorizon pins the conservation exactness horizon on every
// backend: New rejects N unit weights of 2^53 quanta or more, and just
// below the horizon a run still conserves weight bit for bit. The first
// row is a measured failure: before the check existed, this 1000-node
// ring at Q = 2^-48 summed to 999.9999999999995 on shard after 40
// intervals, a drift no protocol step made.
func TestWeightHorizon(t *testing.T) {
	cases := []struct {
		n      int
		qExp   int
		reject bool
	}{
		{n: 1000, qExp: -48, reject: true},
		{n: 16, qExp: -49, reject: true}, // exactly 2^53 quanta
		{n: 15, qExp: -49},
		{n: 8, qExp: -50, reject: true},
		{n: 7, qExp: -50},
	}
	for _, b := range Backends() {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/n=%d/q=2^%d", b, tc.n, tc.qExp), func(t *testing.T) {
				values := make([]core.Value, tc.n)
				for i := range values {
					values[i] = core.Value{float64(i % 5), float64(i % 3)}
				}
				e, err := New(Config{
					Backend: b, Method: centroids.Method{}, Values: values,
					Q: math.Ldexp(1, tc.qExp), Topology: topology.KindRing, Seed: 3,
				})
				if tc.reject && err != nil {
					if !errors.Is(err, ErrWeightHorizon) {
						t.Fatalf("New: %v, want ErrWeightHorizon", err)
					}
					return
				}
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				runErr := e.Run(40)
				e.Stop()
				if runErr != nil {
					t.Fatalf("Run: %v", runErr)
				}
				got := e.TotalWeight()
				if tc.reject {
					t.Fatalf("New accepted %d unit weights at 2^%d quanta; the run then held %v", tc.n, tc.qExp, got)
				}
				if math.Float64bits(got) != math.Float64bits(float64(tc.n)) {
					t.Errorf("weight %v, want exactly %d", got, tc.n)
				}
			})
		}
	}
}

// TestRestartRefusedAtHorizon checks that Restart refuses the unit of
// weight that would take the accounted total N − destroyed + restarts
// to 2^53 quanta, and leaves the node dead. Reaching the horizon by
// churn alone takes millions of restarts of nearly empty nodes, so the
// test sets the books next to it directly.
func TestRestartRefusedAtHorizon(t *testing.T) {
	e := idleShard(t, 4)
	defer e.Stop()
	if _, err := e.Kill(0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	horizon := math.Ldexp(1, 53) * e.cfg.Q
	e.accounted = horizon - 1
	err := e.Restart(0, core.Value{0, 0})
	if !errors.Is(err, ErrWeightHorizon) {
		t.Fatalf("Restart to the horizon: %v, want ErrWeightHorizon", err)
	}
	if e.Alive(0) {
		t.Fatal("refused restart left the node alive")
	}
	e.accounted = horizon - 1 - e.cfg.Q
	if err := e.Restart(0, core.Value{0, 0}); err != nil {
		t.Fatalf("Restart one quantum under the horizon: %v", err)
	}
	if got, want := e.accounted, horizon-e.cfg.Q; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("accounted %v after restart, want %v", got, want)
	}
}
