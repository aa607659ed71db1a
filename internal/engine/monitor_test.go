// Monitor attachment: every backend, simulator and concurrent alike,
// must feed an attached monitor to a converged, conservation-exact
// verdict. This is the engine-side half of the live monitoring plane's
// acceptance bar (the HTTP half is exercised by the experiments
// monitor-smoke).
package engine_test

import (
	"math"
	"testing"
	"time"

	"distclass"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/monitor"
	"distclass/internal/rng"
	"distclass/internal/topology"
)

func monitorWorkload(n int, seed uint64) []core.Value {
	r := rng.New(seed)
	values := make([]core.Value, n)
	for i := range values {
		c := -3.0
		if i%2 == 1 {
			c = 3.0
		}
		values[i] = core.Value{c + r.Normal(0, 0.5), r.Normal(0, 0.5)}
	}
	return values
}

func TestMonitorAttachesToEveryBackend(t *testing.T) {
	const (
		n   = 16
		tol = 0.05
	)
	for _, b := range engine.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			m := monitor.New()
			cfg := engine.Config{
				Backend:         b,
				Method:          distclass.GaussianMixture(),
				Values:          monitorWorkload(n, 7),
				Topology:        topology.KindFull,
				Seed:            13,
				Tolerance:       tol,
				Interval:        time.Millisecond,
				Monitor:         m,
				MonitorInterval: 2 * time.Millisecond,
				EmitHeader:      true,
			}
			eng, err := engine.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			_, converged, err := eng.RunUntilConverged(20 * time.Second)
			if err == nil && converged && !b.Caps().Rounds {
				// The monitor probes on its own clock; a small cluster can
				// converge before the probe collects a full window. Leave
				// the converged cluster running until the observer agrees
				// (converged and currently below the threshold) — exactly
				// what a monitored deployment does.
				deadline := time.Now().Add(10 * time.Second)
				for m.Status().Health != monitor.HealthConverged && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
			}
			eng.Stop()
			if err == nil {
				err = eng.Err()
			}
			if err != nil {
				t.Fatalf("RunUntilConverged: %v", err)
			}
			if !converged {
				t.Fatal("did not converge")
			}

			s := m.Status()
			if s.Backend != b.String() {
				t.Errorf("monitor backend = %q, want %q", s.Backend, b)
			}
			if s.Health != monitor.HealthConverged {
				t.Errorf("monitor health = %q, want converged (%+v)", s.Health, s.Convergence)
			}
			if !s.Convergence.Converged {
				t.Errorf("monitor did not see convergence: %+v", s.Convergence)
			}
			if s.Convergence.Threshold != tol {
				t.Errorf("monitor threshold = %g, want %g", s.Convergence.Threshold, tol)
			}
			if s.Nodes != n {
				t.Errorf("monitor saw %d nodes, want %d", s.Nodes, n)
			}
			if !s.Conservation.Audited {
				t.Fatal("conservation audit not armed")
			}
			if s.Conservation.Expected != float64(n) {
				t.Errorf("expected weight = %g, want %d", s.Conservation.Expected, n)
			}
			// The final sample lands after Stop drained every queue (live)
			// or between rounds (sim): the audit must end exact, with no
			// weight ever materializing from nowhere.
			if !s.Conservation.Exact {
				t.Errorf("conservation not exact after Stop: %+v", s.Conservation)
			}
			if s.Conservation.Violations != 0 {
				t.Errorf("conservation violations = %d: %+v", s.Conservation.Violations, s.Conservation)
			}
			if s.Conservation.Samples == 0 {
				t.Error("conservation audit saw no samples")
			}
			if s.Messaging.Sends == 0 {
				t.Error("monitor saw no send events")
			}
			if len(s.SpreadCurve) == 0 {
				t.Error("monitor retained no spread curve")
			}
			if len(s.NodeHealth) != n {
				t.Errorf("monitor has %d node health rows, want %d", len(s.NodeHealth), n)
			}
		})
	}
}

// TestTotalWeightNeverOvercounts samples TotalWeight on every
// concurrent backend while gossip runs flat out. A half that leaves a
// node and lands at another is at exactly one of them, or in flight, at
// any instant; a sum that is not a consistent cut can count it at both
// and report more weight than exists — the surplus the monitor's
// conservation audit flags as a violation.
func TestTotalWeightNeverOvercounts(t *testing.T) {
	const (
		n       = 16
		samples = 2000
	)
	for _, b := range engine.Backends() {
		if b.Caps().Rounds {
			continue
		}
		t.Run(b.String(), func(t *testing.T) {
			eng, err := engine.New(engine.Config{
				Backend:  b,
				Method:   distclass.Centroids(),
				Values:   monitorWorkload(n, 3),
				Topology: topology.KindFull,
				Seed:     5,
				Interval: 100 * time.Microsecond,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer eng.Stop()
			deadline := time.Now().Add(2 * time.Second)
			for i := 0; i < samples && time.Now().Before(deadline); i++ {
				if w := eng.TotalWeight(); w > n+1e-9 {
					t.Fatalf("sample %d: total weight %v exceeds the %d units that exist", i, w, n)
				}
			}
			eng.Stop()
			if err := eng.Err(); err != nil {
				t.Fatal(err)
			}
			if w := eng.TotalWeight(); math.Abs(w-n) > 1e-9 {
				t.Errorf("weight after Stop = %v, want %d", w, n)
			}
		})
	}
}
