package monitor

import (
	"testing"

	"distclass/internal/trace"
)

func feedSpread(m *Monitor, values ...float64) {
	for i, v := range values {
		m.Record(trace.Event{Round: i, Node: -1, Kind: trace.KindSpread, Value: v})
	}
}

func TestConvergenceLifecycle(t *testing.T) {
	m := New()
	m.SetDetection(0.1, 3)
	if s := m.Status(); s.Health != HealthConverging {
		t.Fatalf("fresh monitor health = %q, want converging", s.Health)
	}
	feedSpread(m, 0.5, 0.3, 0.05, 0.04, 0.03)
	s := m.Status()
	if !s.Convergence.Converged {
		t.Fatalf("did not converge: %+v", s.Convergence)
	}
	if s.Convergence.ConvergedRound != 4 {
		t.Errorf("ConvergedRound = %d, want 4", s.Convergence.ConvergedRound)
	}
	if s.Convergence.FirstStableRound != 2 {
		t.Errorf("FirstStableRound = %d, want 2", s.Convergence.FirstStableRound)
	}
	if s.Health != HealthConverged {
		t.Errorf("health = %q, want converged", s.Health)
	}
	// A sample back above the threshold is divergence, not a reset.
	m.Record(trace.Event{Round: 5, Node: -1, Kind: trace.KindSpread, Value: 0.2})
	s = m.Status()
	if s.Convergence.DivergentSamples != 1 {
		t.Errorf("DivergentSamples = %d, want 1", s.Convergence.DivergentSamples)
	}
	if s.Health != HealthDiverged {
		t.Errorf("health after divergence = %q, want diverged", s.Health)
	}
	// Once spread falls back below the threshold the run is ready again:
	// the blip stays on the divergent-sample counter, not on the health.
	m.Record(trace.Event{Round: 6, Node: -1, Kind: trace.KindSpread, Value: 1e-4})
	s = m.Status()
	if s.Health != HealthConverged {
		t.Errorf("health after recovery = %q, want converged", s.Health)
	}
	if s.Convergence.DivergentSamples != 1 {
		t.Errorf("DivergentSamples after recovery = %d, want 1", s.Convergence.DivergentSamples)
	}
}

func TestNodeTalliesAndStall(t *testing.T) {
	m := New()
	// Node 0 is active every round; node 1 goes silent after round 0,
	// past the default stall slack of max(10, rounds/5) = 10 rounds.
	const rounds = 20
	for r := 0; r < rounds; r++ {
		m.Record(trace.Event{Round: r, Node: 0, Kind: trace.KindSend, Value: 1})
		m.Record(trace.Event{Round: r, Node: 0, Kind: trace.KindReceive, Value: 2})
	}
	m.Record(trace.Event{Round: 0, Node: 1, Kind: trace.KindSend, Value: 1})
	s := m.Status()
	if s.Nodes != 2 || len(s.NodeHealth) != 2 {
		t.Fatalf("nodes = %d, health rows = %d, want 2/2", s.Nodes, len(s.NodeHealth))
	}
	n0, n1 := s.NodeHealth[0], s.NodeHealth[1]
	if n0.Node != 0 || n1.Node != 1 {
		t.Fatalf("node health not sorted by id: %d, %d", n0.Node, n1.Node)
	}
	if n0.Sends != rounds || n0.Receives != rounds || n0.Stalled {
		t.Errorf("node 0: %+v", n0)
	}
	if n1.Staleness != rounds-1 || !n1.Stalled {
		t.Errorf("node 1 staleness = %d stalled = %v, want %d/true", n1.Staleness, n1.Stalled, rounds-1)
	}
	if s.Health != HealthStalled {
		t.Errorf("health = %q, want stalled", s.Health)
	}
	if s.Messaging.ReceivedCollections != 2*rounds {
		t.Errorf("received collections = %g, want %d", s.Messaging.ReceivedCollections, 2*rounds)
	}
	if s.Messaging.SendsPerRound != 1.05 {
		t.Errorf("sends per round = %g, want 1.05", s.Messaging.SendsPerRound)
	}
}

func TestConservationAudit(t *testing.T) {
	m := New()
	m.ObserveWeight(16) // before arming: recorded, not judged
	m.SetExpectedWeight(16)
	m.ObserveWeight(16)
	s := m.Status()
	if !s.Conservation.Audited || !s.Conservation.Exact || s.Conservation.Violations != 0 {
		t.Fatalf("clean audit: %+v", s.Conservation)
	}
	// In-flight dip: below expectation, not a violation.
	m.ObserveWeight(14.5)
	s = m.Status()
	if s.Conservation.Violations != 0 {
		t.Errorf("deficit counted as violation: %+v", s.Conservation)
	}
	if s.Conservation.Exact {
		t.Errorf("deficit still exact: %+v", s.Conservation)
	}
	// Weight from nowhere: always a violation, and the run is unhealthy.
	m.ObserveWeight(16.5)
	s = m.Status()
	if s.Conservation.Violations != 1 {
		t.Errorf("surplus not counted: %+v", s.Conservation)
	}
	if s.Health != HealthDiverged {
		t.Errorf("health with violation = %q, want diverged", s.Health)
	}
}

// TestConservationAuditOneQuantum pins the audit at the protocol's
// resolution: weights move in quanta of q = 2^-30, so a surplus of one
// quantum is weight from nowhere and a deficit of one is not exact.
func TestConservationAuditOneQuantum(t *testing.T) {
	const q = 1.0 / (1 << 30)
	m := New()
	m.SetExpectedWeight(16)
	m.ObserveWeight(16 + q)
	s := m.Status()
	if s.Conservation.Violations != 1 || s.Conservation.Exact {
		t.Errorf("one-quantum surplus: %+v, want one violation, not exact", s.Conservation)
	}
	m.ObserveWeight(16 - q)
	if s = m.Status(); s.Conservation.Violations != 1 || s.Conservation.Exact {
		t.Errorf("one-quantum deficit: %+v, want no new violation, not exact", s.Conservation)
	}
	m.ObserveWeight(16)
	if s = m.Status(); !s.Conservation.Exact {
		t.Errorf("balanced sample not exact: %+v", s.Conservation)
	}
}

func TestCrashAdjustsExpectedWeight(t *testing.T) {
	m := New()
	m.SetExpectedWeight(8)
	// A live kill reports the destroyed weight on the crash event.
	m.Record(trace.Event{Round: -1, Node: 3, Kind: trace.KindCrash, Value: 1.25})
	m.ObserveWeight(6.75)
	s := m.Status()
	if !s.Conservation.Exact {
		t.Fatalf("post-crash audit not exact: %+v", s.Conservation)
	}
	if s.NodeHealth[0].Node != 3 || !s.NodeHealth[0].Crashed {
		t.Errorf("crash not reflected in node health: %+v", s.NodeHealth)
	}
	// Recovery brings the node (and its restart weight) back.
	m.Record(trace.Event{Round: -1, Node: 3, Kind: trace.KindRecover, Value: 1})
	m.ObserveWeight(7.75)
	s = m.Status()
	if !s.Conservation.Exact {
		t.Fatalf("post-recover audit not exact: %+v", s.Conservation)
	}
	if s.NodeHealth[0].Crashed {
		t.Errorf("node still crashed after recover")
	}
}

func TestBackendFromRunHeader(t *testing.T) {
	m := New()
	m.Record(trace.RunHeader("tcp"))
	if s := m.Status(); s.Backend != "tcp" {
		t.Errorf("backend = %q, want tcp", s.Backend)
	}
}

func TestEventsRingAndFilter(t *testing.T) {
	m := New()
	const total = eventBuffer + 24
	for i := 0; i < total; i++ {
		kind := trace.KindSend
		if i%4 == 0 {
			kind = trace.KindSpread
		}
		m.Record(trace.Event{Round: i, Node: 0, Kind: kind, Value: float64(i)})
	}
	all := m.Events(nil, 0)
	if len(all) != eventBuffer {
		t.Fatalf("ring holds %d events, want %d", len(all), eventBuffer)
	}
	if all[0].Round != 24 || all[eventBuffer-1].Round != total-1 {
		t.Errorf("ring tail rounds %d..%d, want 24..%d", all[0].Round, all[eventBuffer-1].Round, total-1)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Round != all[i-1].Round+1 {
			t.Fatalf("ring not in order at %d: %+v", i, all[i-1:i+1])
		}
	}
	spreads := m.Events(map[trace.Kind]bool{trace.KindSpread: true}, 0)
	for _, e := range spreads {
		if e.Kind != trace.KindSpread {
			t.Fatalf("filter passed %q", e.Kind)
		}
	}
	if len(spreads) != eventBuffer/4 {
		t.Errorf("filtered %d spread events, want %d (every 4th of rounds 24..%d)", len(spreads), eventBuffer/4, total-1)
	}
	if tail := m.Events(nil, 3); len(tail) != 3 || tail[2].Round != total-1 {
		t.Errorf("tail(3) = %+v", tail)
	}
}

func TestCurveCapEviction(t *testing.T) {
	m := New()
	const total = curveCap + 200
	for i := 0; i < total; i++ {
		m.Record(trace.Event{Round: i, Node: -1, Kind: trace.KindSpread, Value: 1})
	}
	s := m.Status()
	if len(s.SpreadCurve) > curveCap {
		t.Fatalf("curve grew to %d past cap %d", len(s.SpreadCurve), curveCap)
	}
	if s.SpreadDropped == 0 {
		t.Fatalf("eviction not reported")
	}
	if got := len(s.SpreadCurve) + s.SpreadDropped; got != total {
		t.Errorf("retained+dropped = %d, want %d", got, total)
	}
	// Detector still saw every sample.
	if s.Convergence.Samples != total {
		t.Errorf("detector samples = %d, want %d", s.Convergence.Samples, total)
	}
}

func TestSetDetectionResets(t *testing.T) {
	m := New()
	feedSpread(m, 1, 2, 3)
	m.SetDetection(0.5, 2)
	s := m.Status()
	if s.Convergence.Samples != 0 || len(s.SpreadCurve) != 0 {
		t.Fatalf("SetDetection did not reset: %+v", s.Convergence)
	}
	if s.Convergence.Threshold != 0.5 || s.Convergence.Window != 2 {
		t.Errorf("parameters not applied: %+v", s.Convergence)
	}
}
