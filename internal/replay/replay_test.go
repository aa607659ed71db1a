package replay

import (
	"strings"
	"testing"

	"distclass/internal/trace"
)

// record builds a JSONL trace from events.
func record(t *testing.T, events ...trace.Event) string {
	t.Helper()
	var buf strings.Builder
	rec := trace.NewRecorder(&buf)
	for _, e := range events {
		if err := rec.Record(e); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	return buf.String()
}

// spreadAt is shorthand for a spread probe event.
func spreadAt(round int, v float64) trace.Event {
	return trace.Event{Round: round, Node: -1, Kind: trace.KindSpread, Value: v}
}

func analyzeString(t *testing.T, s string, opts Options) *RunReport {
	t.Helper()
	rep, err := Analyze(strings.NewReader(s), opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep
}

func TestNeverConverges(t *testing.T) {
	s := record(t, spreadAt(0, 0.5), spreadAt(1, 0.4), spreadAt(2, 0.3))
	rep := analyzeString(t, s, Options{})
	c := rep.Convergence
	if c.Converged {
		t.Errorf("converged on an always-above-threshold trace")
	}
	if c.ConvergedRound != -1 || c.RoundsToConverge != 0 {
		t.Errorf("ConvergedRound = %d, RoundsToConverge = %d, want -1 and 0", c.ConvergedRound, c.RoundsToConverge)
	}
	if c.FirstStableRound != -1 {
		t.Errorf("FirstStableRound = %d, want -1 (final sample above threshold)", c.FirstStableRound)
	}
	if c.FinalSpread != 0.3 || c.MinSpread != 0.3 {
		t.Errorf("FinalSpread = %v, MinSpread = %v, want 0.3 and 0.3", c.FinalSpread, c.MinSpread)
	}
	if rep.Anomalies.DivergentRounds != 0 {
		t.Errorf("DivergentRounds = %d on a never-converged run", rep.Anomalies.DivergentRounds)
	}
}

func TestConvergesAtRoundZero(t *testing.T) {
	s := record(t, spreadAt(0, 1e-6))
	rep := analyzeString(t, s, Options{Window: 1})
	c := rep.Convergence
	if !c.Converged || c.ConvergedRound != 0 || c.RoundsToConverge != 1 {
		t.Errorf("got converged=%v round=%d rounds=%d, want true/0/1", c.Converged, c.ConvergedRound, c.RoundsToConverge)
	}
	if c.FirstStableRound != 0 {
		t.Errorf("FirstStableRound = %d, want 0", c.FirstStableRound)
	}
}

func TestRediverges(t *testing.T) {
	s := record(t,
		spreadAt(0, 1e-4), spreadAt(1, 1e-4), spreadAt(2, 1e-4),
		spreadAt(3, 0.5), spreadAt(4, 1e-4),
	)
	rep := analyzeString(t, s, Options{})
	c := rep.Convergence
	if !c.Converged || c.ConvergedRound != 2 {
		t.Fatalf("got converged=%v round=%d, want true/2", c.Converged, c.ConvergedRound)
	}
	if rep.Anomalies.DivergentRounds != 1 {
		t.Errorf("DivergentRounds = %d, want 1", rep.Anomalies.DivergentRounds)
	}
	if c.FirstStableRound != 4 {
		t.Errorf("FirstStableRound = %d, want 4 (the sample after the re-divergence)", c.FirstStableRound)
	}
	if rep.Anomalies.Count != 1 {
		t.Errorf("anomaly count = %d, want 1 (the divergent round)", rep.Anomalies.Count)
	}
}

func TestStalledNodeDetected(t *testing.T) {
	var events []trace.Event
	for round := 0; round < 10; round++ {
		events = append(events, trace.Event{Round: round, Node: 0, Kind: trace.KindSend})
		if round < 3 {
			events = append(events, trace.Event{Round: round, Node: 1, Kind: trace.KindSend})
		}
	}
	rep := analyzeString(t, record(t, events...), Options{StallSlack: 2})
	if len(rep.NodeHealth) != 2 {
		t.Fatalf("NodeHealth has %d entries, want 2", len(rep.NodeHealth))
	}
	h0, h1 := rep.NodeHealth[0], rep.NodeHealth[1]
	if h0.Stalled || h0.Staleness != 0 {
		t.Errorf("node 0: stalled=%v staleness=%d, want active", h0.Stalled, h0.Staleness)
	}
	if !h1.Stalled || h1.Staleness != 7 {
		t.Errorf("node 1: stalled=%v staleness=%d, want stalled with staleness 7", h1.Stalled, h1.Staleness)
	}
	if len(rep.Anomalies.StalledNodes) != 1 || rep.Anomalies.StalledNodes[0] != 1 {
		t.Errorf("StalledNodes = %v, want [1]", rep.Anomalies.StalledNodes)
	}
}

func TestCrashedNodeNotStalled(t *testing.T) {
	var events []trace.Event
	for round := 0; round < 10; round++ {
		events = append(events, trace.Event{Round: round, Node: 0, Kind: trace.KindSend})
		if round == 0 {
			events = append(events, trace.Event{Round: round, Node: 1, Kind: trace.KindSend})
		}
		if round == 1 {
			events = append(events, trace.Event{Round: round, Node: 1, Kind: trace.KindCrash})
		}
	}
	rep := analyzeString(t, record(t, events...), Options{StallSlack: 2})
	h1 := rep.NodeHealth[1]
	if !h1.Crashed {
		t.Errorf("node 1 not marked crashed")
	}
	if h1.Stalled {
		t.Errorf("crashed node 1 counted as stalled")
	}
	if rep.Anomalies.Count != 0 {
		t.Errorf("anomaly count = %d, want 0 (crashes are expected events)", rep.Anomalies.Count)
	}
}

func TestRoundRegressionCounted(t *testing.T) {
	s := record(t,
		spreadAt(5, 0.5),
		trace.Event{Round: 2, Node: 0, Kind: trace.KindSend},
	)
	rep := analyzeString(t, s, Options{})
	if rep.Anomalies.RoundRegressions != 1 {
		t.Errorf("RoundRegressions = %d, want 1", rep.Anomalies.RoundRegressions)
	}
	if rep.Anomalies.Count != 1 {
		t.Errorf("anomaly count = %d, want 1", rep.Anomalies.Count)
	}
}

func TestRoundlessEventsDoNotRegress(t *testing.T) {
	// Live traces carry Round -1 everywhere; that must not count as the
	// round moving backwards, nor create per-round rows.
	s := record(t,
		trace.Event{Round: -1, Node: 0, Kind: trace.KindSend, Value: 100},
		trace.Event{Round: -1, Node: 1, Kind: trace.KindReceive, Value: 2},
		trace.Event{Round: -1, Node: 0, Kind: trace.KindSend, Value: 90},
	)
	rep := analyzeString(t, s, Options{})
	if rep.Anomalies.RoundRegressions != 0 {
		t.Errorf("RoundRegressions = %d on a round-less trace", rep.Anomalies.RoundRegressions)
	}
	if rep.Rounds != 0 || len(rep.PerRound) != 0 {
		t.Errorf("rounds = %d, per-round rows = %d, want 0 and 0", rep.Rounds, len(rep.PerRound))
	}
	if rep.Messaging.SentBytes != 190 {
		t.Errorf("SentBytes = %v, want 190", rep.Messaging.SentBytes)
	}
	if h := rep.NodeHealth[0]; h.LastActivityRound != -1 || h.Staleness != -1 {
		t.Errorf("round-less node health = %+v, want last-activity -1, staleness -1", h)
	}
}

func TestRunHeaderBackend(t *testing.T) {
	s := record(t,
		trace.RunHeader("chan"),
		trace.Event{Round: 0, Node: 0, Kind: trace.KindSend},
		spreadAt(0, 0.5),
	)
	rep := analyzeString(t, s, Options{})
	if rep.Backend != "chan" {
		t.Errorf("Backend = %q, want %q", rep.Backend, "chan")
	}
	// The header is metadata (Round -1, Node -1): it must count as an
	// event but stay out of round, node and anomaly accounting.
	if rep.Events != 3 {
		t.Errorf("Events = %d, want 3", rep.Events)
	}
	if rep.Rounds != 1 || rep.Nodes != 1 {
		t.Errorf("Rounds = %d, Nodes = %d, want 1 and 1", rep.Rounds, rep.Nodes)
	}
	if rep.Anomalies.Count != 0 {
		t.Errorf("header introduced %d anomalies", rep.Anomalies.Count)
	}

	other := analyzeString(t, record(t, spreadAt(0, 0.5)), Options{})
	d := NewDiff(rep, other)
	if d.BackendA != "chan" || d.BackendB != "" {
		t.Errorf("diff backends = %q vs %q, want %q vs %q", d.BackendA, d.BackendB, "chan", "")
	}
}

func TestEmptyTrace(t *testing.T) {
	rep := analyzeString(t, "", Options{})
	if rep.Events != 0 || rep.Rounds != 0 || rep.Nodes != 0 {
		t.Errorf("empty trace report: %+v", rep)
	}
	if rep.Convergence.Converged {
		t.Errorf("empty trace converged")
	}
	if rep.Anomalies.Count != 0 {
		t.Errorf("empty trace has %d anomalies", rep.Anomalies.Count)
	}
}

// TestSentBytesSurfaced pins the byte accounting: live-style sends
// (Value = encoded payload bytes) must surface as a network-wide mean
// and per-node totals, while sim traces — whose sends carry no size —
// must keep exactly the report they always had (no byte lines, fields
// omitted).
func TestSentBytesSurfaced(t *testing.T) {
	s := record(t,
		trace.Event{Round: -1, Node: 0, Kind: trace.KindSend, Value: 100},
		trace.Event{Round: -1, Node: 0, Kind: trace.KindSend, Value: 60},
		trace.Event{Round: -1, Node: 1, Kind: trace.KindSend, Value: 80},
	)
	rep := analyzeString(t, s, Options{})
	if rep.Messaging.SentBytes != 240 {
		t.Errorf("SentBytes = %v, want 240", rep.Messaging.SentBytes)
	}
	if rep.Messaging.BytesPerSend != 80 {
		t.Errorf("BytesPerSend = %v, want 80", rep.Messaging.BytesPerSend)
	}
	if len(rep.NodeHealth) != 2 {
		t.Fatalf("NodeHealth has %d entries, want 2", len(rep.NodeHealth))
	}
	if rep.NodeHealth[0].SentBytes != 160 || rep.NodeHealth[1].SentBytes != 80 {
		t.Errorf("per-node bytes = %v and %v, want 160 and 80",
			rep.NodeHealth[0].SentBytes, rep.NodeHealth[1].SentBytes)
	}
	var buf strings.Builder
	if err := rep.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"bytes/send: 80 (mean encoded message size)", "per-node bytes:    min 80 / mean 120 / max 160"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, buf.String())
		}
	}

	// Sim-style sends (no sizes): byte lines absent, derived field zero.
	sim := analyzeString(t, record(t, trace.Event{Round: 0, Node: 0, Kind: trace.KindSend}), Options{})
	if sim.Messaging.BytesPerSend != 0 {
		t.Errorf("sim BytesPerSend = %v, want 0", sim.Messaging.BytesPerSend)
	}
	buf.Reset()
	if err := sim.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if strings.Contains(buf.String(), "bytes/send") || strings.Contains(buf.String(), "per-node bytes") {
		t.Errorf("sim report grew byte lines:\n%s", buf.String())
	}
}

// TestCappedAnalyzerKeepsNoRoundTable pins the long-lived observer's
// memory bound: a capped Analyzer counts rounds but keeps no per-round
// rows, while an uncapped one keeps one row per round with an event.
func TestCappedAnalyzerKeepsNoRoundTable(t *testing.T) {
	events := []trace.Event{
		spreadAt(0, 0.5),
		{Round: 7, Node: 0, Kind: trace.KindSend},
		spreadAt(9, 0.5),
	}
	for _, tc := range []struct {
		curveCap, rows int
	}{{0, 3}, {4, 0}} {
		a := NewAnalyzer(Options{}, tc.curveCap)
		for _, e := range events {
			a.Observe(e)
		}
		rep := a.Report()
		if rep.Rounds != 10 || len(rep.PerRound) != tc.rows {
			t.Errorf("curveCap %d: rounds = %d, per-round rows = %d; want 10 and %d",
				tc.curveCap, rep.Rounds, len(rep.PerRound), tc.rows)
		}
	}
}
