// Cross-checks between the offline replay analysis and the online
// observability paths: a replayed trace must agree with what the live
// run computed while it ran. These tests live in package replay_test
// because they drive the full system (root package and experiments
// harness), which the replay package itself must not import.
package replay_test

import (
	"strings"
	"testing"

	"distclass"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/replay"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// TestConvergenceMatchesOnline runs a traced fixed-seed system to
// convergence and replays its trace: the offline detector must report
// the exact round count and final spread the online detector saw.
func TestConvergenceMatchesOnline(t *testing.T) {
	const n = 32
	r := rng.New(11)
	values := make([]distclass.Value, n)
	for i := range values {
		cx := float64(i%2) * 10
		values[i] = distclass.Value{cx + r.Normal(0, 1), r.Normal(0, 1)}
	}
	var buf strings.Builder
	rec := trace.NewRecorder(&buf)
	sys, err := distclass.New(values, distclass.GaussianMixture(),
		distclass.WithSeed(11), distclass.WithTrace(rec))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rounds, converged, err := sys.RunUntilConverged()
	if err != nil {
		t.Fatalf("RunUntilConverged: %v", err)
	}
	if !converged {
		t.Fatalf("online run did not converge in %d rounds", rounds)
	}
	onlineSpread, err := sys.Spread()
	if err != nil {
		t.Fatalf("Spread: %v", err)
	}

	rep, err := replay.Analyze(strings.NewReader(buf.String()), replay.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	c := rep.Convergence
	if c.Converged != converged {
		t.Errorf("replay converged = %v, online = %v", c.Converged, converged)
	}
	if c.RoundsToConverge != rounds {
		t.Errorf("replay rounds to converge = %d, online = %d", c.RoundsToConverge, rounds)
	}
	// The run stopped the round it converged, so the last recorded
	// spread probe is the value the online detector last computed — and
	// recomputing it on the quiesced system gives the same number.
	if c.FinalSpread != onlineSpread {
		t.Errorf("replay final spread = %v, online = %v", c.FinalSpread, onlineSpread)
	}
	if rep.Anomalies.Count != 0 {
		t.Errorf("healthy run reports %d anomalies: %v", rep.Anomalies.Count, rep.Anomalies.Notes)
	}
}

// TestFinalErrorMatchesOnline replays a Figure 4 trace: the last
// error probe must equal the final error of the last traced run (the
// robust crash run), exactly as the harness computed it online. The
// trace holds two sequential runs, which the analyzer must surface as
// round regressions rather than silently misreading.
func TestFinalErrorMatchesOnline(t *testing.T) {
	var buf strings.Builder
	rec := trace.NewRecorder(&buf)
	cfg := experiments.Fig4Config{NGood: 57, NOut: 3, Rounds: 15, Seed: 3, Trace: rec}
	rows, err := experiments.RunFigure4(cfg)
	if err != nil {
		t.Fatalf("RunFigure4: %v", err)
	}
	online := rows[len(rows)-1].RobustCrash

	rep, err := replay.Analyze(strings.NewReader(buf.String()), replay.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Convergence.FinalError != online {
		t.Errorf("replay final error = %v, online robust-crash error = %v", rep.Convergence.FinalError, online)
	}
	// Both robust runs probe error every round.
	if want := 2 * cfg.Rounds; rep.Convergence.ErrorSamples != want {
		t.Errorf("error samples = %d, want %d (two traced runs)", rep.Convergence.ErrorSamples, want)
	}
	if rep.Anomalies.RoundRegressions == 0 {
		t.Errorf("two sequential runs in one file produced no round regressions")
	}
}

// TestAsyncCrashTraceAnalyzes replays an async run with crash
// injection until every node is dead. Async events carry the driver's
// step index, and a step that picks a dead node emits nothing, so the
// round numbers outrun the event count. The analysis must still
// succeed, with one per-round row per round that carried an event and
// no round moving backwards.
func TestAsyncCrashTraceAnalyzes(t *testing.T) {
	const n = 50
	r := rng.New(5)
	values := make([]core.Value, n)
	for i := range values {
		values[i] = core.Value{float64(i%2)*10 + r.Normal(0, 1), r.Normal(0, 1)}
	}
	var buf strings.Builder
	rec := trace.NewRecorder(&buf)
	eng, err := engine.New(engine.Config{
		Backend: engine.BackendAsync, Method: distclass.GaussianMixture(),
		Values: values, Topology: topology.KindFull, Seed: 1, CrashProb: 0.05, Trace: rec,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer eng.Stop()
	if err := eng.Run(200); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if eng.AliveCount() != 0 {
		t.Fatalf("%d nodes still alive, want a run until every node crashed", eng.AliveCount())
	}
	rep, err := replay.Analyze(strings.NewReader(buf.String()), replay.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Rounds <= rep.Events {
		t.Fatalf("%d rounds from %d events: the trace no longer has rounds outrunning events", rep.Rounds, rep.Events)
	}
	if rep.Messaging.Crashes != n {
		t.Errorf("crashes = %d, want %d", rep.Messaging.Crashes, n)
	}
	// Spread probes share the step axis with the crash phase's kills.
	if rep.Anomalies.RoundRegressions != 0 {
		t.Errorf("round regressions = %d, want 0", rep.Anomalies.RoundRegressions)
	}
	if len(rep.PerRound) > rep.Events {
		t.Errorf("%d per-round rows from %d events", len(rep.PerRound), rep.Events)
	}
	for i := 1; i < len(rep.PerRound); i++ {
		if rep.PerRound[i].Round <= rep.PerRound[i-1].Round {
			t.Fatalf("per-round rows out of order at %d: round %d after %d", i, rep.PerRound[i].Round, rep.PerRound[i-1].Round)
		}
	}
}
