package causal_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"distclass"
	"distclass/internal/causal"
	"distclass/internal/replay"
	"distclass/internal/rng"
	"distclass/internal/trace"
)

var update = flag.Bool("update", false, "regenerate the fixture trace and rewrite the golden report files")

// fixtureOpts are the convergence parameters baked into the fixture
// run and applied again at analysis time, so the analyzer's detector
// agrees with the run's own.
const (
	fixtureN         = 16
	fixtureSeed      = 3
	fixtureTolerance = 0.05
)

// fixtureValues builds the fixture workload: two well-separated 2-D
// clusters, the engine-smoke shape.
func fixtureValues() []distclass.Value {
	r := rng.New(fixtureSeed)
	values := make([]distclass.Value, fixtureN)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c = 4
		}
		values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}
	return values
}

// regenFixture reruns the fixed-seed causal workload and rewrites
// testdata/fixture.trace.
func regenFixture(t *testing.T) {
	t.Helper()
	f, err := os.Create(filepath.Join("testdata", "fixture.trace"))
	if err != nil {
		t.Fatalf("create fixture: %v", err)
	}
	defer f.Close()
	rec := trace.NewBufferedRecorder(f)
	sys, err := distclass.New(fixtureValues(), distclass.GaussianMixture(),
		distclass.WithK(2),
		distclass.WithSeed(fixtureSeed),
		distclass.WithTolerance(fixtureTolerance),
		distclass.WithMaxRounds(60),
		distclass.WithTrace(rec),
		distclass.WithCausal(),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, converged, err := sys.RunUntilConverged(); err != nil || !converged {
		t.Fatalf("fixture run: converged=%v err=%v", converged, err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("flush fixture: %v", err)
	}
}

// analyzeFixture replays the committed fixture trace with the
// fixture's own convergence parameters and returns its causal section.
func analyzeFixture(t *testing.T) *causal.Report {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "fixture.trace"))
	if err != nil {
		t.Fatalf("open fixture (run `go test ./internal/causal -update` to create it): %v", err)
	}
	defer f.Close()
	rep, err := replay.Analyze(f, replay.Options{Threshold: fixtureTolerance})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Causal == nil {
		t.Fatal("fixture replay has no causal section")
	}
	return rep.Causal
}

// TestGoldenReports renders the fixture report in both formats and
// compares byte-for-byte against the committed golden files. Run with
// -update after an intentional output change (this also regenerates
// the fixture trace itself).
func TestGoldenReports(t *testing.T) {
	if *update {
		regenFixture(t)
	}
	rep := analyzeFixture(t)
	renders := []struct {
		name   string
		render func(rep *causal.Report) ([]byte, error)
	}{
		{"fixture.txt", func(rep *causal.Report) ([]byte, error) {
			var buf bytes.Buffer
			err := rep.WriteText(&buf)
			return buf.Bytes(), err
		}},
		{"fixture.json", func(rep *causal.Report) ([]byte, error) {
			var buf bytes.Buffer
			err := rep.WriteJSON(&buf)
			return buf.Bytes(), err
		}},
	}
	for _, r := range renders {
		t.Run(r.name, func(t *testing.T) {
			got, err := r.render(rep)
			if err != nil {
				t.Fatalf("render: %v", err)
			}
			again, err := r.render(rep)
			if err != nil {
				t.Fatalf("second render: %v", err)
			}
			if !bytes.Equal(got, again) {
				t.Fatalf("two renders of the same report differ")
			}
			path := filepath.Join("testdata", r.name)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run `go test ./internal/causal -update` to create it): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s diverges from the golden file; run with -update if the change is intentional\ngot:\n%s", r.name, got)
			}
		})
	}
}

// TestFixtureAnalysisIsDeterministic analyzes the fixture twice and
// requires identical JSON — the analyzer must be free of map-order
// leaks, not just the renderers.
func TestFixtureAnalysisIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := analyzeFixture(t).WriteJSON(&a); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := analyzeFixture(t).WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("two analyses of the same trace produced different reports")
	}
}

// TestFixtureCausalContract pins the acceptance criteria on the
// committed fixture: every send matched, no anomalies, a critical
// path consistent with the detected convergence round, and an exact
// provenance ledger.
func TestFixtureCausalContract(t *testing.T) {
	rep := analyzeFixture(t)
	if rep.Nodes != fixtureN {
		t.Errorf("nodes = %d, want %d", rep.Nodes, fixtureN)
	}
	if rep.Sends == 0 || rep.Sends != rep.Receives || rep.Sends != rep.Matched {
		t.Errorf("sends/receives/matched = %d/%d/%d, want all equal and non-zero",
			rep.Sends, rep.Receives, rep.Matched)
	}
	if rep.OrphanSends != 0 || rep.UnmatchedReceives != 0 || rep.Duplicates != 0 {
		t.Errorf("orphans/unmatched/duplicates = %d/%d/%d, want all zero",
			rep.OrphanSends, rep.UnmatchedReceives, rep.Duplicates)
	}
	if len(rep.Anomalies) != 0 {
		t.Errorf("anomalies: %+v", rep.Anomalies)
	}
	if !rep.Converged {
		t.Fatalf("fixture did not converge")
	}
	// On the round driver a causal chain grows at most one hop per
	// round per node pair, starting in round 0: the critical path from
	// the initial state to convergence cannot be longer than the
	// convergence round count.
	if got, max := len(rep.CriticalPath), rep.ConvergedRound+1; got == 0 || got > max {
		t.Errorf("critical path = %d hops, want within (0, %d]", got, max)
	}
	// Hop depths on the path must be strictly increasing and clocks
	// strictly ordered within each hop.
	for i, h := range rep.CriticalPath {
		if h.Depth != i+1 {
			t.Errorf("hop %d has depth %d, want %d", i, h.Depth, i+1)
		}
		if h.RecvClock <= h.SendClock {
			t.Errorf("hop %d clocks %d -> %d not increasing", i, h.SendClock, h.RecvClock)
		}
	}
	// Exact provenance: each origin's invariant column is exactly its
	// unit initial weight, and float drift stays at rounding scale.
	lr := rep.Ledger
	if lr.ExpectedTotal != float64(fixtureN) {
		t.Errorf("ledger expected total = %v, want exactly %d", lr.ExpectedTotal, fixtureN)
	}
	for _, o := range lr.Origins {
		if o.Expected != 1 {
			t.Errorf("origin %d expected = %v, want exactly 1", o.Origin, o.Expected)
		}
	}
	if lr.MaxColumnDrift > 1e-9 {
		t.Errorf("max column drift = %v, want <= 1e-9", lr.MaxColumnDrift)
	}
	if lr.InFlight != 0 || lr.Destroyed != 0 {
		t.Errorf("in-flight/destroyed = %v/%v, want both zero on a lossless run", lr.InFlight, lr.Destroyed)
	}
}

// TestLedgerMatchesConservationAudit is the causal cross-check: the
// provenance ledger's invariant totals must equal the monitor's
// conservation audit exactly — same run, two independent accountings
// of the same weight.
func TestLedgerMatchesConservationAudit(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	mon := distclass.NewMonitor()
	sys, err := distclass.New(fixtureValues(), distclass.GaussianMixture(),
		distclass.WithK(2),
		distclass.WithSeed(fixtureSeed),
		distclass.WithTolerance(fixtureTolerance),
		distclass.WithMaxRounds(60),
		distclass.WithTrace(rec),
		distclass.WithCausal(),
		distclass.WithMonitor(mon),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, converged, err := sys.RunUntilConverged(); err != nil || !converged {
		t.Fatalf("run: converged=%v err=%v", converged, err)
	}
	run, err := replay.Analyze(bytes.NewReader(buf.Bytes()), replay.Options{Threshold: fixtureTolerance})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	rep := run.Causal
	st := mon.Status()
	if !st.Conservation.Audited {
		t.Fatalf("conservation audit not armed")
	}
	// Exact equality, not approximate: both sides are invariant sums
	// over the q-grid, and any gap means the two accountings disagree
	// about what weight exists.
	if rep.Ledger.ExpectedTotal != st.Conservation.Expected {
		t.Errorf("ledger expected total %v != conservation expected %v",
			rep.Ledger.ExpectedTotal, st.Conservation.Expected)
	}
	if st.Conservation.Latest != st.Conservation.Expected {
		t.Errorf("final observed weight %v != expected %v (sim rounds leave nothing in flight)",
			st.Conservation.Latest, st.Conservation.Expected)
	}
	if got := rep.Ledger.ActualTotal; got < rep.Ledger.ExpectedTotal-1e-9 || got > rep.Ledger.ExpectedTotal+1e-9 {
		t.Errorf("ledger actual total %v drifts beyond 1e-9 from expected %v", got, rep.Ledger.ExpectedTotal)
	}
	if st.Causal == nil {
		t.Fatalf("monitor status has no causal section on a causal run")
	}
	if st.Causal.MaxClock == 0 || st.Causal.MaxClock != rep.MaxClock {
		t.Errorf("monitor max clock %d != analyzer max clock %d", st.Causal.MaxClock, rep.MaxClock)
	}
	if st.Causal.ClockSkew != rep.ClockSkew || st.Causal.MaxDepth != rep.MaxDepth {
		t.Errorf("monitor skew/depth %d/%d != analyzer %d/%d",
			st.Causal.ClockSkew, st.Causal.MaxDepth, rep.ClockSkew, rep.MaxDepth)
	}
}
