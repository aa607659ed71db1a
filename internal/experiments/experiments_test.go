package experiments

import (
	"math"
	"strings"
	"testing"

	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/vec"
)

func TestFigure2TrueMixture(t *testing.T) {
	mix := Figure2TrueMixture()
	if len(mix) != 3 {
		t.Fatalf("components = %d, want 3", len(mix))
	}
	if math.Abs(mix.TotalWeight()-1) > 1e-12 {
		t.Errorf("weights sum to %v, want 1", mix.TotalWeight())
	}
	for i, c := range mix {
		if c.Dim() != 2 {
			t.Errorf("component %d dim = %d", i, c.Dim())
		}
		if _, err := c.Condition(0); err != nil {
			t.Errorf("component %d covariance not usable: %v", i, err)
		}
	}
}

func TestFigure2Dataset(t *testing.T) {
	r := rng.New(1)
	values, err := Figure2Dataset(500, r)
	if err != nil {
		t.Fatalf("Figure2Dataset: %v", err)
	}
	if len(values) != 500 {
		t.Fatalf("len = %d", len(values))
	}
	for _, v := range values {
		if v.Dim() != 2 || !v.IsFinite() {
			t.Fatalf("bad value %v", v)
		}
	}
}

func TestFigure3Dataset(t *testing.T) {
	r := rng.New(2)
	values, outlier, err := Figure3Dataset(950, 50, 10, r)
	if err != nil {
		t.Fatalf("Figure3Dataset: %v", err)
	}
	if len(values) != 1000 || len(outlier) != 1000 {
		t.Fatalf("sizes %d/%d", len(values), len(outlier))
	}
	// At delta=10 nearly all bad draws are ground-truth outliers and few
	// good draws are.
	badFlagged, goodFlagged := 0, 0
	for i, o := range outlier {
		if i >= 950 && o {
			badFlagged++
		}
		if i < 950 && o {
			goodFlagged++
		}
	}
	if badFlagged < 48 {
		t.Errorf("only %d/50 bad values flagged as outliers", badFlagged)
	}
	if goodFlagged > 25 {
		t.Errorf("%d/950 good values flagged as outliers", goodFlagged)
	}
	if _, _, err := Figure3Dataset(0, 0, 1, r); err == nil {
		t.Errorf("empty dataset should error")
	}
}

func TestStandardNormalDensity2D(t *testing.T) {
	want := 1 / (2 * math.Pi)
	if got := StandardNormalDensity2D(vec.Of(0, 0)); math.Abs(got-want) > 1e-12 {
		t.Errorf("density(0,0) = %v, want %v", got, want)
	}
	if got := StandardNormalDensity2D(vec.Of(0)); got != 0 {
		t.Errorf("wrong-dim density = %v, want 0", got)
	}
	// fmin threshold sanity: a point 5 sigma out is an outlier.
	if StandardNormalDensity2D(vec.Of(0, 5)) >= FMin {
		t.Errorf("(0,5) should be below fmin")
	}
	if StandardNormalDensity2D(vec.Of(0, 1)) < FMin {
		t.Errorf("(0,1) should be above fmin")
	}
}

func TestRunFigure1(t *testing.T) {
	res, err := RunFigure1()
	if err != nil {
		t.Fatalf("RunFigure1: %v", err)
	}
	if res.CentroidPick != "A" {
		t.Errorf("centroid rule picked %s, want A (nearer centroid)", res.CentroidPick)
	}
	if res.GMPick != "B" {
		t.Errorf("GM rule picked %s, want B (larger variance)", res.GMPick)
	}
	if !(res.DistToA < res.DistToB) {
		t.Errorf("scenario broken: dist to A (%v) should be < dist to B (%v)", res.DistToA, res.DistToB)
	}
	if !(res.LogDensB > res.LogDensA) {
		t.Errorf("scenario broken: log density under B (%v) should exceed A (%v)", res.LogDensB, res.LogDensA)
	}
	table := res.Table()
	if !strings.Contains(table, "Gaussian rule picks B") {
		t.Errorf("Table output missing verdict:\n%s", table)
	}
}

func TestRunFigure2Small(t *testing.T) {
	res, err := RunFigure2(Fig2Config{N: 120, K: 7, MaxRounds: 40, Seed: 7})
	if err != nil {
		t.Fatalf("RunFigure2: %v", err)
	}
	if len(res.Estimated) == 0 || len(res.Estimated) > 7 {
		t.Fatalf("estimated components = %d", len(res.Estimated))
	}
	// Node 0 holds only part of the global weight, but its mixture's
	// relative weights describe all inputs; check it covers the true
	// cluster means.
	if res.MeanCoverError > 1.5 {
		t.Errorf("MeanCoverError = %v, want < 1.5", res.MeanCoverError)
	}
	if res.ConvergedRound < 0 {
		t.Logf("did not converge within budget (spread %v) — acceptable for small N", res.FinalSpread)
	}
	if table := res.Table(); !strings.Contains(table, "mean cover error") {
		t.Errorf("Table missing summary line:\n%s", table)
	}
}

// TestFigure2EveryNodeConverged pins ε-accuracy at the worst node
// (Dimakis et al.): when Figure 2 reports convergence, every node's
// classification is within the convergence threshold of node 0's. A
// sparse probe can miss this: watching 4 evenly spaced nodes, this run
// looks converged at round 31 while 401 of its 1000 nodes are more
// than 1e-3 from node 0.
func TestFigure2EveryNodeConverged(t *testing.T) {
	const bound = 1e-3 // the engine's default Tolerance
	res, eng, err := runFigure2(Fig2Config{Seed: 1})
	if err != nil {
		t.Fatalf("runFigure2: %v", err)
	}
	if res.ConvergedRound < 0 {
		t.Fatalf("Figure 2 did not converge in %d rounds (spread %v)", res.RoundsRun, res.FinalSpread)
	}
	var worst float64
	far := 0
	for i := 1; i < eng.N(); i++ {
		d, err := eng.Node(i).DissimilarityTo(eng.Node(0))
		if err != nil {
			t.Fatalf("DissimilarityTo: %v", err)
		}
		if d >= bound {
			far++
		}
		worst = math.Max(worst, d)
	}
	if far > 0 {
		t.Errorf("converged at round %d with %d nodes at least %v from node 0 (farthest %v)",
			res.ConvergedRound, far, bound, worst)
	}
}

func TestRunFigure3SmallSweep(t *testing.T) {
	cfg := Fig3Config{
		NGood:  190,
		NOut:   10,
		Deltas: []float64{3.8, 10, 20},
		Rounds: 30,
		Seed:   3,
	}
	rows, err := RunFigure3(cfg)
	if err != nil {
		t.Fatalf("RunFigure3: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Shape checks from the paper:
	// At delta=3.8 the outliers overlap the good data's tail: high miss
	// rate, but (as the paper notes) the proximity means the misses
	// barely hurt the estimated average.
	if rows[0].MissPct < 50 {
		t.Errorf("delta=3.8 miss%% = %v, want high (overlapping outliers)", rows[0].MissPct)
	}
	if rows[0].RobustErr > 0.5 {
		t.Errorf("delta=3.8 robust err = %v, want small despite misses", rows[0].RobustErr)
	}
	// At delta=20 the outliers are cleanly separated: low miss rate.
	if rows[2].MissPct > 20 {
		t.Errorf("delta=20 miss%% = %v, want low", rows[2].MissPct)
	}
	// Regular error grows with delta (~ fraction * delta).
	if !(rows[2].RegularErr > rows[0].RegularErr*2) {
		t.Errorf("regular error should grow with delta: %v vs %v", rows[2].RegularErr, rows[0].RegularErr)
	}
	// Robust error at large delta is far below regular error.
	if !(rows[2].RobustErr < rows[2].RegularErr/2) {
		t.Errorf("robust error %v should be well below regular %v at delta=20",
			rows[2].RobustErr, rows[2].RegularErr)
	}
	if table := Fig3Table(rows); !strings.Contains(table, "missed outliers %") {
		t.Errorf("Fig3Table header missing:\n%s", table)
	}
}

func TestRunFigure4Small(t *testing.T) {
	cfg := Fig4Config{
		NGood:     190,
		NOut:      10,
		Delta:     10,
		Rounds:    25,
		CrashProb: 0.05,
		Seed:      4,
	}
	rows, err := RunFigure4(cfg)
	if err != nil {
		t.Fatalf("RunFigure4: %v", err)
	}
	if len(rows) != 25 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	// Regular aggregation converges to the contaminated mean: error ~
	// nOut/n * delta = 0.5.
	if last.RegularNoCrash < 0.3 || last.RegularNoCrash > 0.8 {
		t.Errorf("regular error = %v, want ~0.5", last.RegularNoCrash)
	}
	// Robust error must beat regular.
	if !(last.RobustNoCrash < last.RegularNoCrash) {
		t.Errorf("robust %v should beat regular %v", last.RobustNoCrash, last.RegularNoCrash)
	}
	// Crash traces exist and stay finite.
	if math.IsNaN(last.RobustCrash) || math.IsNaN(last.RegularCrash) {
		t.Errorf("crash traces produced NaN: %+v", last)
	}
	if table := Fig4Table(rows); !strings.Contains(table, "robust+crash") {
		t.Errorf("Fig4Table header missing:\n%s", table)
	}
}

func TestRunTopologyAblation(t *testing.T) {
	cfg := AblationConfig{N: 36, MaxRounds: 200, Seed: 5}
	kinds := []topology.Kind{topology.KindFull, topology.KindGrid, topology.KindER}
	runs, err := RunTopologyAblation(kinds, cfg)
	if err != nil {
		t.Fatalf("RunTopologyAblation: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, run := range runs {
		if run.Rounds < 0 {
			t.Errorf("%s did not converge (spread %v)", run.Label, run.FinalSpread)
		}
		if run.Messages == 0 {
			t.Errorf("%s sent no messages", run.Label)
		}
		if run.AvgPayload <= 0 || run.AvgPayload > 2.01 {
			t.Errorf("%s avg payload = %v, want in (0, k]", run.Label, run.AvgPayload)
		}
	}
	if table := ConvergenceTable(runs); !strings.Contains(table, "rounds") {
		t.Errorf("ConvergenceTable header missing:\n%s", table)
	}
}

func TestRunTopologyAblationRing(t *testing.T) {
	// Rings mix in Theta(n^2) rounds (Boyd et al.), so a small ring and a
	// generous budget: convergence is guaranteed by the paper's Theorem 1
	// on any connected topology, just slowly here.
	if testing.Short() {
		t.Skip("slow ring mixing")
	}
	cfg := AblationConfig{N: 16, MaxRounds: 2500, Seed: 5}
	runs, err := RunTopologyAblation([]topology.Kind{topology.KindRing}, cfg)
	if err != nil {
		t.Fatalf("RunTopologyAblation: %v", err)
	}
	if runs[0].Rounds < 0 {
		t.Errorf("ring did not converge within %d rounds (spread %v)",
			cfg.MaxRounds, runs[0].FinalSpread)
	}
	// A full mesh on the same data must converge much faster than the
	// ring's quadratic mixing.
	fullRuns, err := RunTopologyAblation([]topology.Kind{topology.KindFull}, cfg)
	if err != nil {
		t.Fatalf("RunTopologyAblation(full): %v", err)
	}
	if fullRuns[0].Rounds < 0 || fullRuns[0].Rounds > runs[0].Rounds {
		t.Errorf("full (%d rounds) should converge no slower than ring (%d rounds)",
			fullRuns[0].Rounds, runs[0].Rounds)
	}
}

func TestRunKQuality(t *testing.T) {
	rows, err := RunKQuality([]int{2, 7}, 100, 30, 6)
	if err != nil {
		t.Fatalf("RunKQuality: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Components < 1 || row.Components > row.K {
			t.Errorf("k=%d: components = %d", row.K, row.Components)
		}
	}
	// More components should not describe the 3-cluster data much worse.
	if rows[1].MeanCoverError > rows[0].MeanCoverError*2+0.5 {
		t.Errorf("k=7 cover error %v much worse than k=2 %v",
			rows[1].MeanCoverError, rows[0].MeanCoverError)
	}
}

func TestRunQAblation(t *testing.T) {
	cfg := AblationConfig{N: 32, MaxRounds: 120, Seed: 7}
	rows, err := RunQAblation([]float64{0.25, 1.0 / 64, 1.0 / (1 << 20)}, cfg)
	if err != nil {
		t.Fatalf("RunQAblation: %v", err)
	}
	for _, row := range rows {
		if row.WeightDrift > 1e-6 {
			t.Errorf("q=%v: weight drift %v", row.Q, row.WeightDrift)
		}
		if row.Rounds < 0 {
			t.Errorf("q=%v did not converge", row.Q)
		}
	}
}

func TestRunPolicyAblation(t *testing.T) {
	runs, err := RunPolicyAblation(AblationConfig{N: 32, MaxRounds: 120, Seed: 8})
	if err != nil {
		t.Fatalf("RunPolicyAblation: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, run := range runs {
		if run.Rounds < 0 {
			t.Errorf("policy %s did not converge", run.Label)
		}
	}
}

func TestRunMethodComparison(t *testing.T) {
	rows, err := RunMethodComparison(AblationConfig{N: 32, MaxRounds: 120, Seed: 9})
	if err != nil {
		t.Fatalf("RunMethodComparison: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, row := range rows {
		names[row.Method] = true
		if row.Rounds < 0 {
			t.Errorf("method %s did not converge (spread %v)", row.Method, row.FinalSpread)
		}
	}
	if !names["centroids"] || !names["gm"] {
		t.Errorf("missing methods: %v", names)
	}
}

func TestRunHistogramComparison(t *testing.T) {
	res, err := RunHistogramComparison(200, 15, 30, 10)
	if err != nil {
		t.Fatalf("RunHistogramComparison: %v", err)
	}
	// Outliers at +15 with 5% mass shift the histogram mean by ~0.75;
	// the robust estimate should remove them almost entirely.
	if !(res.RobustErr < res.HistogramErr/2) {
		t.Errorf("robust err %v should be well below histogram err %v",
			res.RobustErr, res.HistogramErr)
	}
	if _, err := RunHistogramComparison(5, 10, 10, 1); err == nil {
		t.Errorf("tiny n should error")
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable([]string{"a", "long-header"}, [][]string{{"xyzzy", "1"}})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "a    ") {
		t.Errorf("header misaligned: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule missing: %q", lines[1])
	}
}

func TestRunModeAblation(t *testing.T) {
	runs, err := RunModeAblation(AblationConfig{N: 32, MaxRounds: 150, Seed: 13})
	if err != nil {
		t.Fatalf("RunModeAblation: %v", err)
	}
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	byName := map[string]ConvergenceRun{}
	for _, run := range runs {
		byName[run.Label] = run
		if run.Rounds < 0 {
			t.Errorf("mode %s did not converge (spread %v)", run.Label, run.FinalSpread)
		}
	}
	for _, name := range []string{"push", "pull", "push-pull"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing mode %s: %v", name, byName)
		}
	}
	// Push-pull moves twice the weight per round: it must not be slower
	// than plain push by more than a small margin.
	if pp, p := byName["push-pull"].Rounds, byName["push"].Rounds; pp > p+5 {
		t.Errorf("push-pull (%d rounds) much slower than push (%d rounds)", pp, p)
	}
}

func TestRunRelatedWorkComparison(t *testing.T) {
	rows, err := RunRelatedWorkComparison(AblationConfig{N: 48, MaxRounds: 120, Seed: 17})
	if err != nil {
		t.Fatalf("RunRelatedWorkComparison: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	generic := rows[0]
	if generic.GossipRounds <= 0 {
		t.Errorf("generic did not converge: %+v", generic)
	}
	// All three recover the two cluster means on this easy dataset.
	for _, row := range rows {
		if row.MeanError > 0.6 {
			t.Errorf("%s mean error = %v, want < 0.6", row.Algorithm, row.MeanError)
		}
		if row.Messages <= 0 {
			t.Errorf("%s counted no messages", row.Algorithm)
		}
	}
	// The paper's comparison: the baselines pay one aggregation phase
	// per centralized iteration, so when they need more than one
	// iteration they consume more gossip rounds than the one-shot
	// generic run.
	for _, row := range rows[1:] {
		if row.GossipRounds < generic.GossipRounds {
			t.Logf("note: %s used %d rounds vs generic %d (single-iteration convergence)",
				row.Algorithm, row.GossipRounds, generic.GossipRounds)
		}
	}
	if table := RelatedWorkTable(rows); !strings.Contains(table, "gossip rounds") {
		t.Errorf("RelatedWorkTable header missing:\n%s", table)
	}
}

func TestRunReducerAblation(t *testing.T) {
	rows, err := RunReducerAblation(AblationConfig{N: 80, MaxRounds: 60, Seed: 19})
	if err != nil {
		t.Fatalf("RunReducerAblation: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.MeanCoverError > 2.5 {
			t.Errorf("reducer %s cover error = %v", row.Reducer, row.MeanCoverError)
		}
	}
	if rows[0].Reducer != "em" || rows[1].Reducer != "greedy" {
		t.Errorf("reducer labels: %v", rows)
	}
	if table := ReducerTable(rows); !strings.Contains(table, "reducer") {
		t.Errorf("ReducerTable header missing:\n%s", table)
	}
}

func TestRunCrashSweep(t *testing.T) {
	rows, err := RunCrashSweep([]float64{0, 0.05, 0.2}, Fig4Config{
		NGood: 190, NOut: 10, Delta: 10, Rounds: 20, Seed: 23,
	})
	if err != nil {
		t.Fatalf("RunCrashSweep: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// With no crashes everyone survives and the robust error is small.
	if rows[0].Survivors != 200 {
		t.Errorf("p=0 survivors = %d, want 200", rows[0].Survivors)
	}
	if rows[0].RobustErr > 0.4 {
		t.Errorf("p=0 robust err = %v", rows[0].RobustErr)
	}
	// Higher crash rates leave fewer survivors.
	if !(rows[2].Survivors < rows[1].Survivors && rows[1].Survivors < rows[0].Survivors) {
		t.Errorf("survivors not decreasing: %d %d %d",
			rows[0].Survivors, rows[1].Survivors, rows[2].Survivors)
	}
	// Robust beats regular wherever both have survivors.
	for _, row := range rows {
		if row.Survivors > 10 && !math.IsNaN(row.RegularErr) && row.RobustErr > row.RegularErr {
			t.Errorf("p=%v: robust %v worse than regular %v", row.CrashProb, row.RobustErr, row.RegularErr)
		}
	}
	if table := CrashSweepTable(rows); !strings.Contains(table, "survivors") {
		t.Errorf("CrashSweepTable header missing:\n%s", table)
	}
}

func TestRunScalabilityAblation(t *testing.T) {
	rows, err := RunScalabilityAblation([]int{16, 64, 128}, AblationConfig{MaxRounds: 200, Seed: 29})
	if err != nil {
		t.Fatalf("RunScalabilityAblation: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Rounds < 0 {
			t.Errorf("n=%d did not converge", row.N)
		}
		// The paper's message-size claim: payload bounded by k regardless
		// of n.
		if row.AvgPayload > 2.01 {
			t.Errorf("n=%d payload = %v exceeds k", row.N, row.AvgPayload)
		}
	}
	// Rounds grow sublinearly: going 16 -> 128 (8x) must not multiply
	// rounds by 8.
	if rows[2].Rounds > rows[0].Rounds*8 {
		t.Errorf("rounds grew linearly or worse: %d -> %d", rows[0].Rounds, rows[2].Rounds)
	}
	if table := ScalabilityTable(rows); !strings.Contains(table, "colls/msg") {
		t.Errorf("ScalabilityTable header missing:\n%s", table)
	}
}

func TestRunOutlierMethodComparison(t *testing.T) {
	rows, err := RunOutlierMethodComparison(10, 190, 10, 30, 31)
	if err != nil {
		t.Fatalf("RunOutlierMethodComparison: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, row := range rows {
		byName[row.Method] = row.RobustErr
	}
	// The GM method separates the outliers; its robust error must be
	// small. (The centroids method often splits by distance as well on
	// this easy geometry, so only GM's absolute quality is asserted.)
	if byName["gm"] > 0.2 {
		t.Errorf("gm robust err = %v, want < 0.2", byName["gm"])
	}
	if _, ok := byName["centroids"]; !ok {
		t.Errorf("missing centroids row: %v", rows)
	}
}

func TestRunLossAblation(t *testing.T) {
	rows, err := RunLossAblation([]float64{0, 0.1, 0.3}, AblationConfig{N: 48, MaxRounds: 60, Seed: 37})
	if err != nil {
		t.Fatalf("RunLossAblation: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].WeightLost > 1e-9 {
		t.Errorf("p=0 lost weight: %v", rows[0].WeightLost)
	}
	if !(rows[1].WeightLost > 0.01 && rows[2].WeightLost > rows[1].WeightLost) {
		t.Errorf("weight loss not increasing: %v %v", rows[1].WeightLost, rows[2].WeightLost)
	}
	// Despite heavy loss the cluster means remain usable (graceful
	// degradation, not collapse).
	for _, row := range rows {
		if row.RobustErr > 1.5 {
			t.Errorf("p=%v cluster-mean err = %v", row.DropProb, row.RobustErr)
		}
	}
	if table := LossTable(rows); !strings.Contains(table, "weight lost %") {
		t.Errorf("LossTable header missing:\n%s", table)
	}
}

func TestRunKAblation(t *testing.T) {
	runs, err := RunKAblation([]int{2, 4}, AblationConfig{N: 48, MaxRounds: 80, Seed: 41})
	if err != nil {
		t.Fatalf("RunKAblation: %v", err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, run := range runs {
		if run.Messages == 0 {
			t.Errorf("%s sent no messages", run.Label)
		}
	}
	if runs[0].Label != "k=2" || runs[1].Label != "k=4" {
		t.Errorf("labels: %v", runs)
	}
	// Payload is bounded by the k in force.
	if runs[0].AvgPayload > 2.01 || runs[1].AvgPayload > 4.01 {
		t.Errorf("payloads exceed k: %v / %v", runs[0].AvgPayload, runs[1].AvgPayload)
	}
}

func TestRunDimensionAblation(t *testing.T) {
	rows, err := RunDimensionAblation([]int{1, 3, 6}, AblationConfig{N: 48, MaxRounds: 120, Seed: 43})
	if err != nil {
		t.Fatalf("RunDimensionAblation: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Rounds < 0 {
			t.Errorf("d=%d did not converge (spread %v)", row.D, row.FinalSpread)
		}
		// The cluster means stay within ~the noise scale of the truth at
		// every dimensionality.
		if row.ClusterErr > 1.5 {
			t.Errorf("d=%d cluster err = %v", row.D, row.ClusterErr)
		}
	}
	if _, err := RunDimensionAblation([]int{0}, AblationConfig{}); err == nil {
		t.Errorf("d=0 accepted")
	}
	if table := DimensionTable(rows); !strings.Contains(table, "cluster err") {
		t.Errorf("DimensionTable header missing:\n%s", table)
	}
}
