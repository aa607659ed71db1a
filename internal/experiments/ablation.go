package experiments

import (
	"fmt"
	"math"

	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/gm"
	"distclass/internal/histogram"
	"distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/stats"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/vec"
)

// AblationConfig parameterizes the ablation studies (DESIGN.md's
// experiments A-D): they all run GM or centroids classification over a
// bimodal 2-D dataset and measure rounds to convergence plus traffic.
type AblationConfig struct {
	// N is the network size (default 128).
	N int
	// K is the collection bound (default 2).
	K int
	// MaxRounds bounds each run (default 200).
	MaxRounds int
	// Seed drives all randomness (default 1).
	Seed uint64
	// Metrics, when set, aggregates protocol and simulator counters
	// across every run sharing this config.
	Metrics *metrics.Registry
	// Trace, when set, receives protocol events plus the engine's
	// per-round spread probe from every run sharing this config.
	Trace trace.Sink
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.N == 0 {
		c.N = 128
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// engineConfig is the round-backend GM run every ablation starts from:
// r is the parent RNG, whose one driver Split inside engine.New is the
// run's only draw from it.
func (c AblationConfig) engineConfig(graph *topology.Graph, values []vec.Vector, r *rng.RNG) engine.Config {
	return engine.Config{
		Graph: graph, RNG: r, Seed: c.Seed, Values: values, Method: gm.Method{},
		K: c.K, MaxRounds: c.MaxRounds,
		Metrics: c.Metrics, Trace: c.Trace,
	}
}

// bimodalDataset draws half the values near (-4, 0) and half near
// (4, 0), a cleanly separable classification task.
func bimodalDataset(n int, r *rng.RNG) []vec.Vector {
	values := make([]vec.Vector, n)
	for i := range values {
		center := -4.0
		if i%2 == 1 {
			center = 4
		}
		values[i] = vec.Of(center+r.Normal(0, 1), r.Normal(0, 1))
	}
	return values
}

// ConvergenceRun reports one ablation run.
type ConvergenceRun struct {
	// Label names the configuration (topology kind, k value, ...).
	Label string
	// Rounds is the round count RunUntilConverged returned when the
	// engine's detector fired (-1 if it never did within MaxRounds).
	Rounds int
	// FinalSpread is the spread when the run stopped.
	FinalSpread float64
	// Messages is the number of messages sent.
	Messages int
	// AvgPayload is the mean number of collections per message.
	AvgPayload float64
}

// runConvergence runs ecfg on the engine until its convergence
// detector fires or MaxRounds pass, and reports rounds and traffic.
// The engine comes back for callers that read the final nodes.
func runConvergence(label string, ecfg engine.Config) (ConvergenceRun, engine.Engine, error) {
	eng, err := engine.New(ecfg)
	if err != nil {
		return ConvergenceRun{}, nil, err
	}
	rounds, converged, err := eng.RunUntilConverged(0)
	if err != nil {
		return ConvergenceRun{}, nil, err
	}
	run := ConvergenceRun{Label: label, Rounds: -1}
	if converged {
		run.Rounds = rounds
	}
	//lint:allow layering final readout of a run RunUntilConverged ended
	if run.FinalSpread, err = eng.Spread(); err != nil {
		return ConvergenceRun{}, nil, err
	}
	st := eng.Stats()
	run.Messages = st.MessagesSent
	if st.MessagesSent > 0 {
		run.AvgPayload = float64(st.PayloadSize) / float64(st.MessagesSent)
	}
	return run, eng, nil
}

// RunTopologyAblation measures rounds-to-convergence across topologies
// (experiment A). The convergence proof promises convergence on any
// connected topology; the sweep shows how the mixing time varies.
func RunTopologyAblation(kinds []topology.Kind, cfg AblationConfig) ([]ConvergenceRun, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values := bimodalDataset(cfg.N, r)
	runs := make([]ConvergenceRun, 0, len(kinds))
	for _, kind := range kinds {
		graph, err := topology.Build(kind, cfg.N, r.Split())
		if err != nil {
			return nil, fmt.Errorf("experiments: topology %s: %w", kind, err)
		}
		run, _, err := runConvergence(string(kind), cfg.engineConfig(graph, values, r))
		if err != nil {
			return nil, fmt.Errorf("experiments: topology %s: %w", kind, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// RunKAblation measures classification quality on the Figure 2 dataset
// as k varies (experiment B).
func RunKAblation(ks []int, cfg AblationConfig) ([]ConvergenceRun, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values, err := Figure2Dataset(cfg.N, r)
	if err != nil {
		return nil, err
	}
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	runs := make([]ConvergenceRun, 0, len(ks))
	for _, k := range ks {
		ecfg := cfg.engineConfig(graph, values, r)
		ecfg.K = k
		run, _, err := runConvergence(fmt.Sprintf("k=%d", k), ecfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: k=%d: %w", k, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// KQualityRow reports classification quality for one k.
type KQualityRow struct {
	K              int
	MeanCoverError float64
	Components     int
}

// RunKQuality runs the Figure 2 experiment at several k values and
// reports how well the estimated mixtures cover the true cluster means
// (experiment B's quality axis).
func RunKQuality(ks []int, n int, rounds int, seed uint64) ([]KQualityRow, error) {
	rows := make([]KQualityRow, 0, len(ks))
	for _, k := range ks {
		res, err := RunFigure2(Fig2Config{N: n, K: k, MaxRounds: rounds, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("experiments: k=%d: %w", k, err)
		}
		rows = append(rows, KQualityRow{
			K:              k,
			MeanCoverError: res.MeanCoverError,
			Components:     len(res.Estimated),
		})
	}
	return rows, nil
}

// QAblationRow reports one quantization setting.
type QAblationRow struct {
	Q           float64
	Rounds      int
	WeightDrift float64 // |total weight - n| after the run
}

// RunQAblation sweeps the weight quantum q (experiment C): convergence
// must hold for any valid q, and total weight must remain exactly n.
func RunQAblation(qs []float64, cfg AblationConfig) ([]QAblationRow, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values := bimodalDataset(cfg.N, r)
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	rows := make([]QAblationRow, 0, len(qs))
	for _, q := range qs {
		ecfg := cfg.engineConfig(graph, values, r)
		ecfg.Q = q
		run, eng, err := runConvergence("", ecfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: q=%v: %w", q, err)
		}
		rows = append(rows, QAblationRow{
			Q: q, Rounds: run.Rounds,
			WeightDrift: math.Abs(eng.TotalWeight() - float64(cfg.N)),
		})
	}
	return rows, nil
}

// RunPolicyAblation compares gossip policies (experiment D).
func RunPolicyAblation(cfg AblationConfig) ([]ConvergenceRun, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values := bimodalDataset(cfg.N, r)
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	var runs []ConvergenceRun
	for _, policy := range []engine.Policy{engine.PushRandom, engine.RoundRobin} {
		ecfg := cfg.engineConfig(graph, values, r)
		ecfg.Policy = policy
		run, _, err := runConvergence(policy.String(), ecfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy %s: %w", policy, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// RunModeAblation compares the three gossip communication patterns of
// §4.1 — push, pull and bilateral push-pull — on the same dataset and
// topology (experiment D's second axis). Push-pull moves twice the
// weight per round and typically converges in the fewest rounds.
func RunModeAblation(cfg AblationConfig) ([]ConvergenceRun, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values := bimodalDataset(cfg.N, r)
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	var runs []ConvergenceRun
	for _, mode := range []engine.Mode{engine.ModePush, engine.ModePull, engine.ModePushPull} {
		ecfg := cfg.engineConfig(graph, values, r)
		ecfg.Mode = mode
		run, _, err := runConvergence(mode.String(), ecfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: mode %s: %w", mode, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// MethodComparisonRow compares instantiations on the bimodal dataset.
type MethodComparisonRow struct {
	Method      string
	Rounds      int
	FinalSpread float64
}

// RunMethodComparison runs centroids vs GM on the same dataset and
// topology — the paper's two instantiations of the one generic
// algorithm.
func RunMethodComparison(cfg AblationConfig) ([]MethodComparisonRow, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values := bimodalDataset(cfg.N, r)
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	var rows []MethodComparisonRow
	for _, m := range []core.Method{centroids.Method{}, gm.Method{}} {
		ecfg := cfg.engineConfig(graph, values, r)
		ecfg.Method = m
		run, _, err := runConvergence(m.Name(), ecfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: method %s: %w", m.Name(), err)
		}
		rows = append(rows, MethodComparisonRow{Method: run.Label, Rounds: run.Rounds, FinalSpread: run.FinalSpread})
	}
	return rows, nil
}

// HistogramComparisonResult contrasts the GM robust mean with a 1-D
// gossip histogram estimate on outlier-contaminated scalar data — the
// related-work comparison (histograms smear outliers into the estimate;
// classification removes them).
type HistogramComparisonResult struct {
	// TrueGoodMean is the mean of the good sub-population (0).
	TrueGoodMean float64
	// RobustErr is the average |robust estimate - 0| over nodes.
	RobustErr float64
	// HistogramErr is the average |histogram mean - 0| over nodes.
	HistogramErr float64
}

// RunHistogramComparison runs both estimators over 1-D data with
// outliers at +delta.
func RunHistogramComparison(n int, delta float64, rounds int, seed uint64) (*HistogramComparisonResult, error) {
	if n < 20 {
		return nil, fmt.Errorf("experiments: n = %d too small", n)
	}
	r := rng.New(seed)
	nOut := n / 20 // 5% outliers
	values := make([]vec.Vector, n)
	for i := range values {
		if i < n-nOut {
			values[i] = vec.Of(r.Normal(0, 1))
		} else {
			values[i] = vec.Of(delta + r.Normal(0, math.Sqrt(0.1)))
		}
	}
	graph, err := topology.Full(n)
	if err != nil {
		return nil, err
	}

	// Robust GM run (k = 2).
	eng, err := engine.New(engine.Config{Graph: graph, RNG: r, Values: values, Method: gm.Method{}, K: 2})
	if err != nil {
		return nil, err
	}
	if err := eng.Run(rounds); err != nil {
		return nil, err
	}
	var robustErrs []float64
	for i := 0; i < n; i++ {
		est, err := RobustEstimate(eng.Node(i))
		if err != nil {
			return nil, err
		}
		robustErrs = append(robustErrs, math.Abs(est[0]))
	}

	// Histogram run over the same scalars.
	spec := histogram.Spec{Lo: -5, Hi: delta + 5, Bins: 40}
	hNodes := make([]*histogram.Node, n)
	hAgents := make([]engine.Agent[histogram.Message], n)
	for i := range hNodes {
		node, err := histogram.NewNode(i, values[i][0], spec)
		if err != nil {
			return nil, err
		}
		hNodes[i] = node
		hAgents[i] = &HistogramAgent{Node: node}
	}
	hNet, err := engine.NewRoundDriver(graph, hAgents, r.Split(), engine.Options[histogram.Message]{})
	if err != nil {
		return nil, err
	}
	if err := hNet.RunRounds(rounds, nil); err != nil {
		return nil, err
	}
	var histErrs []float64
	for _, node := range hNodes {
		mean, err := node.EstimatedMean()
		if err != nil {
			return nil, err
		}
		histErrs = append(histErrs, math.Abs(mean))
	}

	res := &HistogramComparisonResult{}
	var rr, hh stats.Running
	for _, e := range robustErrs {
		rr.Add(e)
	}
	for _, e := range histErrs {
		hh.Add(e)
	}
	res.RobustErr = rr.Mean()
	res.HistogramErr = hh.Mean()
	return res, nil
}

// ConvergenceTable renders ablation runs.
func ConvergenceTable(runs []ConvergenceRun) string {
	rows := make([][]string, len(runs))
	for i, r := range runs {
		rows[i] = []string{
			r.Label, fmt.Sprintf("%d", r.Rounds), F(r.FinalSpread),
			fmt.Sprintf("%d", r.Messages), F(r.AvgPayload),
		}
	}
	return FormatTable([]string{"config", "rounds", "spread", "messages", "avg payload"}, rows)
}

// ReducerRow compares mixture-reduction engines.
type ReducerRow struct {
	Reducer        string
	Rounds         int
	MeanCoverError float64
}

// RunReducerAblation compares the EM reduction (the paper's §5.2
// choice) with greedy Runnalls-cost merging (Salmond-style, the paper's
// [18]) on the Figure 2 workload: rounds to convergence and how well
// the final mixture covers the true cluster means.
func RunReducerAblation(cfg AblationConfig) ([]ReducerRow, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values, err := Figure2Dataset(cfg.N, r)
	if err != nil {
		return nil, err
	}
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	truth := Figure2TrueMixture()
	var rows []ReducerRow
	for _, reducer := range []gm.Reducer{gm.ReducerEM, gm.ReducerGreedy} {
		ecfg := cfg.engineConfig(graph, values, r)
		ecfg.Method, ecfg.K = gm.Method{Reducer: reducer}, 7
		run, eng, err := runConvergence(reducer.String(), ecfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: reducer %s: %w", reducer, err)
		}
		mix, err := gm.ToMixture(eng.Classification(0))
		if err != nil {
			return nil, err
		}
		row := ReducerRow{Reducer: run.Label, Rounds: run.Rounds}
		if row.MeanCoverError, err = MeanCoverError(truth, mix); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReducerTable renders the comparison.
func ReducerTable(rows []ReducerRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{r.Reducer, fmt.Sprintf("%d", r.Rounds), F(r.MeanCoverError)}
	}
	return FormatTable([]string{"reducer", "rounds", "mean cover error"}, out)
}

// ScalabilityRow reports one network size.
type ScalabilityRow struct {
	N        int
	Rounds   int
	Messages int
	// AvgPayload is collections per message — the paper's claim is that
	// it depends only on k and d, never on n.
	AvgPayload float64
}

// RunScalabilityAblation measures rounds-to-convergence and message
// payload as the network grows. On a full mesh the rounds grow slowly
// (gossip mixing is logarithmic-ish in n) while the payload stays
// constant — the paper's §2 message-size argument made measurable.
func RunScalabilityAblation(sizes []int, cfg AblationConfig) ([]ScalabilityRow, error) {
	cfg = cfg.withDefaults()
	rows := make([]ScalabilityRow, 0, len(sizes))
	for _, n := range sizes {
		r := rng.New(cfg.Seed + uint64(n))
		values := bimodalDataset(n, r)
		graph, err := topology.Full(n)
		if err != nil {
			return nil, err
		}
		run, _, err := runConvergence(fmt.Sprintf("n=%d", n), cfg.engineConfig(graph, values, r))
		if err != nil {
			return nil, fmt.Errorf("experiments: n=%d: %w", n, err)
		}
		rows = append(rows, ScalabilityRow{
			N: n, Rounds: run.Rounds, Messages: run.Messages, AvgPayload: run.AvgPayload,
		})
	}
	return rows, nil
}

// ScalabilityTable renders the sweep.
func ScalabilityTable(rows []ScalabilityRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%d", r.N), fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%d", r.Messages), F(r.AvgPayload),
		}
	}
	return FormatTable([]string{"n", "rounds", "messages", "colls/msg"}, out)
}

// LossRow reports one message-loss setting.
type LossRow struct {
	DropProb    float64
	RobustErr   float64
	WeightLost  float64 // fraction of total weight destroyed by drops
	FinalSpread float64
}

// RunLossAblation deliberately violates the paper's reliable-channel
// assumption (§3.1): messages are dropped with probability p. Lost
// messages destroy weight, so the surviving estimates degrade
// gracefully rather than the algorithm failing outright; the sweep
// measures how much.
func RunLossAblation(probs []float64, cfg AblationConfig) ([]LossRow, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values := bimodalDataset(cfg.N, r)
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	truthLow, truthHigh := vec.Of(-4, 0), vec.Of(4, 0)
	rows := make([]LossRow, 0, len(probs))
	for _, p := range probs {
		ecfg := cfg.engineConfig(graph, values, r)
		ecfg.DropProb = p
		eng, err := engine.New(ecfg)
		if err != nil {
			return nil, err
		}
		if err := eng.Run(cfg.MaxRounds / 2); err != nil {
			return nil, err
		}
		row := LossRow{DropProb: p}
		var errSum float64
		count := 0
		for i := 0; i < cfg.N; i++ {
			for _, c := range eng.Classification(i) {
				mean := c.Summary.(gm.Summary).G.Mean
				truth := truthLow
				if mean[0] > 0 {
					truth = truthHigh
				}
				d, err := vec.Dist(mean, truth)
				if err != nil {
					return nil, err
				}
				errSum += d
				count++
			}
		}
		if count > 0 {
			row.RobustErr = errSum / float64(count)
		}
		row.WeightLost = 1 - eng.TotalWeight()/float64(cfg.N)
		//lint:allow layering final readout of a fixed-round lossy run
		if row.FinalSpread, err = eng.Spread(); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LossTable renders the sweep.
func LossTable(rows []LossRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{F(r.DropProb), F(r.RobustErr), F(100 * r.WeightLost), F(r.FinalSpread)}
	}
	return FormatTable([]string{"drop prob", "cluster-mean err", "weight lost %", "spread"}, out)
}

// DimensionRow reports one data dimensionality.
type DimensionRow struct {
	D           int
	Rounds      int
	ClusterErr  float64 // avg distance from collection means to the true cluster centers
	FinalSpread float64
}

// RunDimensionAblation classifies two clusters embedded in R^d for a
// range of d, exercising the full numeric stack (Cholesky, densities,
// moment merges) beyond the paper's 2-D evaluation. The clusters sit at
// +-4 along the first axis with unit isotropic noise.
func RunDimensionAblation(dims []int, cfg AblationConfig) ([]DimensionRow, error) {
	cfg = cfg.withDefaults()
	rows := make([]DimensionRow, 0, len(dims))
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("experiments: dimension %d must be positive", d)
		}
		r := rng.New(cfg.Seed + uint64(d))
		values := make([]vec.Vector, cfg.N)
		for i := range values {
			v := vec.New(d)
			for a := range v {
				v[a] = r.Normal(0, 1)
			}
			if i%2 == 1 {
				v[0] += 4
			} else {
				v[0] -= 4
			}
			values[i] = v
		}
		graph, err := topology.Full(cfg.N)
		if err != nil {
			return nil, err
		}
		run, eng, err := runConvergence("", cfg.engineConfig(graph, values, r))
		if err != nil {
			return nil, fmt.Errorf("experiments: d=%d: %w", d, err)
		}
		row := DimensionRow{D: d, Rounds: run.Rounds, FinalSpread: run.FinalSpread}
		// Quality: distance from each of node 0's collection means to the
		// nearest true center.
		lo, hi := vec.New(d), vec.New(d)
		lo[0], hi[0] = -4, 4
		var errSum float64
		cls := eng.Classification(0)
		for _, c := range cls {
			mean := c.Summary.(gm.Summary).G.Mean
			dLo, err := vec.Dist(mean, lo)
			if err != nil {
				return nil, err
			}
			dHi, err := vec.Dist(mean, hi)
			if err != nil {
				return nil, err
			}
			errSum += math.Min(dLo, dHi)
		}
		if len(cls) > 0 {
			row.ClusterErr = errSum / float64(len(cls))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DimensionTable renders the sweep.
func DimensionTable(rows []DimensionRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%d", r.D), fmt.Sprintf("%d", r.Rounds),
			F(r.ClusterErr), F(r.FinalSpread),
		}
	}
	return FormatTable([]string{"d", "rounds", "cluster err", "spread"}, out)
}
