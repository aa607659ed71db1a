package experiments

import (
	"errors"
	"fmt"

	"distclass/internal/aggregate"
	"distclass/internal/centroids"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/gm"
	"distclass/internal/rng"
	"distclass/internal/stats"
	"distclass/internal/topology"
	"distclass/internal/vec"
)

// Fig3Config parameterizes the Figure 3 sweep: a robust average in the
// presence of outliers whose distance Delta from the good distribution
// varies. The paper uses 950 good values, 50 outliers, K = 2 and a
// fully connected 1000-node network.
type Fig3Config struct {
	// NGood and NOut size the two sub-populations (defaults 950/50).
	NGood, NOut int
	// Deltas are the outlier mean offsets to sweep (default 0..25).
	Deltas []float64
	// K is the collection bound (default 2).
	K int
	// Rounds per run (default 50).
	Rounds int
	// Seed drives all randomness (default 1).
	Seed uint64
}

func (c Fig3Config) withDefaults() Fig3Config {
	if c.NGood == 0 {
		c.NGood = 950
	}
	if c.NOut == 0 {
		c.NOut = 50
	}
	if len(c.Deltas) == 0 {
		c.Deltas = make([]float64, 26)
		for i := range c.Deltas {
			c.Deltas[i] = float64(i)
		}
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig3Row is one point of the Figure 3 series.
type Fig3Row struct {
	// Delta is the outlier mean offset.
	Delta float64
	// MissPct is the average percentage of ground-truth-outlier weight
	// that ended up in the good collection (the dotted line).
	MissPct float64
	// RobustErr is the average distance between the nodes' robust mean
	// estimate (mean of their heavier collection) and the true mean
	// (0,0) (the solid line).
	RobustErr float64
	// RegularErr is the same error for plain push-sum averaging over all
	// values, outliers included (the dashed line).
	RegularErr float64
}

// RunFigure3 executes the sweep and returns one row per Delta.
func RunFigure3(cfg Fig3Config) ([]Fig3Row, error) {
	cfg = cfg.withDefaults()
	rows := make([]Fig3Row, 0, len(cfg.Deltas))
	for i, delta := range cfg.Deltas {
		row, err := runFig3Point(cfg, delta, cfg.Seed+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("experiments: fig3 delta %v: %w", delta, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runFig3Point(cfg Fig3Config, delta float64, seed uint64) (Fig3Row, error) {
	r := rng.New(seed)
	values, outlier, err := Figure3Dataset(cfg.NGood, cfg.NOut, delta, r)
	if err != nil {
		return Fig3Row{}, err
	}
	n := len(values)
	graph, err := topology.Full(n)
	if err != nil {
		return Fig3Row{}, err
	}

	// Robust network: GM classification with tag auxiliaries recording
	// exactly how much good/outlier weight each collection carries.
	eng, err := engine.New(engine.Config{
		Graph: graph, RNG: r, Values: values, Method: gm.Method{}, K: cfg.K,
		Aux: func(i int) vec.Vector {
			aux := vec.New(2)
			if outlier[i] {
				aux[1] = 1
			} else {
				aux[0] = 1
			}
			return aux
		},
	})
	if err != nil {
		return Fig3Row{}, err
	}
	if err := eng.Run(cfg.Rounds); err != nil {
		return Fig3Row{}, err
	}

	// Regular network: push-sum over the same values and graph.
	regular, err := runPushSum(graph, values, cfg.Rounds, r.Split(), 0, nil)
	if err != nil {
		return Fig3Row{}, err
	}

	row := Fig3Row{Delta: delta}
	truth := vec.Of(0, 0)
	var robustEst []vec.Vector
	var missSum float64
	missCount := 0
	for i := 0; i < n; i++ {
		est, err := RobustEstimate(eng.Node(i))
		if err != nil {
			return Fig3Row{}, err
		}
		robustEst = append(robustEst, est)
		ratio, ok := OutlierMissRatio(eng.Node(i))
		if ok {
			missSum += ratio
			missCount++
		}
	}
	if row.RobustErr, err = stats.MeanError(robustEst, truth); err != nil {
		return Fig3Row{}, err
	}
	if missCount > 0 {
		row.MissPct = 100 * missSum / float64(missCount)
	}
	if row.RegularErr, err = stats.MeanError(regular, truth); err != nil {
		return Fig3Row{}, err
	}
	return row, nil
}

// runPushSum runs the regular-aggregation baseline and returns the
// surviving nodes' estimates. aliveOut, when non-nil, receives a
// callback view of per-round estimates (used by Figure 4).
func runPushSum(graph *topology.Graph, values []vec.Vector, rounds int, r *rng.RNG, crashProb float64, perRound func(round int, estimates []vec.Vector) error) ([]vec.Vector, error) {
	n := len(values)
	nodes := make([]*aggregate.Node, n)
	agents := make([]engine.Agent[aggregate.Message], n)
	for i := range nodes {
		node, err := aggregate.NewNode(i, values[i])
		if err != nil {
			return nil, err
		}
		nodes[i] = node
		agents[i] = &PushSumAgent{Node: node}
	}
	net, err := engine.NewRoundDriver(graph, agents, r, engine.Options[aggregate.Message]{CrashProb: crashProb})
	if err != nil {
		return nil, err
	}
	collect := func() ([]vec.Vector, error) {
		var out []vec.Vector
		for i, node := range nodes {
			if !net.Alive(i) {
				continue
			}
			est, err := node.Estimate()
			if err != nil {
				return nil, err
			}
			out = append(out, est)
		}
		return out, nil
	}
	err = net.RunRounds(rounds, func(round int) error {
		if perRound == nil {
			return nil
		}
		ests, err := collect()
		if err != nil {
			return err
		}
		return perRound(round, ests)
	})
	if err != nil {
		return nil, err
	}
	return collect()
}

// RobustEstimate returns a node's outlier-robust mean estimate: the mean
// of its heaviest collection (with K = 2, hopefully the good one). It
// works for both built-in summary types.
func RobustEstimate(n *core.Node) (vec.Vector, error) {
	return RobustEstimateOf(n.Classification())
}

// RobustEstimateOf is RobustEstimate over a bare classification — the
// form live deployments hand out, where there is no *core.Node to ask.
func RobustEstimateOf(cls core.Classification) (vec.Vector, error) {
	if len(cls) == 0 {
		return nil, errors.New("experiments: node holds no collections")
	}
	best := 0
	for i, c := range cls {
		if c.Weight > cls[best].Weight {
			best = i
		}
	}
	switch s := cls[best].Summary.(type) {
	case gm.Summary:
		return s.G.Mean, nil
	case centroids.Centroid:
		return s.Point, nil
	default:
		return nil, fmt.Errorf("experiments: unexpected summary type %T", cls[best].Summary)
	}
}

// OutlierMissRatio returns the fraction of the node's ground-truth
// outlier weight (tag auxiliary component 1) that sits in its heaviest
// ("good") collection. ok is false when the node currently holds no
// outlier weight.
func OutlierMissRatio(n *core.Node) (ratio float64, ok bool) {
	cls := n.Classification()
	if len(cls) == 0 {
		return 0, false
	}
	best := 0
	var totalOut float64
	for i, c := range cls {
		if c.Weight > cls[best].Weight {
			best = i
		}
		if c.Aux.Dim() == 2 {
			totalOut += c.Aux[1]
		}
	}
	if totalOut <= 1e-12 {
		return 0, false
	}
	return cls[best].Aux[1] / totalOut, true
}

// Fig3Table renders the sweep.
func Fig3Table(rows []Fig3Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{F(r.Delta), F(r.MissPct), F(r.RobustErr), F(r.RegularErr)}
	}
	return FormatTable([]string{"delta", "missed outliers %", "robust err", "regular err"}, out)
}

// OutlierMethodRow compares instantiations at outlier removal.
type OutlierMethodRow struct {
	Method    string
	RobustErr float64
}

// RunOutlierMethodComparison quantifies Figure 1's motivation on the
// Figure 3 workload: the variance-blind centroids instantiation and the
// variance-aware GM instantiation both run K = 2 on the same
// outlier-contaminated data; the robust-mean error shows how much the
// Gaussian summaries matter.
func RunOutlierMethodComparison(delta float64, nGood, nOut, rounds int, seed uint64) ([]OutlierMethodRow, error) {
	r := rng.New(seed)
	values, _, err := Figure3Dataset(nGood, nOut, delta, r)
	if err != nil {
		return nil, err
	}
	graph, err := topology.Full(len(values))
	if err != nil {
		return nil, err
	}
	truth := vec.Of(0, 0)
	var rows []OutlierMethodRow
	for _, method := range []core.Method{centroids.Method{}, gm.Method{}} {
		eng, err := engine.New(engine.Config{Graph: graph, RNG: r, Values: values, Method: method, K: 2})
		if err != nil {
			return nil, fmt.Errorf("experiments: method %s: %w", method.Name(), err)
		}
		if err := eng.Run(rounds); err != nil {
			return nil, err
		}
		var ests []vec.Vector
		for i := 0; i < eng.N(); i++ {
			est, err := RobustEstimate(eng.Node(i))
			if err != nil {
				return nil, err
			}
			ests = append(ests, est)
		}
		e, err := stats.MeanError(ests, truth)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OutlierMethodRow{Method: method.Name(), RobustErr: e})
	}
	return rows, nil
}
