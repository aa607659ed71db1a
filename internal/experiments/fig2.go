package experiments

import (
	"fmt"
	"math"

	"distclass/internal/engine"
	"distclass/internal/gauss"
	"distclass/internal/gm"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/vec"
)

// Fig2Config parameterizes the Figure 2 experiment: GM classification of
// 2-D values drawn from three Gaussians, on a fully connected network,
// run until the nodes' mixtures stop moving. The paper uses N = 1000 and
// K = 7.
type Fig2Config struct {
	// N is the network size (default 1000).
	N int
	// K is the collection bound (default 7).
	K int
	// MaxRounds bounds the run; zero takes the engine's default (500).
	MaxRounds int
	// Seed drives dataset generation and gossip (default 1).
	Seed uint64
}

func (c Fig2Config) withDefaults() Fig2Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.K == 0 {
		c.K = 7
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig2Result reports a Figure 2 run.
type Fig2Result struct {
	// Estimated is node 0's final mixture — the paper's Figure 2c.
	Estimated gauss.Mixture
	// True is the generating mixture — the paper's Figure 2a.
	True gauss.Mixture
	// ConvergedRound is the round count RunUntilConverged returned when
	// the engine's detector fired (-1 if it never did within MaxRounds).
	ConvergedRound int
	// RoundsRun is the number of rounds executed.
	RoundsRun int
	// MeanCoverError is the weight-averaged distance from each true
	// component mean to the nearest estimated component mean — how well
	// the estimate covers the real clusters.
	MeanCoverError float64
	// FinalSpread is the engine's spread probe at the end.
	FinalSpread float64
	// Values are the sampled input values (one per node), kept for
	// rendering the Figure 2b scatter.
	Values []vec.Vector
}

// RunFigure2 executes the Figure 2 experiment.
func RunFigure2(cfg Fig2Config) (*Fig2Result, error) {
	res, _, err := runFigure2(cfg)
	return res, err
}

// runFigure2 is RunFigure2 that also hands back the engine, whose nodes
// hold the final classifications.
func runFigure2(cfg Fig2Config) (*Fig2Result, engine.Engine, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values, err := Figure2Dataset(cfg.N, r)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: fig2 dataset: %w", err)
	}
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, nil, err
	}
	run, eng, err := runConvergence("fig2", engine.Config{
		Graph: graph, RNG: r, Seed: cfg.Seed, Values: values, Method: gm.Method{},
		K: cfg.K, MaxRounds: cfg.MaxRounds,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: fig2 run: %w", err)
	}
	res := &Fig2Result{
		True: Figure2TrueMixture(), Values: values,
		ConvergedRound: run.Rounds, RoundsRun: eng.Stats().Rounds, FinalSpread: run.FinalSpread,
	}
	mix, err := gm.ToMixture(eng.Classification(0))
	if err != nil {
		return nil, nil, err
	}
	res.Estimated = mix
	if res.MeanCoverError, err = MeanCoverError(res.True, res.Estimated); err != nil {
		return nil, nil, err
	}
	return res, eng, nil
}

// MeanCoverError returns the weight-averaged distance from each true
// component mean to the nearest estimated component mean.
func MeanCoverError(truth, estimated gauss.Mixture) (float64, error) {
	if len(truth) == 0 || len(estimated) == 0 {
		return 0, fmt.Errorf("experiments: empty mixture in cover error")
	}
	totalW := truth.TotalWeight()
	var sum float64
	for _, tc := range truth {
		best := math.Inf(1)
		for _, ec := range estimated {
			d, err := vec.Dist(tc.Mean, ec.Mean)
			if err != nil {
				return 0, err
			}
			if d < best {
				best = d
			}
		}
		sum += tc.Weight / totalW * best
	}
	return sum, nil
}

// Table renders the estimated mixture next to the true one.
func (r *Fig2Result) Table() string {
	headers := []string{"component", "weight", "mean", "cov diag"}
	var rows [][]string
	for i, c := range r.True {
		rows = append(rows, []string{
			fmt.Sprintf("true %d", i), F(c.Weight), c.Mean.String(),
			fmt.Sprintf("(%s, %s)", F(c.Cov.At(0, 0)), F(c.Cov.At(1, 1))),
		})
	}
	for i, c := range r.Estimated {
		rows = append(rows, []string{
			fmt.Sprintf("est %d", i), F(c.Weight), c.Mean.String(),
			fmt.Sprintf("(%s, %s)", F(c.Cov.At(0, 0)), F(c.Cov.At(1, 1))),
		})
	}
	s := FormatTable(headers, rows)
	return s + fmt.Sprintf("converged round: %d   mean cover error: %s   spread: %s\n",
		r.ConvergedRound, F(r.MeanCoverError), F(r.FinalSpread))
}
