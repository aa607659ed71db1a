package experiments

import (
	"errors"
	"fmt"
	"math"

	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/gm"
	"distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/stats"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/vec"
)

// Fig4Config parameterizes the Figure 4 experiment: convergence speed
// and crash robustness of the robust (GM) and regular (push-sum) mean
// estimators, with and without per-round node crashes. The paper uses
// Delta = 10 and crash probability 0.05.
type Fig4Config struct {
	// NGood and NOut size the populations (defaults 950/50).
	NGood, NOut int
	// Delta is the outlier offset (default 10).
	Delta float64
	// K is the collection bound (default 2).
	K int
	// Rounds traces this many rounds (default 50).
	Rounds int
	// CrashProb is the per-round crash probability in the crashing runs
	// (default 0.05).
	CrashProb float64
	// Backend selects the engine substrate for the robust (GM) traces
	// (default BackendRound). On the deterministic backends the engine
	// injects crashes per round; on the concurrent backends (pipe,
	// tcp, shard) the harness samples explicit Kills between wall-clock
	// rounds of one gossip interval each. The regular push-sum baseline
	// always runs on the round driver.
	Backend engine.Backend
	// Seed drives all randomness (default 1).
	Seed uint64
	// Metrics, when set, aggregates protocol and simulator counters
	// across every trace sharing this config.
	Metrics *metrics.Registry
	// Trace, when set, receives protocol events plus a per-round
	// estimation-error probe from every trace sharing this config.
	Trace trace.Sink
}

func (c Fig4Config) withDefaults() Fig4Config {
	if c.NGood == 0 {
		c.NGood = 950
	}
	if c.NOut == 0 {
		c.NOut = 50
	}
	//lint:allow floatcmp zero value selects the default
	if c.Delta == 0 {
		c.Delta = 10
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	//lint:allow floatcmp zero value selects the default
	if c.CrashProb == 0 {
		c.CrashProb = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig4Row is one round of the four error traces.
type Fig4Row struct {
	Round          int
	RobustNoCrash  float64
	RegularNoCrash float64
	RobustCrash    float64
	RegularCrash   float64
}

// RunFigure4 executes all four traces over the same dataset and returns
// one row per round. Errors are averaged over nodes still alive in the
// respective run.
func RunFigure4(cfg Fig4Config) ([]Fig4Row, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values, outlier, err := Figure3Dataset(cfg.NGood, cfg.NOut, cfg.Delta, r)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4 dataset: %w", err)
	}
	graph, err := topology.Full(len(values))
	if err != nil {
		return nil, err
	}
	rows := make([]Fig4Row, cfg.Rounds)
	for i := range rows {
		rows[i].Round = i + 1
	}

	// Robust traces.
	robust := func(crashProb float64, sink func(round int, err float64)) error {
		return runRobustTrace(graph, values, outlier, cfg, r.Split(), crashProb, sink)
	}
	if err := robust(0, func(round int, e float64) { rows[round].RobustNoCrash = e }); err != nil {
		return nil, fmt.Errorf("experiments: fig4 robust no-crash: %w", err)
	}
	if err := robust(cfg.CrashProb, func(round int, e float64) { rows[round].RobustCrash = e }); err != nil {
		return nil, fmt.Errorf("experiments: fig4 robust crash: %w", err)
	}

	// Regular traces.
	truth := vec.Of(0, 0)
	regular := func(crashProb float64, sink func(round int, err float64)) error {
		_, err := runPushSum(graph, values, cfg.Rounds, r.Split(), crashProb,
			func(round int, ests []vec.Vector) error {
				if len(ests) == 0 {
					return engine.ErrStop
				}
				e, err := stats.MeanError(ests, truth)
				if err != nil {
					return err
				}
				sink(round, e)
				return nil
			})
		return err
	}
	if err := regular(0, func(round int, e float64) { rows[round].RegularNoCrash = e }); err != nil {
		return nil, fmt.Errorf("experiments: fig4 regular no-crash: %w", err)
	}
	if err := regular(cfg.CrashProb, func(round int, e float64) { rows[round].RegularCrash = e }); err != nil {
		return nil, fmt.Errorf("experiments: fig4 regular crash: %w", err)
	}
	return rows, nil
}

func runRobustTrace(graph *topology.Graph, values []vec.Vector, outlier []bool, cfg Fig4Config, r *rng.RNG, crashProb float64, sink func(round int, err float64)) error {
	return runRobustTraceCount(graph, values, outlier, cfg, r, crashProb,
		func(round int, e float64, _ int) { sink(round, e) })
}

// Fig4Table renders the traces.
func Fig4Table(rows []Fig4Row) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			fmt.Sprintf("%d", r.Round),
			F(r.RobustNoCrash), F(r.RegularNoCrash),
			F(r.RobustCrash), F(r.RegularCrash),
		}
	}
	return FormatTable(
		[]string{"round", "robust", "regular", "robust+crash", "regular+crash"},
		out,
	)
}

// CrashSweepRow reports one crash-probability setting.
type CrashSweepRow struct {
	// CrashProb is the per-round crash probability.
	CrashProb float64
	// RobustErr and RegularErr are the final-round mean-estimation
	// errors over surviving nodes.
	RobustErr, RegularErr float64
	// Survivors is the number of alive nodes at the end of the robust
	// run.
	Survivors int
}

// RunCrashSweep extends Figure 4's robustness axis: final estimation
// error as the per-round crash probability varies. The paper shows one
// point (p = 0.05); the sweep maps how far the robustness extends.
func RunCrashSweep(probs []float64, cfg Fig4Config) ([]CrashSweepRow, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values, outlier, err := Figure3Dataset(cfg.NGood, cfg.NOut, cfg.Delta, r)
	if err != nil {
		return nil, err
	}
	graph, err := topology.Full(len(values))
	if err != nil {
		return nil, err
	}
	truth := vec.Of(0, 0)
	rows := make([]CrashSweepRow, 0, len(probs))
	for _, p := range probs {
		row := CrashSweepRow{CrashProb: p}
		var lastRobust float64
		survivors := 0
		err := runRobustTraceCount(graph, values, outlier, cfg, r.Split(), p,
			func(round int, e float64, alive int) {
				lastRobust = e
				survivors = alive
			})
		if err != nil {
			return nil, fmt.Errorf("experiments: crash sweep p=%v: %w", p, err)
		}
		row.RobustErr = lastRobust
		row.Survivors = survivors
		regular, err := runPushSum(graph, values, cfg.Rounds, r.Split(), p, nil)
		if err != nil {
			return nil, err
		}
		if len(regular) > 0 {
			if row.RegularErr, err = stats.MeanError(regular, truth); err != nil {
				return nil, err
			}
		} else {
			row.RegularErr = math.NaN() // no survivors
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runRobustTraceCount is runRobustTrace with the surviving-node count
// passed to the sink. It runs the GM protocol on cfg.Backend through
// the engine; the per-round error probe reads classification snapshots,
// which is safe on every backend.
func runRobustTraceCount(graph *topology.Graph, values []vec.Vector, outlier []bool, cfg Fig4Config, r *rng.RNG, crashProb float64, sink func(round int, err float64, alive int)) error {
	killR := r.Split()
	vals := make([]core.Value, len(values))
	for i, v := range values {
		vals[i] = core.Value(v)
	}
	ecfg := engine.Config{
		Backend: cfg.Backend,
		Method:  gm.Method{},
		Values:  vals,
		Aux: func(i int) vec.Vector {
			aux := vec.New(2)
			if outlier[i] {
				aux[1] = 1
			} else {
				aux[0] = 1
			}
			return aux
		},
		Graph:   graph,
		RNG:     r,
		K:       cfg.K,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
	}
	caps := cfg.Backend.Caps()
	if caps.CrashProb {
		ecfg.CrashProb = crashProb
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return err
	}
	defer eng.Stop()
	truth := vec.Of(0, 0)
	probe := func(round int) error {
		var ests []vec.Vector
		for i := 0; i < eng.N(); i++ {
			if !eng.Alive(i) {
				continue
			}
			est, err := RobustEstimateOf(eng.Classification(i))
			if err != nil {
				return err
			}
			ests = append(ests, est)
		}
		if len(ests) == 0 {
			return engine.ErrStop
		}
		e, err := stats.MeanError(ests, truth)
		if err != nil {
			return err
		}
		if cfg.Metrics != nil {
			cfg.Metrics.Gauge("experiments.error").Set(e)
		}
		if cfg.Trace != nil {
			if err := cfg.Trace.Record(trace.Event{
				Round: round, Node: -1, Kind: trace.KindError, Value: e,
			}); err != nil {
				return err
			}
		}
		sink(round, e, len(ests))
		return nil
	}
	if caps.CrashProb {
		return eng.RunObserved(cfg.Rounds, probe)
	}
	// Concurrent backend: the engine cannot inject probabilistic
	// crashes, so the harness samples explicit fail-stop Kills between
	// wall-clock rounds of one gossip interval each.
	for round := 0; round < cfg.Rounds; round++ {
		if err := eng.Step(); err != nil {
			return err
		}
		for i := 0; i < eng.N(); i++ {
			if eng.Alive(i) && killR.Bool(crashProb) {
				if _, err := eng.Kill(i); err != nil {
					return err
				}
			}
		}
		if err := probe(round); err != nil {
			if errors.Is(err, engine.ErrStop) {
				return nil
			}
			return err
		}
	}
	return nil
}

// CrashSweepTable renders the sweep.
func CrashSweepTable(rows []CrashSweepRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			F(r.CrashProb), F(r.RobustErr), F(r.RegularErr),
			fmt.Sprintf("%d", r.Survivors),
		}
	}
	return FormatTable([]string{"crash prob", "robust err", "regular err", "survivors"}, out)
}
