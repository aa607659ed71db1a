// Package live runs the churn ablation — the paper's Figure 4 crash
// model (fail-stop nodes whose weight is destroyed, §3.1) reproduced
// by killing nodes mid-run and measuring what the survivors still
// agree on — against any engine backend. On the deterministic
// simulator backends (round, async) the kills land between rounds and
// the weight audit is exact; on the concurrent backends (pipe, tcp,
// shard) real nodes die mid-gossip and the audit allows the handful
// of frames a dying connection can tear. One harness, one readout,
// five substrates: the point of the engine layer.
//
// The package deliberately lives outside the deterministic core: it
// needs wall-clock pacing and deadlines (time.Sleep, time.Now) that
// the nowallclock lint rule bans from the protocol and sim packages.
package live

import (
	"errors"
	"fmt"
	"math"
	"time"

	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/gm"
	"distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/vec"
	"distclass/internal/wire"
)

// ChurnConfig parameterizes the churn ablation.
type ChurnConfig struct {
	// Backend selects the substrate (zero value engine.BackendRound;
	// the experiments command defaults its churn runs to BackendPipe,
	// the historical live deployment).
	Backend engine.Backend
	// N is the cluster size (default 50).
	N int
	// KillFracs are the node fractions to kill, one cluster per entry
	// (default 0, 0.1, 0.2, 0.3 — the Figure 4 regime).
	KillFracs []float64
	// K bounds collections per classification (default 2).
	K int
	// Interval is the per-node gossip tick on concurrent backends
	// (default 1ms).
	Interval time.Duration
	// Seed drives the dataset, victim choice and neighbor selection
	// (default 1). Only the simulator backends are bit-reproducible.
	Seed uint64
	// Tol is the spread below which a cluster counts as converged
	// (default 0.05 — intentionally far above the replay analyzer's
	// 1e-3 convergence threshold, so churn traces never trip its
	// post-convergence divergence anomaly).
	Tol float64
	// MaxWait bounds each phase on concurrent backends: warmup,
	// post-kill convergence (default 30s). Rounds backends use round
	// budgets instead (warmupRounds, convergeRounds).
	MaxWait time.Duration
	// Strict makes degradation fatal: a run that does not converge,
	// fails internally, or breaks the weight-conservation band returns
	// an error instead of a row. Kill-free rows must conserve weight
	// exactly on every backend. The churn-smoke CI gate runs strict.
	Strict bool
	// Codec selects the wire encoding and FrameBatch the per-flush
	// coalescing bound on the wire backends (pipe, tcp). Zero values
	// mean f64 coordinates and one message per frame; the engine
	// rejects non-default values on backends without a wire format.
	Codec      wire.Codec
	FrameBatch int
	// Metrics and Trace are handed to every cluster; spread and error
	// probes are recorded to Trace with Round and Node -1 (churn probes
	// are not tied to driver rounds).
	Metrics *metrics.Registry
	Trace   trace.Sink
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.N == 0 {
		c.N = 50
	}
	if c.KillFracs == nil {
		c.KillFracs = []float64{0, 0.1, 0.2, 0.3}
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tol <= 0 {
		c.Tol = 0.05
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	return c
}

// Round budgets for the rounds backends, replacing MaxWait.
const (
	// warmupRounds bounds the pre-kill gossip phase (the 5N-message
	// threshold is normally hit within ~6 rounds).
	warmupRounds = 50
	// convergeRounds bounds the survivors' re-convergence phase.
	convergeRounds = 500
)

// ChurnRow is one kill fraction's outcome.
type ChurnRow struct {
	// KillFrac is the requested kill fraction; Killed the node count it
	// rounded to; Survivors what remained alive.
	KillFrac  float64
	Killed    int
	Survivors int
	// WeightDestroyed is the exact weight the kills removed (summed
	// from Engine.Kill); WeightAtNodes the weight found at surviving
	// nodes after Stop — conservation means the two sum back to ~N
	// (exactly N when nothing was killed).
	WeightDestroyed float64
	WeightAtNodes   float64
	// FinalSpread is the last sampled dissimilarity spread and
	// Converged whether it passed Tol within the budget.
	FinalSpread float64
	Converged   bool
	// FinalError is the survivors' mean robust-estimate error against
	// the ground truth mean (0,0) of the Figure 3 population.
	FinalError float64
	// Drops counts refused or destroyed sends during the run: full-
	// queue backpressure on concurrent backends (not loss), messages
	// destroyed at dead destinations on the simulator backends.
	Drops int64
}

// RunLiveChurn runs one cluster per kill fraction on the configured
// backend: gossip, kill, wait for the survivors to re-converge, stop,
// audit. It is the backend-generic face of the sim-side crash sweep
// (experiments.RunCrashSweep).
func RunLiveChurn(cfg ChurnConfig) ([]ChurnRow, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	rows := make([]ChurnRow, 0, len(cfg.KillFracs))
	for _, frac := range cfg.KillFracs {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("live: kill fraction %v outside [0, 1)", frac)
		}
		row, err := runChurnOnce(frac, cfg, r.Split())
		if err != nil {
			return nil, fmt.Errorf("live: backend %s, kill fraction %v: %w", cfg.Backend, frac, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runChurnOnce(frac float64, cfg ChurnConfig, r *rng.RNG) (ChurnRow, error) {
	n := cfg.N
	values, _, err := experiments.Figure3Dataset(n-n/20, n/20, 10, r)
	if err != nil {
		return ChurnRow{}, err
	}
	g, err := topology.Full(n)
	if err != nil {
		return ChurnRow{}, err
	}
	eng, err := engine.New(engine.Config{
		Backend:    cfg.Backend,
		Method:     gm.Method{},
		Values:     values,
		Graph:      g,
		K:          cfg.K,
		Q:          core.DefaultQ,
		Seed:       cfg.Seed + 1,
		Tolerance:  cfg.Tol,
		Interval:   cfg.Interval,
		Codec:      cfg.Codec,
		FrameBatch: cfg.FrameBatch,
		Metrics:    cfg.Metrics,
		Trace:      cfg.Trace,
	})
	if err != nil {
		return ChurnRow{}, err
	}
	defer eng.Stop()
	rounds := cfg.Backend.Caps().Rounds

	// Warmup: let gossip flow before the crashes so the kills land
	// mid-run, with weight genuinely distributed.
	if err := warmup(eng, rounds, cfg); err != nil {
		return ChurnRow{}, err
	}

	row := ChurnRow{KillFrac: frac, Killed: int(frac * float64(n))}
	victims := r.Perm(n)[:row.Killed]
	for _, v := range victims {
		w, err := eng.Kill(v)
		if err != nil {
			return ChurnRow{}, err
		}
		row.WeightDestroyed += w
	}
	row.Survivors = eng.AliveCount()

	// Let the survivors re-converge, probing spread as the sim
	// experiments do per round (recorded with Round -1: churn probes
	// are not tied to driver rounds).
	if err := converge(eng, rounds, cfg, &row); err != nil {
		return ChurnRow{}, err
	}

	eng.Stop()
	if err := eng.Err(); err != nil {
		return ChurnRow{}, err
	}
	row.WeightAtNodes = eng.TotalWeight()
	row.Drops = int64(eng.Stats().MessagesDropped)

	// Survivors' mean robust-estimate error against the ground truth
	// mean (0, 0) of the Figure 3 population.
	truth := vec.Of(0, 0)
	var errSum float64
	var alive int
	for i := 0; i < eng.N(); i++ {
		if !eng.Alive(i) {
			continue
		}
		est, err := experiments.RobustEstimateOf(eng.Classification(i))
		if err != nil {
			return ChurnRow{}, fmt.Errorf("node %d: %w", i, err)
		}
		d, err := vec.Dist(est, truth)
		if err != nil {
			return ChurnRow{}, err
		}
		errSum += d
		alive++
	}
	if alive == 0 {
		return ChurnRow{}, errors.New("no survivors to estimate from")
	}
	row.FinalError = errSum / float64(alive)
	if cfg.Trace != nil {
		if err := cfg.Trace.Record(trace.Event{
			Round: -1, Node: -1, Kind: trace.KindError, Value: row.FinalError,
		}); err != nil {
			return ChurnRow{}, err
		}
	}

	if cfg.Strict {
		if err := auditStrict(row, n); err != nil {
			return ChurnRow{}, err
		}
	}
	return row, nil
}

// warmup runs the pre-kill phase until 5N messages have flowed: rounds
// on the simulator backends, wall time on the concurrent ones.
func warmup(eng engine.Engine, rounds bool, cfg ChurnConfig) error {
	want := 5 * eng.N()
	if rounds {
		for i := 0; i < warmupRounds; i++ {
			if eng.Stats().MessagesSent >= want {
				return nil
			}
			if err := eng.Step(); err != nil {
				return err
			}
		}
		if eng.Stats().MessagesSent >= want {
			return nil
		}
		return fmt.Errorf("warmup: only %d messages flowed within %d rounds",
			eng.Stats().MessagesSent, warmupRounds)
	}
	deadline := time.Now().Add(cfg.MaxWait)
	for eng.Stats().MessagesSent < want {
		if err := eng.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("warmup: only %d messages flowed within %v",
				eng.Stats().MessagesSent, cfg.MaxWait)
		}
		time.Sleep(cfg.Interval)
	}
	return nil
}

// converge runs the post-kill phase until the survivors' spread drops
// under Tol or the budget runs out, recording each probe.
func converge(eng engine.Engine, rounds bool, cfg ChurnConfig, row *ChurnRow) error {
	probe := func() (bool, error) {
		spread, err := eng.Spread()
		if err != nil {
			return false, err
		}
		row.FinalSpread = spread
		if cfg.Trace != nil {
			if err := cfg.Trace.Record(trace.Event{
				Round: -1, Node: -1, Kind: trace.KindSpread, Value: spread,
			}); err != nil {
				return false, err
			}
		}
		if spread < cfg.Tol {
			row.Converged = true
			return true, nil
		}
		return false, nil
	}
	if rounds {
		for i := 0; i < convergeRounds; i++ {
			done, err := probe()
			if err != nil || done {
				return err
			}
			if err := eng.Step(); err != nil {
				return err
			}
		}
		_, err := probe()
		return err
	}
	deadline := time.Now().Add(cfg.MaxWait)
	for {
		done, err := probe()
		if err != nil || done {
			return err
		}
		if err := eng.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return nil
		}
		time.Sleep(5 * cfg.Interval)
	}
}

// auditStrict applies the CI gate's pass/fail rules to one row.
func auditStrict(row ChurnRow, n int) error {
	if !row.Converged {
		return fmt.Errorf("survivors did not converge (final spread %v)", row.FinalSpread)
	}
	if row.Killed == 0 {
		// With no kills nothing may destroy weight: every backend must
		// reproduce N exactly. All weights are multiples of the quantum
		// q, which the wire carries exactly, so the sums are exact; on
		// concurrent backends Stop has already drained or accounted
		// every queue.
		if got := row.WeightDestroyed + row.WeightAtNodes; math.Float64bits(got) != math.Float64bits(float64(n)) {
			drift := got - float64(n)
			return fmt.Errorf("conservation not exact: %v destroyed + %v at nodes vs %d started (drift %v)",
				row.WeightDestroyed, row.WeightAtNodes, n, drift)
		}
		return nil
	}
	// With kills, conservation has two sides. Upper: nothing duplicates
	// weight, so destroyed plus surviving weight can never exceed the N
	// the system started with (victims may die holding more or less
	// than 1, so the surviving weight alone is not bounded by the
	// survivor count). Lower: beyond the tracked kills, weight vanishes
	// only with messages addressed to already-dead nodes (the simulator
	// drivers' MessagesDropped) or frames torn mid-write by a dying
	// conn — bounded leaks, never more than the traffic the dead
	// attracted.
	survivors := float64(row.Survivors)
	if row.WeightDestroyed+row.WeightAtNodes > float64(n) {
		return fmt.Errorf("weight inflated: %v destroyed + %v at nodes > %d started",
			row.WeightDestroyed, row.WeightAtNodes, n)
	}
	if row.WeightAtNodes < survivors/2 {
		return fmt.Errorf("weight conservation broke: %v at nodes, %v survivors (destroyed %v of %d)",
			row.WeightAtNodes, survivors, row.WeightDestroyed, n)
	}
	return nil
}

// ChurnTable renders the rows as the Figure-4-style weight-destroyed
// vs. error table.
func ChurnTable(rows []ChurnRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		converged := "no"
		if r.Converged {
			converged = "yes"
		}
		out[i] = []string{
			experiments.F(r.KillFrac),
			fmt.Sprintf("%d", r.Killed),
			fmt.Sprintf("%d", r.Survivors),
			experiments.F(r.WeightDestroyed),
			experiments.F(r.WeightAtNodes),
			experiments.F(r.FinalSpread),
			converged,
			experiments.F(r.FinalError),
			fmt.Sprintf("%d", r.Drops),
		}
	}
	return experiments.FormatTable([]string{
		"kill frac", "killed", "survivors", "weight destroyed",
		"weight at nodes", "final spread", "converged", "mean error", "send drops",
	}, out)
}
