package engine

import (
	"errors"
	"fmt"
	"time"

	"distclass/internal/converge"
	"distclass/internal/core"
	"distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/sim"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// simEngine runs the protocol on the deterministic simulator drivers:
// a thin adapter over sim.Network (BackendRound) or sim.Async
// (BackendAsync). The round path reproduces the pre-engine facade
// byte-for-byte on a fixed seed: same RNG consumption order, same
// probe and trace emission.
type simEngine struct {
	cfg   Config
	nodes []*core.Node
	round *sim.Network[core.Classification]
	async *sim.Async[core.Classification]
	// crashR drives the engine-level crash injection of the async
	// backend (the async driver itself rejects CrashProb; the engine
	// applies it as explicit Kills between virtual rounds).
	crashR *rng.RNG

	// spreadG is the sim.spread gauge, cached so per-round probes never
	// take the registry lock; probeBuf and probeRNG are probe scratch —
	// the probe runs between rounds on the driving goroutine, so Spread
	// reuses them and the whole probe path allocates nothing after
	// warmup (pinned by TestSimSpreadAllocFree).
	spreadG  *metrics.Gauge
	probeBuf []int
	probeRNG *rng.RNG
}

func newSimEngine(cfg Config, graph *topology.Graph, nodes []*core.Node, root *rng.RNG) (*simEngine, error) {
	agents := make([]sim.Agent[core.Classification], len(nodes))
	for i, n := range nodes {
		agents[i] = &classifierAgent{node: n}
	}
	e := &simEngine{cfg: cfg, nodes: nodes, probeRNG: rng.New(0)} // probeIDs reseeds probeRNG
	if cfg.Metrics != nil {
		e.spreadG = cfg.Metrics.Gauge("sim.spread")
	}
	driverRNG := root.Split()
	opts := sim.Options[core.Classification]{
		Policy:   cfg.Policy,
		Mode:     cfg.Mode,
		SizeFunc: ClassificationSize,
		Metrics:  cfg.Metrics,
		Trace:    cfg.Trace,
		Causal:   cfg.Causal,
	}
	if cfg.Causal {
		opts.WeightFunc = core.Classification.TotalWeight
	}
	switch cfg.Backend {
	case BackendRound:
		opts.CrashProb = cfg.CrashProb
		opts.DropProb = cfg.DropProb
		net, err := sim.NewNetwork(graph, agents, driverRNG, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.round = net
	case BackendAsync:
		a, err := sim.NewAsync(graph, agents, driverRNG, opts)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.async = a
		if cfg.CrashProb > 0 {
			e.crashR = root.Split()
		}
	default:
		return nil, fmt.Errorf("engine: simEngine cannot run backend %s", cfg.Backend)
	}
	return e, nil
}

func (e *simEngine) Backend() Backend {
	if e.round != nil {
		return BackendRound
	}
	return BackendAsync
}

func (e *simEngine) N() int                { return len(e.nodes) }
func (e *simEngine) Node(i int) *core.Node { return e.nodes[i] }
func (e *simEngine) Err() error            { return nil }
func (e *simEngine) Stop()                 {}

func (e *simEngine) Classification(i int) core.Classification {
	return e.nodes[i].Classification()
}

// Spread runs the spread probe (probeIDs) over the alive nodes: dead
// nodes keep their last classification forever and would pin the
// diagnostic high after kills. The simulators cannot restart, so no
// node joins as revived. Dissimilarity reads node state in place: no
// clones, no per-probe slices.
func (e *simEngine) Spread() (float64, error) {
	e.probeBuf = probeIDs(e.probeBuf, e, nil, e.cfg.Seed, e.probeRNG)
	return probeSpread(e, e.probeBuf)
}

func (e *simEngine) pairDissimilarity(a, b int) (float64, error) {
	return e.nodes[a].DissimilarityTo(e.nodes[b])
}

func (e *simEngine) TotalWeight() float64 {
	var total float64
	for i, n := range e.nodes {
		if e.Alive(i) {
			total += n.Weight()
		}
	}
	if e.async != nil {
		// In the async model weight rides the channels between steps;
		// in-flight messages still count until delivered or destroyed.
		e.async.ForEachQueued(func(cls core.Classification) {
			total += cls.TotalWeight()
		})
	}
	return total
}

func (e *simEngine) Alive(i int) bool {
	if e.round != nil {
		return e.round.Alive(i)
	}
	return e.async.Alive(i)
}

func (e *simEngine) AliveCount() int {
	if e.round != nil {
		return e.round.AliveCount()
	}
	return e.async.AliveCount()
}

func (e *simEngine) Stats() Stats {
	if e.round != nil {
		return e.round.Stats()
	}
	return e.async.Stats()
}

func (e *simEngine) Kill(i int) (float64, error) {
	if i < 0 || i >= len(e.nodes) {
		return 0, fmt.Errorf("engine: Kill(%d): no such node", i)
	}
	if !e.Alive(i) {
		return 0, fmt.Errorf("engine: node %d is already dead", i)
	}
	destroyed := e.nodes[i].Weight()
	if e.round != nil {
		// Between rounds nothing is in flight: only the node's own
		// weight is lost.
		e.round.Kill(i)
		return destroyed, nil
	}
	// The async kill also discards messages queued to or from the dead
	// node; the weight they carry is destroyed with it.
	for _, cls := range e.async.Kill(i) {
		destroyed += cls.TotalWeight()
	}
	return destroyed, nil
}

func (e *simEngine) Restart(int, core.Value) error {
	return fmt.Errorf("engine: backend %s does not support Restart", e.Backend())
}

// recordSpread emits a spread observation as a gauge and a trace
// event — the uniform per-round convergence probe. With a monitor
// attached it also feeds the weight-conservation audit: between sim
// rounds nothing is in flight (round) or in-flight weight is counted
// (async TotalWeight), so every sample should be exact.
func (e *simEngine) recordSpread(round int, spread float64) error {
	if e.spreadG != nil {
		e.spreadG.Set(spread)
	}
	if e.cfg.Monitor != nil {
		e.cfg.Monitor.ObserveWeight(e.TotalWeight())
	}
	if e.cfg.Trace != nil {
		if e.async != nil {
			// Async send, receive and crash events carry the driver's
			// step index, so the probe must too. It takes the step
			// count, the index the crash phase's kills after the
			// round's last step are stamped with; that step's own index
			// would put the probe behind them.
			round = e.async.Stats().Steps
		}
		return e.cfg.Trace.Record(trace.Event{
			Round: round, Node: -1, Kind: trace.KindSpread, Value: spread,
		})
	}
	return nil
}

// withProbe wraps an after-round callback with the per-round
// convergence probe. With no observability configured it returns the
// callback unchanged (nil stays nil: no per-round spread cost).
func (e *simEngine) withProbe(after func(round int) error) func(round int) error {
	if e.cfg.Metrics == nil && e.cfg.Trace == nil {
		return after
	}
	return func(round int) error {
		spread, err := e.Spread()
		if err != nil {
			return err
		}
		if err := e.recordSpread(round, spread); err != nil {
			return err
		}
		if after != nil {
			return after(round)
		}
		return nil
	}
}

// virtualRound advances the async driver by one round's worth of
// events — N steps — then applies the engine-level crash injection,
// mirroring the round driver's post-round crash phase.
func (e *simEngine) virtualRound() error {
	for k := 0; k < len(e.nodes); k++ {
		if err := e.async.Step(); err != nil {
			return err
		}
	}
	if e.crashR != nil {
		for i := range e.nodes {
			if e.async.Alive(i) && e.crashR.Bool(e.cfg.CrashProb) {
				e.async.Kill(i)
			}
		}
	}
	return nil
}

// runRounds is the backend-neutral round loop: driver rounds on
// BackendRound, virtual rounds (N async steps + crash phase) on
// BackendAsync.
func (e *simEngine) runRounds(rounds int, after func(round int) error) error {
	if e.round != nil {
		return e.round.RunRounds(rounds, after)
	}
	for round := 0; round < rounds; round++ {
		if err := e.virtualRound(); err != nil {
			return err
		}
		if after != nil {
			if err := after(round); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

func (e *simEngine) Step() error {
	if e.round != nil {
		return e.round.Round()
	}
	return e.virtualRound()
}

func (e *simEngine) Run(rounds int) error {
	return e.runRounds(rounds, e.withProbe(nil))
}

func (e *simEngine) RunObserved(rounds int, after func(round int) error) error {
	return e.runRounds(rounds, e.withProbe(after))
}

func (e *simEngine) RunUntilConverged(time.Duration) (rounds int, converged bool, err error) {
	det := converge.New(e.cfg.Tolerance, e.cfg.Window)
	err = e.runRounds(e.cfg.MaxRounds, func(round int) error {
		rounds = round + 1
		spread, err := e.Spread()
		if err != nil {
			return err
		}
		if err := e.recordSpread(round, spread); err != nil {
			return err
		}
		if det.Observe(round, spread) {
			converged = true
			return ErrStop
		}
		return nil
	})
	if err != nil {
		return rounds, false, err
	}
	return rounds, converged, nil
}
