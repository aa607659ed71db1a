package engine

import (
	"distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/sim"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// This file is the engine's generic driver surface: the simulator's
// round and async drivers re-exported for arbitrary message types, so
// protocols other than the classification algorithm (push-sum,
// histogram gossip) run through the engine layer without importing
// internal/sim — the layering rule distclass-lint enforces.

// Agent is a protocol participant, structurally identical to
// sim.Agent. (A generic type alias would be the natural spelling, but
// the module targets go 1.22, which predates them.)
type Agent[M any] interface {
	// Emit produces the message for one send opportunity; ok reports
	// whether there is anything to send.
	Emit() (msg M, ok bool)
	// Receive consumes a batch of delivered messages. Implementations
	// must not retain batch beyond the call: the round driver reuses
	// its inbox slices every round.
	Receive(batch []M) error
}

// Policy selects the neighbor a node sends to.
type Policy = sim.Policy

// Mode selects the gossip communication pattern.
type Mode = sim.Mode

// Stats is a point-in-time view of a driver's traffic counters.
type Stats = sim.Stats

// Gossip policies and modes, re-exported.
const (
	PushRandom = sim.PushRandom
	RoundRobin = sim.RoundRobin

	ModePush     = sim.ModePush
	ModePull     = sim.ModePull
	ModePushPull = sim.ModePushPull
)

// ErrStop, returned from a run callback, halts the run early without
// error.
var ErrStop = sim.ErrStop

// Options configure a generic driver (the engine-level mirror of
// sim.Options).
type Options[M any] struct {
	// Policy selects neighbor choice (default PushRandom).
	Policy Policy
	// Mode selects the gossip pattern (default ModePush).
	Mode Mode
	// CrashProb is the per-round crash probability (round driver only;
	// the async driver rejects it — crashes there are explicit Kills).
	CrashProb float64
	// DropProb is the probability a sent message is silently lost
	// (round driver only).
	DropProb float64
	// SizeFunc, when set, measures each sent message.
	SizeFunc func(M) int
	// Metrics, when non-nil, receives the driver's traffic counters.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives typed driver events.
	Trace trace.Sink
}

func (o Options[M]) toSim() sim.Options[M] {
	return sim.Options[M]{
		Policy:    o.Policy,
		Mode:      o.Mode,
		CrashProb: o.CrashProb,
		DropProb:  o.DropProb,
		SizeFunc:  o.SizeFunc,
		Metrics:   o.Metrics,
		Trace:     o.Trace,
	}
}

// simAgents converts engine agents to sim agents; the interfaces are
// structurally identical, so each element converts implicitly.
func simAgents[M any](agents []Agent[M]) []sim.Agent[M] {
	out := make([]sim.Agent[M], len(agents))
	for i, a := range agents {
		out[i] = a
	}
	return out
}

// RoundDriver is the synchronous round driver (one send opportunity
// per alive node per round, batched delivery, optional crash/drop
// injection). It embeds the sim implementation; all its methods —
// Round, RunRounds, Stats, Alive, AliveCount, Kill — are promoted.
type RoundDriver[M any] struct {
	*sim.Network[M]
}

// NewRoundDriver builds a round driver over the graph; agents[i] runs
// on graph node i.
func NewRoundDriver[M any](g *topology.Graph, agents []Agent[M], r *rng.RNG, opts Options[M]) (*RoundDriver[M], error) {
	n, err := sim.NewNetwork(g, simAgents(agents), r, opts.toSim())
	if err != nil {
		return nil, err
	}
	return &RoundDriver[M]{n}, nil
}

// AsyncDriver is the fully asynchronous event driver (per-channel FIFO
// queues, one event per step). It embeds the sim implementation; all
// its methods — Step, RunSteps, Drain, Stats, Alive, AliveCount,
// InFlight, Kill — are promoted.
type AsyncDriver[M any] struct {
	*sim.Async[M]
}

// NewAsyncDriver builds an async driver over the graph. CrashProb and
// DropProb are rejected (see sim.NewAsync).
func NewAsyncDriver[M any](g *topology.Graph, agents []Agent[M], r *rng.RNG, opts Options[M]) (*AsyncDriver[M], error) {
	a, err := sim.NewAsync(g, simAgents(agents), r, opts.toSim())
	if err != nil {
		return nil, err
	}
	return &AsyncDriver[M]{a}, nil
}
