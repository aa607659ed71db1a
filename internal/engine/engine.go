// Package engine is the transport-agnostic protocol layer: one gossip
// loop — split → send → absorb, Spread/convergence probing, weight-
// conservation accounting, uniform metrics and trace emission — over
// interchangeable communication backends. The paper's Algorithm 1 is
// deliberately generic over the substrate (§3.1 assumes only reliable
// channels and fair gossip); the engine makes that genericity concrete:
//
//   - BackendRound — the synchronous round driver (sim.Network), the
//     deterministic model the paper's evaluation uses (§5.3).
//   - BackendAsync — the asynchronous event driver (sim.Async),
//     deterministic arbitrary interleavings.
//   - BackendPipe / BackendTCP — the livenet wire deployment over
//     in-process pipes or loopback TCP: real connections, wire
//     encoding, genuine asynchrony.
//   - BackendShard — the concurrent protocol in one process on a
//     sharded worker pool, no serialization: scales (N in the hundreds
//     of thousands) neither the lockstep simulator nor a socket
//     deployment reaches.
//
// The simulator backends stay byte-compatible with the pre-engine
// drivers: a fixed-seed round-backend run emits the identical trace
// stream. The wire backends reuse internal/livenet, reduced to a pure
// transport; the protocol sequencing they used to hand-roll lives
// here, which is how they gain pull/push-pull modes and the
// round-robin policy. The two concurrent engines (pipe/tcp and shard)
// share one node table and one wall-clock driver (liveCore).
package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"distclass/internal/core"
	"distclass/internal/metrics"
	"distclass/internal/monitor"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/vec"
	"distclass/internal/wire"
)

// Backend selects the communication substrate an Engine runs on.
type Backend int

// Supported backends.
const (
	// BackendRound is the deterministic synchronous round driver.
	BackendRound Backend = iota
	// BackendAsync is the deterministic asynchronous event driver.
	BackendAsync
	// BackendPipe runs the wire deployment over in-process pipes.
	BackendPipe
	// BackendTCP runs the wire deployment over loopback TCP sockets.
	BackendTCP
	// BackendShard runs the concurrent protocol on a sharded scheduler:
	// nodes partitioned across a small worker pool (default GOMAXPROCS
	// shards), per-shard run queues, cross-shard frames batched once per
	// scheduling quantum. No per-node goroutines, so it reaches scales
	// (N in the hundreds of thousands) a goroutine per node cannot.
	BackendShard
)

func (b Backend) String() string {
	switch b {
	case BackendRound:
		return "round"
	case BackendAsync:
		return "async"
	case BackendPipe:
		return "pipe"
	case BackendTCP:
		return "tcp"
	case BackendShard:
		return "shard"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend maps a -backend flag value to a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "round":
		return BackendRound, nil
	case "async":
		return BackendAsync, nil
	case "pipe":
		return BackendPipe, nil
	case "tcp":
		return BackendTCP, nil
	case "shard":
		return BackendShard, nil
	default:
		return 0, fmt.Errorf(`engine: unknown backend %q (want "round", "async", "pipe", "tcp" or "shard")`, s)
	}
}

// Backends lists every backend, in flag-documentation order.
func Backends() []Backend {
	return []Backend{BackendRound, BackendAsync, BackendPipe, BackendTCP, BackendShard}
}

// Caps is a backend's capability matrix. Unsupported options are
// rejected by New with a clear error, never silently ignored.
type Caps struct {
	// Deterministic: fixed seed implies identical runs (and traces).
	Deterministic bool
	// Rounds: the run advances in driver rounds (Run/RunUntilConverged
	// count them); false means real time (WaitConverged polls).
	Rounds bool
	// CrashProb: probabilistic per-round crash injection.
	CrashProb bool
	// DropProb: probabilistic message loss.
	DropProb bool
	// Restart: killed nodes can rejoin (Kill works on every backend).
	Restart bool
	// Wire: messages cross a real byte-encoded transport.
	Wire bool
}

// Caps returns the backend's capability matrix.
func (b Backend) Caps() Caps {
	switch b {
	case BackendRound:
		return Caps{Deterministic: true, Rounds: true, CrashProb: true, DropProb: true}
	case BackendAsync:
		// CrashProb is engine-driven: the driver rejects it, the engine
		// applies it as explicit Kills between virtual rounds.
		return Caps{Deterministic: true, Rounds: true, CrashProb: true}
	case BackendPipe, BackendTCP:
		return Caps{Restart: true, Wire: true}
	case BackendShard:
		return Caps{Restart: true}
	default:
		return Caps{}
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Backend selects the substrate (default BackendRound).
	Backend Backend
	// Method is the instantiation. Required.
	Method core.Method
	// Values are the input data, one node each, all with the same
	// number of coordinates. Required.
	Values []core.Value
	// Aux, when set, provides node i's initial auxiliary vector
	// (mixture-space tracking); nil disables tracking.
	Aux func(i int) vec.Vector
	// Topology selects the graph generator (default full mesh); Graph,
	// when non-nil, supplies a prebuilt graph instead and Topology is
	// ignored.
	Topology topology.Kind
	Graph    *topology.Graph
	// RNG, when non-nil, is used directly as the randomness root and
	// Seed is ignored — for harnesses that manage their own streams.
	// Otherwise the root is rng.New(Seed).
	RNG *rng.RNG
	// K bounds collections per classification (default 2).
	K int
	// Q is the weight quantum (default core.DefaultQ).
	Q float64
	// Seed seeds all randomness (default 1).
	Seed uint64
	// Policy selects neighbor choice (default PushRandom); Mode the
	// gossip pattern (default ModePush). Every backend supports all
	// policies and modes.
	Policy Policy
	Mode   Mode
	// CrashProb crashes each alive node with this probability per
	// round (backends with Caps.CrashProb only).
	CrashProb float64
	// DropProb loses each sent message with this probability
	// (backends with Caps.DropProb only).
	DropProb float64
	// Tolerance is the convergence threshold (default 1e-3) and Window
	// the consecutive-probe count (default 3) for RunUntilConverged
	// and WaitConverged.
	Tolerance float64
	Window    int
	// MaxRounds bounds RunUntilConverged (default 500; rounds backends
	// only).
	MaxRounds int
	// Interval is each node's gossip tick on concurrent backends
	// (default 2ms).
	Interval time.Duration
	// Shards sets the worker count of BackendShard (default
	// GOMAXPROCS, clamped to the node count). Rejected on every other
	// backend.
	Shards int
	// FailOnDecodeErrors, when positive, fails wire backends once the
	// aggregate decode-error count reaches the threshold.
	FailOnDecodeErrors int
	// Codec selects the wire encoding of data frames (default
	// wire.CodecV1; see the wire package for the v2 quantized formats).
	// Only wire backends encode frames, so any non-default codec is
	// rejected on backends without Caps.Wire.
	Codec wire.Codec
	// FrameBatch, when at least 2, lets wire-backend link writers
	// coalesce up to that many queued messages into one frame per
	// flush. Rejected on backends without Caps.Wire; 0 and 1 mean no
	// coalescing.
	FrameBatch int
	// Metrics, when non-nil, backs all instrumentation; Trace receives
	// typed protocol and driver events.
	Metrics *metrics.Registry
	Trace   trace.Sink
	// Monitor, when non-nil, observes the run online: New tees it into
	// the trace stream (beside any Trace sink, neither aware of the
	// other), aligns its convergence detection with Tolerance/Window,
	// and arms its weight-conservation audit with the node count. The
	// sim backends feed the audit at every probe; concurrent backends
	// run a dedicated probe goroutine every MonitorInterval (default
	// 10ms) that also emits KindSpread trace events, giving live runs
	// the spread curve only simulations used to record.
	Monitor *monitor.Monitor
	// MonitorInterval is the concurrent backends' monitor probe cadence
	// (default 10ms; ignored without Monitor and on rounds backends).
	MonitorInterval time.Duration
	// EmitHeader records a run-header trace event (KindRunHeader,
	// carrying the backend name) before any other event. Off by
	// default so fixed-seed round traces stay byte-identical to
	// pre-engine runs; commands turn it on.
	EmitHeader bool
	// Causal upgrades the trace to trace.SchemaCausal: send and receive
	// events carry per-message correlation (per-sender sequence number,
	// peer id, Lamport clock, carried weight), with one receive event
	// per delivered message on every backend, so internal/causal can
	// reconstruct the happens-before DAG and the weight-provenance
	// ledger. Implies the run header (a causal trace always starts with
	// a schema-2 header). Off by default: pre-causal fixed-seed goldens
	// stay byte-identical.
	Causal bool
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	//lint:allow floatcmp zero value selects the default
	if c.Tolerance == 0 {
		c.Tolerance = 1e-3
	}
	if c.Window == 0 {
		c.Window = 3
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 500
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Millisecond
	}
	if c.MonitorInterval <= 0 {
		c.MonitorInterval = 10 * time.Millisecond
	}
	return c
}

// validate rejects option combinations the chosen backend cannot
// honor — the engine never drops an option on the floor.
func (c Config) validate() error {
	if c.Method == nil {
		return errors.New("engine: Config.Method is required")
	}
	if len(c.Values) == 0 {
		return errors.New("engine: no input values")
	}
	for i, v := range c.Values {
		if len(v) != len(c.Values[0]) {
			return fmt.Errorf("engine: value %d has %d coordinates, value 0 has %d", i, len(v), len(c.Values[0]))
		}
	}
	caps := c.Backend.Caps()
	//lint:allow floatcmp zero means "feature unused"; any nonzero setting must be honored or rejected
	if c.CrashProb != 0 && !caps.CrashProb {
		return fmt.Errorf("engine: backend %s does not support CrashProb (got %v); use Kill for explicit crashes", c.Backend, c.CrashProb)
	}
	//lint:allow floatcmp zero means "feature unused"; any nonzero setting must be honored or rejected
	if c.DropProb != 0 && !caps.DropProb {
		return fmt.Errorf("engine: backend %s does not support DropProb (got %v)", c.Backend, c.DropProb)
	}
	if c.FailOnDecodeErrors > 0 && !caps.Wire {
		return fmt.Errorf("engine: backend %s has no wire decoding; FailOnDecodeErrors does not apply", c.Backend)
	}
	switch c.Codec {
	case wire.CodecV1, wire.CodecV2, wire.CodecV2F32:
	default:
		return fmt.Errorf("engine: unknown codec %s", c.Codec)
	}
	if c.Codec != wire.CodecV1 && !caps.Wire {
		return fmt.Errorf("engine: backend %s has no wire encoding; Codec %s does not apply", c.Backend, c.Codec)
	}
	if c.FrameBatch < 0 {
		return fmt.Errorf("engine: FrameBatch = %d must not be negative", c.FrameBatch)
	}
	if c.FrameBatch >= 2 && !caps.Wire {
		return fmt.Errorf("engine: backend %s has no wire frames; FrameBatch does not apply", c.Backend)
	}
	if c.Shards != 0 && c.Backend != BackendShard {
		return fmt.Errorf("engine: backend %s has no worker pool; Shards does not apply", c.Backend)
	}
	if c.Shards < 0 {
		return fmt.Errorf("engine: Shards = %d must be positive", c.Shards)
	}
	return nil
}

// Engine runs the classification protocol on one backend. Construct
// with New; concurrent backends must be Stopped.
type Engine interface {
	// Backend identifies the substrate.
	Backend() Backend
	// N returns the number of nodes.
	N() int
	// Node returns node i's protocol state. For concurrent backends
	// the node's internals may be mutated by running goroutines; use
	// Classification for a safe snapshot.
	Node(i int) *core.Node
	// Classification returns a copy of node i's classification.
	Classification(i int) core.Classification
	// Spread returns the sampled maximum pairwise dissimilarity over
	// alive nodes — the convergence diagnostic.
	Spread() (float64, error)
	// TotalWeight sums the weight held at alive nodes.
	TotalWeight() float64
	// Alive reports whether node i is alive; AliveCount counts them.
	Alive(i int) bool
	AliveCount() int
	// Stats returns the engine's traffic counters.
	Stats() Stats
	// Kill crashes node i fail-stop and returns the weight destroyed
	// (the node's own plus anything in flight to it that the crash
	// discarded).
	Kill(i int) (float64, error)
	// Restart revives a killed node with a fresh value, which must
	// have the cluster's coordinate count (backends with Caps.Restart).
	Restart(i int, value core.Value) error
	// Step advances one round without convergence probing: a driver
	// round on BackendRound, N driver events (one virtual round) on
	// BackendAsync, one gossip interval of wall time on concurrent
	// backends.
	Step() error
	// Run advances the protocol: on rounds backends it executes the
	// given number of rounds; on concurrent backends it lets the
	// protocol run for rounds gossip intervals of wall time.
	Run(rounds int) error
	// RunObserved is Run with a per-round callback (rounds backends
	// only; the callback may return ErrStop).
	RunObserved(rounds int, after func(round int) error) error
	// RunUntilConverged runs until Spread stays below Tolerance for
	// Window consecutive probes, or the budget is exhausted: MaxRounds
	// rounds on rounds backends, the given timeout on concurrent ones
	// (timeout <= 0 means 30s).
	RunUntilConverged(timeout time.Duration) (rounds int, converged bool, err error)
	// Err returns the first internal error observed (concurrent
	// backends), or nil.
	Err() error
	// Stop shuts concurrent backends down (joining all goroutines) and
	// is a no-op on simulator backends. Safe to call more than once.
	Stop()
}

// New builds an engine over the configured backend. The classification
// nodes, graph construction and randomness split order are identical
// across backends: root RNG, one Split for the topology, one Split for
// the driver — the same order the pre-engine facade used, preserving
// fixed-seed byte-compatibility on BackendRound.
func New(cfg Config) (Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := cfg.RNG
	if root == nil {
		root = rng.New(cfg.Seed)
	}
	graph := cfg.Graph
	if graph == nil {
		var err error
		graph, err = topology.Build(cfg.Topology, len(cfg.Values), root.Split())
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	if graph.N() != len(cfg.Values) {
		return nil, fmt.Errorf("engine: %d values for a %d-node graph", len(cfg.Values), graph.N())
	}
	if cfg.Monitor != nil {
		// Align the monitor with the run before any event flows: same
		// convergence parameters as RunUntilConverged, expected weight =
		// one unit per initial node (crash/recover events adjust it from
		// here). The tee puts the monitor beside any configured Trace
		// sink; everything below records through both.
		cfg.Monitor.SetBackend(cfg.Backend.String())
		cfg.Monitor.SetDetection(cfg.Tolerance, cfg.Window)
		cfg.Monitor.SetExpectedWeight(float64(len(cfg.Values)))
		cfg.Trace = trace.Tee(cfg.Monitor, cfg.Trace)
	}
	if (cfg.EmitHeader || cfg.Causal) && cfg.Trace != nil {
		h := trace.RunHeader(cfg.Backend.String())
		if cfg.Causal {
			h = trace.CausalRunHeader(cfg.Backend.String())
		}
		if err := cfg.Trace.Record(h); err != nil {
			return nil, fmt.Errorf("engine: run header: %w", err)
		}
	}
	nodeCfg := core.Config{
		Method:  cfg.Method,
		K:       cfg.K,
		Q:       cfg.Q,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
	}
	nodes := make([]*core.Node, len(cfg.Values))
	for i, v := range cfg.Values {
		var aux vec.Vector
		if cfg.Aux != nil {
			aux = cfg.Aux(i)
		}
		node, err := core.NewNode(i, vec.Vector(v).Clone(), aux, nodeCfg)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		nodes[i] = node
	}
	switch cfg.Backend {
	case BackendRound, BackendAsync:
		return newSimEngine(cfg, graph, nodes, root)
	case BackendPipe, BackendTCP:
		return newLiveEngine(cfg, graph, nodes, nodeCfg, root)
	case BackendShard:
		return newShardEngine(cfg, graph, nodes, nodeCfg, root)
	default:
		return nil, fmt.Errorf("engine: unknown backend %d", int(cfg.Backend))
	}
}

// ClassificationSize measures a classification message by its number
// of collections — the unit the paper's message-size discussion uses.
func ClassificationSize(cl core.Classification) int { return len(cl) }

// classifierAgent adapts a classification node (Algorithm 1) to the
// generic drivers.
type classifierAgent struct {
	node *core.Node
}

func (a *classifierAgent) Emit() (core.Classification, bool) {
	out := a.node.Split()
	return out, len(out) > 0
}

func (a *classifierAgent) Receive(batch []core.Classification) error {
	return a.node.Absorb(batch...)
}

// spreadOver returns the maximum pairwise dissimilarity over the probe
// index set idx into nodes. The probe reads the nodes' own slices (no
// cloning) via DissimilarityTo.
func spreadOver(nodes []*core.Node, idx []int) (float64, error) {
	var worst float64
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			d, err := nodes[idx[i]].DissimilarityTo(nodes[idx[j]])
			if err != nil {
				return 0, err
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst, nil
}

// Spread-probe bounds. Small populations keep the historical evenly
// spaced 4-node probe (fixed-seed round traces are pinned byte-for-byte
// on it); above spreadLegacyMax the probe switches to a seeded sample
// of spreadProbeNodes distinct nodes — 66 pairs, a constant, instead of
// the O(N)-spaced-but-still-tiny legacy set whose 4 probes lose all
// resolution at 100k nodes. The sample is a pure function of (seed, n),
// so a fixed-seed run probes the same pairs every time (pinned by
// TestProbeIndicesSeededPinned) and monitor/distclass-top stay
// responsive at any scale: probe cost never grows with N.
const (
	spreadLegacyMax  = 64
	spreadLegacyVal  = 4
	spreadProbeNodes = 12
	// spreadSeedSalt decorrelates the probe stream from the root RNG
	// without consuming a root Split (which would shift the pinned
	// fixed-seed split order). Arbitrary odd 64-bit constant.
	spreadSeedSalt = 0x9e3779b97f4a7c15
)

// probeIndicesInto writes the spread-probe index set for an
// n-node population into buf (grown as needed) and returns it.
// Deterministic: legacy evenly spaced indices up to spreadLegacyMax,
// a seeded spreadProbeNodes-sample beyond, ascending either way.
// scratch, if non-nil, is reseeded and used as the sample generator so
// a caller probing on a steady cadence allocates nothing; nil
// constructs a fresh generator. Either way the stream — and so the
// sample — is a pure function of (seed, n).
func probeIndicesInto(buf []int, n int, seed uint64, scratch *rng.RNG) []int {
	buf = buf[:0]
	if n <= spreadLegacyMax {
		if n <= spreadLegacyVal {
			for i := 0; i < n; i++ {
				buf = append(buf, i)
			}
			return buf
		}
		for i := 0; i < spreadLegacyVal; i++ {
			buf = append(buf, i*n/spreadLegacyVal)
		}
		return buf
	}
	r := scratch
	if r == nil {
		r = rng.New(seed ^ spreadSeedSalt)
	} else {
		r.Reseed(seed ^ spreadSeedSalt)
	}
	for len(buf) < spreadProbeNodes {
		c := r.IntN(n)
		dup := false
		for _, v := range buf {
			if v == c {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, c)
		}
	}
	sort.Ints(buf)
	return buf
}
