// Package distclass is a Go implementation of "Distributed Data
// Classification in Sensor Networks" (Eyal, Keidar, Rom — PODC 2010).
//
// Every node in a network holds one data value (a sensor read, a load
// metric, ...). The generic gossip algorithm lets all nodes converge to
// a common classification of the complete data set — a small set of
// weighted summaries — without any node ever collecting all values:
// nodes repeatedly split their classification, send half of the weight
// to a neighbor, and merge what they receive back down to at most K
// collections using an application-specific partition rule.
//
// Two instantiations ship with the library, mirroring the paper:
//
//   - Centroids (Algorithm 2): collections are summarized by their
//     weighted mean; the partition rule greedily merges the closest
//     centroids (k-means flavor).
//   - GaussianMixture (§5): collections are summarized as weighted
//     Gaussians (mean + covariance); the partition rule reduces the
//     mixture with Expectation-Maximization, which makes the
//     classification variance-aware and able to isolate outliers.
//
// The protocol runs on interchangeable backends (internal/engine): the
// deterministic simulators behind System, and the concurrent
// pipe/TCP/sharded substrates behind LiveCluster. A System wires
// values, a method and a topology into a runnable network:
//
//	values := []distclass.Value{{1.0, 2.0}, {1.1, 2.2}, {9.0, 8.5}}
//	sys, err := distclass.New(values, distclass.GaussianMixture(),
//		distclass.WithK(2))
//	if err != nil { ... }
//	rounds, err := sys.RunUntilConverged()
//	fmt.Println(sys.Classification(0))
//
// All randomness is seeded (WithSeed); identical configurations produce
// identical runs on the simulator backends.
package distclass

import (
	"errors"
	"fmt"
	"time"

	"distclass/internal/centroids"
	"distclass/internal/converge"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/gauss"
	"distclass/internal/gm"
	"distclass/internal/metrics"
	"distclass/internal/monitor"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/vec"
	"distclass/internal/wire"
)

// Core algorithm types, re-exported from the implementation packages.
type (
	// Value is a data point in R^d.
	Value = core.Value
	// Summary is a concise description of a collection of weighted
	// values.
	Summary = core.Summary
	// Collection is a weighted summary.
	Collection = core.Collection
	// Classification is a set of collections.
	Classification = core.Classification
	// Method instantiates the generic algorithm (valToSummary, mergeSet,
	// partition and the summary distance of §4.1).
	Method = core.Method
	// Mixture is a weighted set of Gaussians, produced by the
	// GaussianMixture method.
	Mixture = gauss.Mixture
	// Component is one weighted Gaussian of a Mixture.
	Component = gauss.Component
	// Stats reports engine traffic counters.
	Stats = engine.Stats
	// Topology names a network topology generator.
	Topology = topology.Kind
	// Policy selects how nodes pick gossip partners.
	Policy = engine.Policy
	// Mode selects the gossip communication pattern (push, pull,
	// push-pull).
	Mode = engine.Mode
	// Backend selects the communication substrate the protocol runs on.
	Backend = engine.Backend
	// Registry is a metrics namespace: counters, gauges and
	// fixed-bucket histograms with a deterministic snapshot export.
	Registry = metrics.Registry
	// TraceSink consumes structured protocol events (trace.Recorder
	// writes them as JSONL).
	TraceSink = trace.Sink
	// TraceEvent is one recorded observation delivered to a TraceSink.
	TraceEvent = trace.Event
	// Monitor is the live monitoring plane's online observer: attached
	// with WithMonitor, it watches the run's trace stream and serves
	// /status, /health and /events (Monitor.Attach) over HTTP.
	Monitor = monitor.Monitor
	// Codec selects the wire encoding of classifications on the wire
	// backends (pipe, tcp); see WithCodec.
	Codec = wire.Codec
)

// NewRegistry returns an empty metrics registry for WithMetrics.
func NewRegistry() *Registry { return metrics.NewRegistry() }

// NewMonitor returns a fresh online observer for WithMonitor. The
// attaching run overrides its convergence parameters with the system's
// own tolerance and window, so the monitor's verdict and
// RunUntilConverged always agree.
func NewMonitor() *Monitor { return monitor.New() }

// Supported topologies.
const (
	TopologyFull      = topology.KindFull
	TopologyRing      = topology.KindRing
	TopologyGrid      = topology.KindGrid
	TopologyTorus     = topology.KindTorus
	TopologyStar      = topology.KindStar
	TopologyTree      = topology.KindTree
	TopologyER        = topology.KindER
	TopologyGeometric = topology.KindGeometric
	TopologyRegular   = topology.KindRegular
)

// Gossip policies.
const (
	PushRandom = engine.PushRandom
	RoundRobin = engine.RoundRobin
)

// Gossip modes (§4.1: push, pull, or bilateral push-pull exchange).
const (
	ModePush     = engine.ModePush
	ModePull     = engine.ModePull
	ModePushPull = engine.ModePushPull
)

// Protocol backends. The simulator backends (BackendRound,
// BackendAsync) run under System; the concurrent backends (BackendPipe,
// BackendTCP, BackendShard) run under LiveCluster.
const (
	BackendRound = engine.BackendRound
	BackendAsync = engine.BackendAsync
	BackendPipe  = engine.BackendPipe
	BackendTCP   = engine.BackendTCP
	BackendShard = engine.BackendShard
)

// ParseBackend maps a -backend flag value ("round", "async", "pipe",
// "tcp", "shard") to a Backend.
func ParseBackend(s string) (Backend, error) { return engine.ParseBackend(s) }

// Wire codecs for the wire backends (pipe, tcp). Both carry each
// collection weight exactly, as an integer count of the message's
// lowest set bit, so weights on the q-lattice stay on it and weight
// conservation audits are bit-exact. CodecV2 (the default) carries
// float64 coordinates; CodecV2F32 carries them as float32 — the
// smallest frames, at ~1e-7 relative coordinate error.
const (
	CodecV2    = wire.CodecV2
	CodecV2F32 = wire.CodecV2F32
)

// ParseCodec maps a -codec flag value ("v2", "v2f32") to a Codec.
func ParseCodec(s string) (Codec, error) { return wire.ParseCodec(s) }

// Centroids returns the paper's Algorithm 2 instantiation: centroid
// summaries with greedy closest-pair partitioning.
func Centroids() Method { return centroids.Method{} }

// GaussianMixture returns the paper's §5 instantiation: weighted
// Gaussian summaries with EM mixture-reduction partitioning.
func GaussianMixture() Method { return gm.Method{} }

// ToMixture converts a classification produced by the GaussianMixture
// method into a Mixture for density evaluation or reporting.
func ToMixture(cls Classification) (Mixture, error) { return gm.ToMixture(cls) }

// MeanOf extracts the mean point of a summary produced by either
// built-in method.
func MeanOf(s Summary) (Value, error) {
	switch v := s.(type) {
	case centroids.Centroid:
		return v.Point.Clone(), nil
	case gm.Summary:
		return v.G.Mean.Clone(), nil
	default:
		return nil, fmt.Errorf("distclass: unknown summary type %T", s)
	}
}

// TraceRecords converts a classification to the flat per-collection
// records (weight, mean, summary string) that
// trace.Recorder.Classification serializes.
func TraceRecords(cls Classification) ([]trace.CollectionRecord, error) {
	return core.TraceRecords(cls, func(s Summary) ([]float64, error) {
		mean, err := MeanOf(s)
		if err != nil {
			return nil, err
		}
		return mean, nil
	})
}

// Assign associates a value with one collection of a classification and
// returns its index: nearest centroid for the Centroids method,
// highest-posterior component for the GaussianMixture method (the
// variance-aware rule the paper's Figure 1 motivates).
func Assign(cls Classification, v Value) (int, error) {
	if len(cls) == 0 {
		return 0, errors.New("distclass: empty classification")
	}
	if _, ok := cls[0].Summary.(gm.Summary); ok {
		mix, err := gm.ToMixture(cls)
		if err != nil {
			return 0, err
		}
		return gm.Assign(mix, vec.Vector(v), 0)
	}
	best, bestD := -1, 0.0
	for i, c := range cls {
		mean, err := MeanOf(c.Summary)
		if err != nil {
			return 0, err
		}
		d, err := vec.Dist(vec.Vector(v), vec.Vector(mean))
		if err != nil {
			return 0, err
		}
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, nil
}

// options carries the functional-option state for New and StartLive.
type options struct {
	k          int
	q          float64
	seed       uint64
	topo       Topology
	policy     Policy
	mode       Mode
	backend    Backend
	backendSet bool
	crashProb  float64
	dropProb   float64
	tol        float64
	maxRounds  int
	interval   time.Duration
	runHeader  bool
	causal     bool
	reg        *metrics.Registry
	sink       trace.Sink
	mon        *monitor.Monitor
	monEvery   time.Duration
	shards     int
	codec      Codec
	frameBatch int
}

// Option configures a System or LiveCluster.
type Option func(*options)

// WithK bounds the number of collections per classification (default 2).
func WithK(k int) Option { return func(o *options) { o.k = k } }

// WithQ sets the weight quantum (default core.DefaultQ = 2^-30). It
// must be a power of two no larger than 0.5, so weights stay exact
// multiples of it in float64 and on the wire.
func WithQ(q float64) Option { return func(o *options) { o.q = q } }

// WithSeed seeds all randomness (default 1).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithTopology selects the network topology (default fully connected).
func WithTopology(t Topology) Option { return func(o *options) { o.topo = t } }

// WithPolicy selects the gossip partner policy (default PushRandom).
func WithPolicy(p Policy) Option { return func(o *options) { o.policy = p } }

// WithMode selects the gossip pattern: ModePush (default), ModePull or
// ModePushPull. Every backend supports every mode.
func WithMode(m Mode) Option { return func(o *options) { o.mode = m } }

// WithBackend selects the communication substrate. New accepts the
// simulator backends (BackendRound, the default, and BackendAsync);
// StartLive accepts the concurrent ones (BackendPipe, the default,
// BackendTCP and BackendShard — the sharded scheduler that reaches
// 100k+ nodes). Options a backend cannot honor are
// rejected with an error, never silently ignored.
func WithBackend(b Backend) Option {
	return func(o *options) { o.backend = b; o.backendSet = true }
}

// WithCrashProb makes every node crash with the given probability after
// each round (default 0, no crashes; simulator backends only — the
// concurrent backends crash via Kill).
func WithCrashProb(p float64) Option { return func(o *options) { o.crashProb = p } }

// WithDropProb makes every sent message vanish with the given
// probability (default 0; BackendRound only).
func WithDropProb(p float64) Option { return func(o *options) { o.dropProb = p } }

// WithInterval sets each node's gossip tick on the concurrent backends
// (default 2ms; the simulator backends are event-driven and ignore it).
func WithInterval(d time.Duration) Option { return func(o *options) { o.interval = d } }

// WithRunHeader records a run-header trace event (backend name) before
// any protocol event, so traces from different backends identify
// themselves to distclass-analyze. Off by default: fixed-seed simulator
// traces stay byte-identical to pre-engine runs.
func WithRunHeader() Option { return func(o *options) { o.runHeader = true } }

// WithCausal turns on causal message tracing: every collection
// transfer is stamped with a per-sender sequence number, the
// destination (sends) or source (receives) peer id, a Lamport clock
// and the weight it moves, and the trace opens with a schema-2 run
// header so distclass-analyze adds the causal section to its report:
// the happens-before DAG and the weight-provenance ledger. Off by
// default: plain traces stay byte-identical to earlier versions.
// Implies WithRunHeader.
func WithCausal() Option { return func(o *options) { o.causal = true } }

// WithTolerance sets the convergence threshold used by
// RunUntilConverged and WaitConverged (default 1e-3).
func WithTolerance(tol float64) Option { return func(o *options) { o.tol = tol } }

// WithMaxRounds bounds RunUntilConverged (default 500).
func WithMaxRounds(n int) Option { return func(o *options) { o.maxRounds = n } }

// WithMetrics backs the system's instrumentation with the given
// registry: the core protocol counters of every node (splits, merges,
// quantization drops, collection counts), the backend's traffic
// counters, and the sim.spread convergence gauge. Layers sharing the
// registry aggregate into one namespace.
func WithMetrics(reg *Registry) Option { return func(o *options) { o.reg = reg } }

// WithTrace records typed protocol and driver events (split, merge,
// send, receive, crash, plus spread probes) through the given sink.
// trace.NewRecorder writes them as JSONL.
func WithTrace(sink TraceSink) Option { return func(o *options) { o.sink = sink } }

// WithMonitor attaches an online observer (NewMonitor) to the run: the
// monitor sees every trace event beside any WithTrace sink, tracks
// convergence with the run's own tolerance/window, audits weight
// conservation continuously, and serves /status, /health and /events
// once its Attach method registers it on an HTTP mux.
func WithMonitor(m *Monitor) Option { return func(o *options) { o.mon = m } }

// WithMonitorInterval sets how often a live cluster's monitor probe
// samples the spread and total weight (default 10ms). The deterministic
// simulation backends sample once per round and ignore it.
func WithMonitorInterval(d time.Duration) Option { return func(o *options) { o.monEvery = d } }

// WithShards sets the worker-pool size of BackendShard (default
// GOMAXPROCS, clamped to the node count). Rejected on every other
// backend.
func WithShards(n int) Option { return func(o *options) { o.shards = n } }

// WithCodec selects the wire encoding on the wire backends (pipe,
// tcp; default CodecV2). Receivers decode either codec, so the choice
// only sets what each node sends. Non-default codecs are rejected on
// backends without a wire format.
func WithCodec(c Codec) Option { return func(o *options) { o.codec = c } }

// WithFrameBatch lets each wire-backend writer coalesce up to n
// queued classifications to the same peer into one batch frame per
// flush (default 0/1, one frame per message; n >= 2 enables
// batching). Batching changes framing only: delivery order, causal
// stamps and the backpressure/Undeliverable contract are unchanged.
// Rejected on backends without wire frames.
func WithFrameBatch(n int) Option { return func(o *options) { o.frameBatch = n } }

// collect applies the options over the given defaults.
func collect(defaults options, opts []Option) options {
	o := defaults
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// engineConfig translates facade options to an engine configuration.
func (o options) engineConfig(values []Value, method Method) engine.Config {
	vals := make([]core.Value, len(values))
	copy(vals, values)
	return engine.Config{
		Backend:    o.backend,
		Method:     method,
		Values:     vals,
		Topology:   o.topo,
		K:          o.k,
		Q:          o.q,
		Seed:       o.seed,
		Policy:     o.policy,
		Mode:       o.mode,
		CrashProb:  o.crashProb,
		DropProb:   o.dropProb,
		Tolerance:  o.tol,
		MaxRounds:  o.maxRounds,
		Interval:   o.interval,
		Shards:     o.shards,
		Codec:      o.codec,
		FrameBatch: o.frameBatch,
		EmitHeader: o.runHeader,
		Causal:     o.causal,
		Metrics:    o.reg,
		Trace:      o.sink,
		Monitor:    o.mon,

		MonitorInterval: o.monEvery,
	}
}

// System is a simulated network running the distributed classification
// algorithm on a deterministic backend (BackendRound or BackendAsync).
type System struct {
	method core.Method
	eng    engine.Engine
	values []Value
}

// New builds a network with one node per value. Every value must have
// the same number of coordinates.
func New(values []Value, method Method, opts ...Option) (*System, error) {
	if len(values) == 0 {
		return nil, errors.New("distclass: no input values")
	}
	if method == nil {
		return nil, errors.New("distclass: nil method")
	}
	o := collect(options{
		k:         2,
		seed:      1,
		topo:      TopologyFull,
		policy:    PushRandom,
		tol:       1e-3,
		maxRounds: 500,
		backend:   BackendRound,
	}, opts)
	if o.k < 1 {
		return nil, fmt.Errorf("distclass: k = %d must be at least 1", o.k)
	}
	switch o.backend {
	case BackendRound, BackendAsync:
	default:
		return nil, fmt.Errorf("distclass: New runs the simulator backends (round, async); backend %s needs StartLive", o.backend)
	}
	eng, err := engine.New(o.engineConfig(values, method))
	if err != nil {
		return nil, fmt.Errorf("distclass: %w", err)
	}
	kept := make([]Value, len(values))
	for i, v := range values {
		kept[i] = Value(vec.Vector(v).Clone())
	}
	return &System{method: method, eng: eng, values: kept}, nil
}

// Values returns a copy of the input values, one per node.
func (s *System) Values() []Value {
	out := make([]Value, len(s.values))
	for i, v := range s.values {
		out[i] = Value(vec.Vector(v).Clone())
	}
	return out
}

// N returns the number of nodes.
func (s *System) N() int { return s.eng.N() }

// Method returns the instantiation in use.
func (s *System) Method() Method { return s.method }

// Backend returns the substrate the system runs on.
func (s *System) Backend() Backend { return s.eng.Backend() }

// Step runs one gossip round: every alive node sends half of its
// classification to one neighbor, and receivers re-partition. (On
// BackendAsync a round is N driver events — one virtual round.)
func (s *System) Step() error { return s.eng.Step() }

// Run executes the given number of rounds.
func (s *System) Run(rounds int) error { return s.eng.Run(rounds) }

// ErrStop, returned from a RunObserved callback, halts the run early
// without error.
var ErrStop = engine.ErrStop

// RunObserved executes rounds, invoking after at the end of each; the
// callback may inspect classifications, record traces, or return
// ErrStop to halt early.
func (s *System) RunObserved(rounds int, after func(round int) error) error {
	return s.eng.RunObserved(rounds, after)
}

// RunUntilConverged runs rounds until the sampled inter-node
// classification spread stays below the configured tolerance for three
// consecutive rounds, or until the round budget is exhausted. It
// returns the number of rounds executed and whether convergence was
// detected.
func (s *System) RunUntilConverged() (rounds int, converged bool, err error) {
	return s.eng.RunUntilConverged(0)
}

// Classification returns a copy of node i's current classification.
func (s *System) Classification(i int) Classification {
	return s.eng.Classification(i)
}

// Spread returns the sampled maximum pairwise dissimilarity between
// node classifications — the convergence diagnostic (it tends to zero).
func (s *System) Spread() (float64, error) { return s.eng.Spread() }

// RobustMean returns node i's outlier-robust estimate of the data mean:
// the mean of its heaviest collection. It requires the GaussianMixture
// method.
func (s *System) RobustMean(i int) (Value, error) {
	return experiments.RobustEstimate(s.eng.Node(i))
}

// Alive reports whether node i is still alive (relevant with
// WithCrashProb).
func (s *System) Alive(i int) bool { return s.eng.Alive(i) }

// AliveCount returns the number of alive nodes.
func (s *System) AliveCount() int { return s.eng.AliveCount() }

// Stats returns the traffic counters accumulated so far.
func (s *System) Stats() Stats { return s.eng.Stats() }

// TotalWeight returns the total weight currently held by alive nodes
// (plus, on BackendAsync, weight in flight between them); in crash-free
// runs it equals the number of nodes at all times (weight
// conservation).
func (s *System) TotalWeight() float64 { return s.eng.TotalWeight() }

// LiveCluster is a running live deployment over a concurrent
// substrate — synchronous pipes (BackendPipe), loopback TCP
// (BackendTCP) or in-process handover (BackendShard) — with genuine
// asynchrony, in contrast to System's deterministic simulator. Every
// live backend runs on one sharded scheduler, a fixed worker pool that
// ticks the nodes; the wire backends carry its frames over real links.
type LiveCluster struct {
	eng    engine.Engine
	method Method
}

// StartLive launches a live cluster with one node per value, every
// value with the same number of coordinates. Callers must Stop it.
// Options honored: WithK, WithQ, WithSeed, WithTopology, WithPolicy,
// WithMode, WithBackend (pipe, tcp or shard; default pipe), WithShards
// (shard only), WithCodec and WithFrameBatch (pipe and tcp only),
// WithInterval, WithTolerance (used by WaitConverged), WithRunHeader,
// WithMetrics, WithTrace, and WithMonitor.
// The probabilistic fault injections (WithCrashProb, WithDropProb) are
// simulator-only and rejected here — live clusters crash via Kill.
func StartLive(values []Value, method Method, opts ...Option) (*LiveCluster, error) {
	if method == nil {
		return nil, errors.New("distclass: nil method")
	}
	o := collect(options{k: 2, seed: 1, topo: TopologyFull, tol: 1e-3, backend: BackendPipe}, opts)
	if !o.backendSet {
		o.backend = BackendPipe
	}
	if o.k < 1 {
		return nil, fmt.Errorf("distclass: k = %d must be at least 1", o.k)
	}
	switch o.backend {
	case BackendPipe, BackendTCP, BackendShard:
	default:
		return nil, fmt.Errorf("distclass: StartLive runs the concurrent backends (pipe, tcp, shard); backend %s needs New", o.backend)
	}
	eng, err := engine.New(o.engineConfig(values, method))
	if err != nil {
		return nil, fmt.Errorf("distclass: %w", err)
	}
	return &LiveCluster{eng: eng, method: method}, nil
}

// N returns the number of nodes.
func (c *LiveCluster) N() int { return c.eng.N() }

// Backend returns the substrate the cluster runs on.
func (c *LiveCluster) Backend() Backend { return c.eng.Backend() }

// Classification returns a copy of node i's current classification.
func (c *LiveCluster) Classification(i int) Classification {
	return c.eng.Classification(i)
}

// Spread returns the sampled inter-node classification dissimilarity.
func (c *LiveCluster) Spread() (float64, error) { return c.eng.Spread() }

// MessagesSent returns the number of messages sent so far.
func (c *LiveCluster) MessagesSent() int64 {
	return int64(c.eng.Stats().MessagesSent)
}

// Err returns the first internal error observed, or nil.
func (c *LiveCluster) Err() error { return c.eng.Err() }

// WaitConverged runs the engine's convergence loop at tolerance tol:
// it probes until the spread stays below tol for the default window of
// consecutive probes (3), or the timeout (<= 0 means 30s) elapses. It
// reports whether convergence was observed.
func (c *LiveCluster) WaitConverged(timeout time.Duration, tol float64) (bool, error) {
	return engine.WaitConverged(c.eng, timeout, converge.New(tol, converge.DefaultWindow))
}

// Kill crashes node i fail-stop (§3.1): its goroutines stop, its links
// drop, and the weight it held is destroyed. It returns that destroyed
// weight. Killing an already-dead or out-of-range node is an error.
func (c *LiveCluster) Kill(i int) (float64, error) { return c.eng.Kill(i) }

// Restart revives a killed node with a fresh value (weight 1) and
// re-links its surviving neighbors; the node rejoins the gossip. The
// value must have as many coordinates as the cluster's values.
func (c *LiveCluster) Restart(i int, value Value) error {
	return c.eng.Restart(i, vec.Vector(value).Clone())
}

// Alive reports whether node i is currently running.
func (c *LiveCluster) Alive(i int) bool { return c.eng.Alive(i) }

// AliveCount returns the number of currently running nodes.
func (c *LiveCluster) AliveCount() int { return c.eng.AliveCount() }

// TotalWeight sums the weight currently held at alive nodes — the
// conservation audit for churn experiments.
func (c *LiveCluster) TotalWeight() float64 { return c.eng.TotalWeight() }

// Stop shuts the cluster down and joins all goroutines. Safe to call
// more than once.
func (c *LiveCluster) Stop() { c.eng.Stop() }
