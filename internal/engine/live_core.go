package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distclass/internal/converge"
	"distclass/internal/core"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/trace"
	"distclass/internal/vec"
)

// liveNode is one node's protocol-side state on a concurrent backend:
// the classification node behind its mutex, the node's private gossip
// RNG and round-robin cursor, and its aliveness.
type liveNode struct {
	mu   sync.Mutex
	node *core.Node // guarded by mu

	// r and rr belong to the worker that owns the node's shard.
	r  *rng.RNG
	rr int // round-robin cursor

	alive atomic.Bool
	// revived is set, under liveCore.revivedMu, when the node first
	// joins liveCore.revived.
	revived bool
}

// liveCore is the substrate-free half of the live scheduler: the node
// table, the wall-clock driver (Step, Run, RunUntilConverged), the
// convergence and conservation probes, the monitor probe goroutine,
// churn bookkeeping, and first-error capture. shardEngine embeds it and
// adds the scheduling: how ticks are paced, how frames travel, and how
// Kill/Restart/Stop quiesce them.
type liveCore struct {
	cfg     Config
	nodeCfg core.Config
	dim     int // coordinate count of every value in the cluster
	ns      []*liveNode
	aliveN  atomic.Int64
	// accounted is the weight the run should hold, N − destroyed +
	// restarts; only churn changes it, under the engine's exclusive
	// pause lock. Restart refuses to take it to the exactness horizon.
	accounted float64

	ctx    context.Context
	cancel context.CancelFunc
	// stopped is set once by Stop; Kill and Restart refuse afterwards.
	stopped atomic.Bool
	// monWG joins the monitor probe goroutine on Stop.
	monWG sync.WaitGroup

	// The crash/recover books and traffic aggregates live under the
	// livenet.* namespace on every concurrent backend, so dashboards
	// and tests read one name regardless of substrate (DESIGN.md §11).
	sink     trace.Sink
	sent     *metrics.Counter
	drops    *metrics.Counter
	crashes  *metrics.Counter
	recovers *metrics.Counter
	// sim.spread is the protocol-level convergence gauge; the name is
	// shared with the simulator backends on purpose.
	spreadG *metrics.Gauge

	// revived lists each node Restart has revived, once; the spread
	// probe adds the alive ones to its sample.
	revivedMu sync.Mutex
	revived   []int // guarded by revivedMu

	errOnce sync.Once
	firstE  atomic.Value // error
	// transportErr, when set, reports a transport fault Err falls back
	// to after the engine's own first error. It is a field rather than
	// a method override so the driver methods here, which call Err,
	// see it too.
	transportErr func() error
}

// init fills in a zero liveCore: one alive node per entry of nodes,
// each with its own gossip RNG split from root in node order.
func (c *liveCore) init(cfg Config, nodes []*core.Node, nodeCfg core.Config, reg *metrics.Registry, root *rng.RNG) {
	c.cfg = cfg
	c.nodeCfg = nodeCfg
	c.dim = len(cfg.Values[0])
	c.sink = cfg.Trace
	c.sent = reg.Counter("livenet.sent")
	c.drops = reg.Counter("livenet.send_drops")
	c.crashes = reg.Counter("livenet.crashes")
	c.recovers = reg.Counter("livenet.recovers")
	c.spreadG = reg.Gauge("sim.spread")
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.ns = make([]*liveNode, len(nodes))
	for i, n := range nodes {
		ns := &liveNode{node: n, r: root.Split()}
		ns.alive.Store(true)
		c.ns[i] = ns
	}
	c.aliveN.Store(int64(len(nodes)))
	c.accounted = float64(len(nodes))
}

// startMonitor launches the monitor probe goroutine when the run has a
// monitor attached.
func (c *liveCore) startMonitor() {
	if c.cfg.Monitor == nil {
		return
	}
	c.monWG.Add(1)
	go c.monitorProbe()
}

// monitorProbe is the concurrent backends' counterpart of the sim
// probe: every MonitorInterval it samples Spread, records it as a
// KindSpread trace event (Round -1 — live runs have no round axis) and
// feeds the conservation audit. The trace event flows through the
// tee'd sink, so a live run monitored online also leaves the spread
// curve in its JSONL trace for replay. Probe failures during churn
// (e.g. a node swapped mid-restart) skip the sample; monitoring never
// fails the run. It returns when the engine's context is cancelled.
func (c *liveCore) monitorProbe() {
	defer c.monWG.Done()
	prof.Label("engine.monitor")
	ticker := time.NewTicker(c.cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-ticker.C:
			spread, err := c.Spread()
			if err != nil {
				continue
			}
			if c.sink != nil {
				_ = c.sink.Record(trace.Event{
					Round: -1, Node: -1, Kind: trace.KindSpread, Value: spread,
				})
			}
			c.cfg.Monitor.ObserveWeight(c.TotalWeight())
		}
	}
}

// finalAudit feeds the monitor its last conservation sample. Stop
// calls it once every queue has drained, so the audit ends exact —
// mid-run deficits were in-flight weight, and the shutdown proves it
// all came home.
func (c *liveCore) finalAudit() {
	if c.cfg.Monitor != nil {
		c.cfg.Monitor.ObserveWeight(c.TotalWeight())
	}
}

func (c *liveCore) Backend() Backend { return c.cfg.Backend }
func (c *liveCore) N() int           { return len(c.ns) }

func (c *liveCore) Node(i int) *core.Node {
	ns := c.ns[i]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node
}

func (c *liveCore) Classification(i int) core.Classification {
	ns := c.ns[i]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.Classification()
}

func (c *liveCore) Alive(i int) bool { return c.ns[i].alive.Load() }

func (c *liveCore) AliveCount() int { return int(c.aliveN.Load()) }

func (c *liveCore) Stats() Stats {
	return Stats{
		MessagesSent:    int(c.sent.Value()),
		MessagesDropped: int(c.drops.Value()),
		Crashes:         int(c.crashes.Value()),
	}
}

// Spread runs the spread probe (probeIDs) over the alive nodes, with
// the nodes Restart revived joining the sample. It allocates its small
// index buffers per call: Spread races with itself (monitor probe
// goroutine vs RunUntilConverged) and a shared scratch would need a
// lock on the probe path. Each call sets the sim.spread gauge, the
// name the simulator backends share.
func (c *liveCore) Spread() (float64, error) {
	c.revivedMu.Lock()
	ids := probeIDs(nil, c, c.revived, c.cfg.Seed, nil)
	c.revivedMu.Unlock()
	spread, err := probeSpread(c, ids)
	if err == nil {
		c.spreadG.Set(spread)
	}
	return spread, err
}

// pairDissimilarity locks the two nodes in id order, so concurrent
// probes cannot deadlock.
func (c *liveCore) pairDissimilarity(a, b int) (float64, error) {
	if b < a {
		a, b = b, a
	}
	na, nb := c.ns[a], c.ns[b]
	na.mu.Lock()
	defer na.mu.Unlock()
	nb.mu.Lock()
	defer nb.mu.Unlock()
	return na.node.DissimilarityTo(nb.node)
}

// TotalWeight sums the weight held at alive nodes over a consistent
// cut: it takes every node lock in index order (the order
// pairDissimilarity uses) and holds them all until the sum is done. A
// half moves from the node that split it to the node that absorbs it,
// and a sum that released locks as it went could count it at both — a
// surplus the conservation audit reports as a violation. Weight riding
// the link queues or shard mailboxes is not included, so it shows as a
// deficit; after Stop the sum is exact.
func (c *liveCore) TotalWeight() float64 {
	var total float64
	for _, ns := range c.ns {
		ns.mu.Lock()
		if ns.alive.Load() {
			total += ns.node.Weight()
		}
	}
	for _, ns := range c.ns {
		ns.mu.Unlock()
	}
	return total
}

// checkChurn validates Kill (wantAlive true) or Restart of node i. The
// caller holds the engine's pause lock exclusively, so the answer stays
// true until it releases it.
func (c *liveCore) checkChurn(op string, i int, wantAlive bool) error {
	if i < 0 || i >= len(c.ns) {
		return fmt.Errorf("engine: %s(%d): no such node", op, i)
	}
	if c.stopped.Load() {
		return fmt.Errorf("engine: %s on a stopped engine", op)
	}
	switch alive := c.ns[i].alive.Load(); {
	case wantAlive && !alive:
		return fmt.Errorf("engine: node %d is already dead", i)
	case !wantAlive && alive:
		return fmt.Errorf("engine: node %d is already alive", i)
	}
	return nil
}

// markDead finishes a crash of node i, whose scheduling is already
// quiesced: the node's own weight plus inflight (queued weight the
// crash destroyed) is reported and traced as destroyed.
func (c *liveCore) markDead(i int, inflight float64) float64 {
	ns := c.ns[i]
	ns.mu.Lock()
	destroyed := ns.node.Weight() + inflight
	ns.mu.Unlock()
	ns.alive.Store(false)
	c.aliveN.Add(-1)
	c.accounted -= destroyed
	c.crashes.Inc()
	if c.sink != nil {
		_ = c.sink.Record(trace.Event{
			Round: -1, Node: i, Kind: trace.KindCrash, Value: destroyed,
		})
	}
	return destroyed
}

// reincarnate is the shared half of Restart: it validates the request
// and installs a fresh node with the given value and weight 1, the
// paper's model of a node rejoining with a new reading. The node stays
// dead until markAlive, so the engine can bring its scheduling back up
// in between. A restart whose unit of weight would take the accounted
// total to the exactness horizon is refused.
func (c *liveCore) reincarnate(i int, value core.Value) error {
	if err := c.checkChurn("Restart", i, false); err != nil {
		return err
	}
	if beyondHorizon(c.accounted+1, c.cfg.Q) {
		return fmt.Errorf("%w: restart node %d would make the total %v at Q = %v", ErrWeightHorizon, i, c.accounted+1, c.cfg.Q)
	}
	if len(value) != c.dim {
		return fmt.Errorf("engine: restart node %d: value has %d coordinates, the cluster's have %d", i, len(value), c.dim)
	}
	node, err := core.NewNode(i, vec.Vector(value).Clone(), nil, c.nodeCfg)
	if err != nil {
		return fmt.Errorf("engine: restart node %d: %w", i, err)
	}
	ns := c.ns[i]
	ns.mu.Lock()
	ns.node = node
	ns.mu.Unlock()
	return nil
}

// markAlive finishes a restart of node i, which the spread probe
// watches from now on.
func (c *liveCore) markAlive(i int) {
	c.revivedMu.Lock()
	if ns := c.ns[i]; !ns.revived {
		ns.revived = true
		c.revived = append(c.revived, i)
	}
	c.revivedMu.Unlock()
	c.ns[i].alive.Store(true)
	c.aliveN.Add(1)
	c.accounted++
	c.recovers.Inc()
	if c.sink != nil {
		_ = c.sink.Record(trace.Event{
			Round: -1, Node: i, Kind: trace.KindRecover, Value: 1,
		})
	}
}

// Step lets the protocol run for one gossip interval of wall time.
func (c *liveCore) Step() error { return c.Run(1) }

// Run lets the protocol run for rounds gossip intervals of wall time —
// the concurrent stand-in for "rounds" of progress.
func (c *liveCore) Run(rounds int) error {
	timer := time.NewTimer(time.Duration(rounds) * c.cfg.Interval)
	defer timer.Stop()
	select {
	case <-c.ctx.Done():
	case <-timer.C:
	}
	return c.Err()
}

func (c *liveCore) RunObserved(int, func(int) error) error {
	return fmt.Errorf("engine: backend %s has no driver rounds to observe; poll Spread instead", c.cfg.Backend)
}

// RunUntilConverged is the concurrent backends' convergence loop: it
// probes Spread every few milliseconds until the spread stays below the
// configured Tolerance for Window consecutive probes or the timeout
// (<= 0 means 30s) expires, and returns early with the engine's first
// error. The returned round count is always zero — concurrent backends
// have no round axis.
func (c *liveCore) RunUntilConverged(timeout time.Duration) (int, bool, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	det := converge.New(c.cfg.Tolerance, c.cfg.Window)
	deadline := time.Now().Add(timeout)
	for probe := 0; time.Now().Before(deadline); probe++ {
		if err := c.Err(); err != nil {
			return 0, false, err
		}
		spread, err := c.Spread()
		if err != nil {
			return 0, false, err
		}
		if det.Observe(probe, spread) {
			return 0, true, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, false, c.Err()
}

func (c *liveCore) fail(err error) {
	c.errOnce.Do(func() { c.firstE.Store(err) })
}

func (c *liveCore) Err() error {
	if err, ok := c.firstE.Load().(error); ok {
		return err
	}
	if c.transportErr != nil {
		return c.transportErr()
	}
	return nil
}
