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

	// r and rr belong to whichever goroutine ticks the node (its gossip
	// goroutine on pipe/tcp, its owning worker on shard).
	r  *rng.RNG
	rr int // round-robin cursor

	alive atomic.Bool
}

// liveCore is what the two concurrent engines share: the node table,
// the wall-clock driver (Step, Run, RunUntilConverged), the
// convergence and conservation probes, the monitor probe goroutine,
// churn bookkeeping, and first-error capture. liveEngine (pipe/tcp)
// and shardEngine embed it and add only their scheduling: how ticks
// are paced, how frames travel, and how Kill/Restart/Stop quiesce
// them.
type liveCore struct {
	cfg     Config
	nodeCfg core.Config
	dim     int // coordinate count of every value in the cluster
	ns      []*liveNode
	aliveN  atomic.Int64

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
			c.spreadG.Set(spread)
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

// Spread probes a bounded, deterministic sample of alive nodes (see
// probeIndicesInto): constant probe cost regardless of N, which is
// what keeps the monitor plane responsive at 100k+ nodes. When every
// node is alive — the common case — the probe indexes the population
// directly instead of materializing a 100k-entry alive list; both
// paths pick the same pairs. Unlike the single-threaded sim probe,
// this one allocates its small index buffers per call: Spread races
// with itself (monitor probe goroutine vs RunUntilConverged poller)
// and a shared scratch would need a lock on the probe path.
func (c *liveCore) Spread() (float64, error) {
	n := len(c.ns)
	if n < 2 {
		return 0, nil
	}
	if int(c.aliveN.Load()) == n {
		idx := probeIndicesInto(nil, n, c.cfg.Seed, nil)
		return c.spreadAt(idx, nil)
	}
	alive := make([]int, 0, n)
	for i, ns := range c.ns {
		if ns.alive.Load() {
			alive = append(alive, i)
		}
	}
	if len(alive) < 2 {
		return 0, nil
	}
	idx := probeIndicesInto(nil, len(alive), c.cfg.Seed, nil)
	return c.spreadAt(idx, alive)
}

// spreadAt returns the worst pairwise dissimilarity over the probe
// index set; alive, when non-nil, maps probe indices to node ids.
func (c *liveCore) spreadAt(idx, alive []int) (float64, error) {
	var worst float64
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			i, j := idx[a], idx[b]
			if alive != nil {
				i, j = alive[i], alive[j]
			}
			d, err := c.pairDissimilarity(i, j)
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
// caller holds its engine's churn lock, so the answer stays true until
// it releases it.
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
// in between.
func (c *liveCore) reincarnate(i int, value core.Value) error {
	if err := c.checkChurn("Restart", i, false); err != nil {
		return err
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

// markAlive finishes a restart of node i.
func (c *liveCore) markAlive(i int) {
	c.ns[i].alive.Store(true)
	c.aliveN.Add(1)
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

// RunUntilConverged polls Spread every few milliseconds until it stays
// below Tolerance for Window consecutive probes or the timeout
// expires. The returned round count is always zero — concurrent
// backends have no round axis.
func (c *liveCore) RunUntilConverged(timeout time.Duration) (int, bool, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	det := converge.New(c.cfg.Tolerance, c.cfg.Window)
	for probe := 0; time.Now().Before(deadline); probe++ {
		if err := c.Err(); err != nil {
			return 0, false, err
		}
		spread, err := c.Spread()
		if err != nil {
			return 0, false, err
		}
		c.spreadG.Set(spread)
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
