package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distclass/internal/converge"
	"distclass/internal/core"
	"distclass/internal/livenet"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/vec"
)

// liveTransport is the substrate contract of the concurrent backends:
// frame queueing and link lifecycle, nothing protocol-shaped. Two
// implementations exist — chanNet (in-process channels) and a thin
// adapter over livenet.Net (pipe/TCP wire links). All methods must be
// safe for concurrent use.
type liveTransport interface {
	// Peers returns the neighbors node i can currently reach.
	Peers(i int) []int
	// CanSend reports whether a frame from i to peer would be accepted
	// right now — checked before splitting, so backpressure is
	// lossless.
	CanSend(i, peer int) bool
	// Send queues a pull request (pull true) or a data frame carrying
	// cls. A false return means nothing was consumed; the caller still
	// owns cls.
	Send(i, peer int, pull bool, cls core.Classification) bool
	// NoteDrop counts a refused send opportunity against node i.
	NoteDrop(i int)
	// Kill tears down node i's transport endpoint and returns the
	// weight of any in-flight frames it destroyed outright. Queued-but-
	// unsent outbound frames are returned via Handler.Undeliverable
	// first, so they are not part of the figure. The engine guarantees
	// node i's producer goroutine is stopped before Kill.
	Kill(i int) (inflight float64, err error)
	// Restart re-establishes a killed node's transport.
	Restart(i int) error
	// Stop shuts the transport down; the engine guarantees all producer
	// goroutines are stopped first.
	Stop()
	// Err returns the transport's first internal error, or nil.
	Err() error
}

// wireTransport adapts livenet.Net to the liveTransport contract. The
// wire Kill destroys no tracked in-flight weight itself: undelivered
// outbound frames are re-absorbed through Undeliverable during
// teardown, and a frame already on the wire to the dying node is
// untracked kernel-buffer territory (exactly as in a deployment).
type wireTransport struct{ net *livenet.Net }

func (w wireTransport) Peers(i int) []int        { return w.net.Peers(i) }
func (w wireTransport) CanSend(i, peer int) bool { return w.net.CanSend(i, peer) }
func (w wireTransport) Send(i, peer int, pull bool, cls core.Classification) bool {
	return w.net.Send(i, peer, pull, cls)
}
func (w wireTransport) NoteDrop(i int)              { w.net.NoteDrop(i) }
func (w wireTransport) Kill(i int) (float64, error) { return 0, w.net.Kill(i) }
func (w wireTransport) Restart(i int) error         { return w.net.Restart(i) }
func (w wireTransport) Stop()                       { w.net.Stop() }
func (w wireTransport) Err() error                  { return w.net.Err() }

// liveNode is one node's protocol-side state on a concurrent backend:
// the classification node behind its mutex, the node's private gossip
// RNG, and the gossip goroutine lifecycle.
type liveNode struct {
	mu   sync.Mutex
	node *core.Node // guarded by mu

	// r and rr belong to the node's gossip goroutine alone.
	r  *rng.RNG
	rr int // round-robin cursor

	alive  atomic.Bool
	aliveG *metrics.Gauge
	cancel context.CancelFunc // stops this incarnation's gossip goroutine
	wg     sync.WaitGroup
}

// liveEngine runs the protocol loop on a concurrent backend: one
// gossip goroutine per node ticking every Interval — choose a neighbor
// under the Policy, then split→send (push), request (pull), or both —
// while transport receiver goroutines hand incoming frames to Deliver.
// The split→send→absorb sequencing, crash accounting and convergence
// probing are exactly the simulator's; only the substrate differs.
type liveEngine struct {
	cfg     Config
	nodeCfg core.Config
	ns      []*liveNode
	tr      liveTransport

	ctx    context.Context
	cancel context.CancelFunc
	// churnMu serializes Kill, Restart and Stop: node lifecycle is
	// reconfigured only under this lock.
	churnMu sync.Mutex
	stopped atomic.Bool
	// monWG joins the monitor probe goroutine on Stop.
	monWG sync.WaitGroup

	reg      *metrics.Registry
	sink     trace.Sink
	crashes  *metrics.Counter
	recovers *metrics.Counter
	sentC    *metrics.Counter // transport's livenet.sent, read for Stats
	dropsC   *metrics.Counter // transport's livenet.send_drops, read for Stats
	spreadG  *metrics.Gauge

	errOnce sync.Once
	firstE  atomic.Value // error
}

func newLiveEngine(cfg Config, graph *topology.Graph, nodes []*core.Node, nodeCfg core.Config, root *rng.RNG) (Engine, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e := &liveEngine{
		cfg:     cfg,
		nodeCfg: nodeCfg,
		reg:     reg,
		sink:    cfg.Trace,
		// The crash/recover books and per-node alive gauges live under
		// the livenet.* namespace on every concurrent backend — chan
		// included — so dashboards and tests read one name regardless of
		// substrate (DESIGN.md §11).
		crashes:  reg.Counter("livenet.crashes"),
		recovers: reg.Counter("livenet.recovers"),
		sentC:    reg.Counter("livenet.sent"),
		dropsC:   reg.Counter("livenet.send_drops"),
		// sim.spread is the protocol-level convergence gauge; the name
		// is shared with the simulator backends on purpose.
		spreadG: reg.Gauge("sim.spread"),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	e.ns = make([]*liveNode, len(nodes))
	for i, n := range nodes {
		ns := &liveNode{
			node:   n,
			r:      root.Split(),
			aliveG: reg.Gauge(fmt.Sprintf("livenet.node.%d.alive", i)),
		}
		ns.alive.Store(true)
		ns.aliveG.Set(1)
		e.ns[i] = ns
	}
	switch cfg.Backend {
	case BackendChan:
		e.tr = newChanNet(e, graph, cfg.SendQueue, cfg.Causal, reg, cfg.Trace)
	case BackendPipe, BackendTCP:
		t := livenet.TransportPipe
		if cfg.Backend == BackendTCP {
			t = livenet.TransportTCP
		}
		net, err := livenet.StartNet(graph, livenet.NetConfig{
			Handler:            e,
			Transport:          t,
			SendQueue:          cfg.SendQueue,
			FailOnDecodeErrors: cfg.FailOnDecodeErrors,
			Codec:              cfg.Codec,
			FrameBatch:         cfg.FrameBatch,
			Metrics:            reg,
			Trace:              cfg.Trace,
			Causal:             cfg.Causal,
		})
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		e.tr = wireTransport{net}
	default:
		return nil, fmt.Errorf("engine: liveEngine cannot run backend %s", cfg.Backend)
	}
	for i := range e.ns {
		e.startGossip(i)
	}
	if cfg.Monitor != nil {
		e.monWG.Add(1)
		go monitorProbe(e.ctx, &e.monWG, e, e.cfg, e.sink, e.spreadG)
	}
	return e, nil
}

// monitorProbe is the concurrent backends' counterpart of the sim
// probe, shared by liveEngine and shardEngine: every MonitorInterval it
// samples Spread, records it as a KindSpread trace event (Round -1 —
// live runs have no round axis) and feeds the conservation audit. The
// trace event flows through the tee'd sink, so a live run monitored
// online also leaves the spread curve in its JSONL trace for replay.
// Probe failures during churn (e.g. a node swapped mid-restart) skip
// the sample; monitoring never fails the run. It returns when ctx is
// cancelled, then marks wg done.
func monitorProbe(ctx context.Context, wg *sync.WaitGroup, e Engine, cfg Config, sink trace.Sink, spreadG *metrics.Gauge) {
	defer wg.Done()
	prof.Label("engine.monitor")
	ticker := time.NewTicker(cfg.MonitorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			spread, err := e.Spread()
			if err != nil {
				continue
			}
			spreadG.Set(spread)
			if sink != nil {
				_ = sink.Record(trace.Event{
					Round: -1, Node: -1, Kind: trace.KindSpread, Value: spread,
				})
			}
			cfg.Monitor.ObserveWeight(e.TotalWeight())
		}
	}
}

// startGossip launches node i's gossip goroutine for its current
// incarnation.
func (e *liveEngine) startGossip(i int) {
	ns := e.ns[i]
	ctx, cancel := context.WithCancel(e.ctx)
	ns.cancel = cancel
	ns.wg.Add(1)
	go func() {
		defer ns.wg.Done()
		prof.Label("engine.gossip")
		ticker := time.NewTicker(e.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				e.tick(i)
			}
		}
	}()
}

// tick is one gossip opportunity for node i: pick a reachable neighbor
// under the Policy, then act out the Mode.
func (e *liveEngine) tick(i int) {
	ns := e.ns[i]
	peers := e.tr.Peers(i)
	if len(peers) == 0 {
		return
	}
	var peer int
	switch e.cfg.Policy {
	case RoundRobin:
		peer = peers[ns.rr%len(peers)]
		ns.rr++
	default:
		peer = peers[ns.r.IntN(len(peers))]
	}
	switch e.cfg.Mode {
	case ModePull:
		e.sendPull(i, peer)
	case ModePushPull:
		e.push(i, peer)
		e.sendPull(i, peer)
	default:
		e.push(i, peer)
	}
}

// push sends half of node i's weight to peer: the paper's split→send.
// Backpressure is lossless — a refused send is checked before the
// split (or, if the queue filled in between, the half is re-absorbed),
// so the weight never leaves the node.
func (e *liveEngine) push(i, peer int) {
	ns := e.ns[i]
	if !e.tr.CanSend(i, peer) {
		e.tr.NoteDrop(i)
		return
	}
	ns.mu.Lock()
	out := ns.node.Split()
	ns.mu.Unlock()
	if len(out) == 0 {
		return
	}
	if e.tr.Send(i, peer, false, out) {
		return
	}
	// The queue filled (or the link died) between the CanSend check and
	// the send — possible when a pull response and the gossip tick race
	// on the same queue. Take the half back; conservation over
	// throughput.
	ns.mu.Lock()
	err := ns.node.Absorb(out)
	ns.mu.Unlock()
	if err != nil {
		e.fail(fmt.Errorf("engine: node %d: re-absorb refused send: %w", i, err))
		return
	}
	e.tr.NoteDrop(i)
}

// sendPull asks peer for data. A pull request carries no weight, so a
// refused send is simply skipped — nothing to conserve, and the next
// tick retries.
func (e *liveEngine) sendPull(i, peer int) {
	if !e.tr.CanSend(i, peer) {
		return
	}
	_ = e.tr.Send(i, peer, true, nil)
}

// Deliver implements livenet.Handler (and serves chanNet): incoming
// data frames are absorbed, pull requests answered with a push back to
// the requester.
func (e *liveEngine) Deliver(dst, src int, pull bool, cls core.Classification) error {
	if pull {
		e.push(dst, src)
		return nil
	}
	ns := e.ns[dst]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.Absorb(cls)
}

// Undeliverable implements livenet.Handler: a queued frame whose link
// died goes back into its owning node — queued weight was never on the
// wire, so a transport fault must not destroy it.
func (e *liveEngine) Undeliverable(owner int, cls core.Classification) error {
	ns := e.ns[owner]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.Absorb(cls)
}

func (e *liveEngine) Backend() Backend { return e.cfg.Backend }
func (e *liveEngine) N() int           { return len(e.ns) }

func (e *liveEngine) Node(i int) *core.Node {
	ns := e.ns[i]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node
}

func (e *liveEngine) Classification(i int) core.Classification {
	ns := e.ns[i]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.Classification()
}

// Spread probes a bounded, deterministic sample of alive nodes
// (probeIndicesInto — evenly spaced when small, seeded when large) and
// returns their worst pairwise dissimilarity. Node pairs are locked in
// id order, so concurrent probes cannot deadlock. Unlike the
// single-threaded sim probe, this one allocates its small index
// buffers per call: Spread races with itself (monitor probe goroutine
// vs WaitConverged poller) and a shared scratch would need a lock on
// the probe path.
func (e *liveEngine) Spread() (float64, error) {
	alive := make([]int, 0, len(e.ns))
	for i, ns := range e.ns {
		if ns.alive.Load() {
			alive = append(alive, i)
		}
	}
	if len(alive) < 2 {
		return 0, nil
	}
	idx := probeIndicesInto(nil, len(alive), e.cfg.Seed, nil)
	var worst float64
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			d, err := e.pairDissimilarity(alive[idx[a]], alive[idx[b]])
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

func (e *liveEngine) pairDissimilarity(a, b int) (float64, error) {
	if b < a {
		a, b = b, a
	}
	na, nb := e.ns[a], e.ns[b]
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
// the transport queues is not included, so it shows as a deficit;
// after Stop the sum is exact.
func (e *liveEngine) TotalWeight() float64 {
	var total float64
	for _, ns := range e.ns {
		ns.mu.Lock()
		if ns.alive.Load() {
			total += ns.node.Weight()
		}
	}
	for _, ns := range e.ns {
		ns.mu.Unlock()
	}
	return total
}

func (e *liveEngine) Alive(i int) bool { return e.ns[i].alive.Load() }

func (e *liveEngine) AliveCount() int {
	count := 0
	for _, ns := range e.ns {
		if ns.alive.Load() {
			count++
		}
	}
	return count
}

func (e *liveEngine) Stats() Stats {
	return Stats{
		MessagesSent:    int(e.sentC.Value()),
		MessagesDropped: int(e.dropsC.Value()),
		Crashes:         int(e.crashes.Value()),
	}
}

// Kill crashes node i fail-stop: its gossip goroutine stops, its
// transport endpoint is torn down (returning queued outbound frames to
// the node first), and everything it still holds — its own weight plus
// in-flight frames the transport destroyed — is reported as destroyed.
func (e *liveEngine) Kill(i int) (float64, error) {
	if i < 0 || i >= len(e.ns) {
		return 0, fmt.Errorf("engine: Kill(%d): no such node", i)
	}
	e.churnMu.Lock()
	defer e.churnMu.Unlock()
	if e.stopped.Load() {
		return 0, errors.New("engine: Kill on a stopped engine")
	}
	ns := e.ns[i]
	if !ns.alive.Load() {
		return 0, fmt.Errorf("engine: node %d is already dead", i)
	}
	// Producer first: the transport teardown contract requires a
	// quiescent sender.
	ns.cancel()
	ns.wg.Wait()
	inflight, err := e.tr.Kill(i)
	if err != nil {
		return 0, err
	}
	ns.mu.Lock()
	destroyed := ns.node.Weight() + inflight
	ns.mu.Unlock()
	ns.alive.Store(false)
	e.crashes.Inc()
	ns.aliveG.Set(0)
	if e.sink != nil {
		_ = e.sink.Record(trace.Event{
			Round: -1, Node: i, Kind: trace.KindCrash, Value: destroyed,
		})
	}
	return destroyed, nil
}

// Restart revives a killed node with a fresh value and weight 1, the
// paper's model of a node rejoining with a new reading. The transport
// re-links it to every currently alive neighbor.
func (e *liveEngine) Restart(i int, value core.Value) error {
	if i < 0 || i >= len(e.ns) {
		return fmt.Errorf("engine: Restart(%d): no such node", i)
	}
	e.churnMu.Lock()
	defer e.churnMu.Unlock()
	if e.stopped.Load() {
		return errors.New("engine: Restart on a stopped engine")
	}
	ns := e.ns[i]
	if ns.alive.Load() {
		return fmt.Errorf("engine: node %d is already alive", i)
	}
	node, err := core.NewNode(i, vec.Vector(value).Clone(), nil, e.nodeCfg)
	if err != nil {
		return fmt.Errorf("engine: restart node %d: %w", i, err)
	}
	// Install the node before the transport comes back up: a receiver
	// may Deliver to it the moment links exist.
	ns.mu.Lock()
	ns.node = node
	ns.mu.Unlock()
	if err := e.tr.Restart(i); err != nil {
		return err // node stays dead; transport cleaned up after itself
	}
	e.startGossip(i)
	ns.alive.Store(true)
	e.recovers.Inc()
	ns.aliveG.Set(1)
	if e.sink != nil {
		_ = e.sink.Record(trace.Event{
			Round: -1, Node: i, Kind: trace.KindRecover, Value: 1,
		})
	}
	return nil
}

// Step lets the protocol run for one gossip interval of wall time.
func (e *liveEngine) Step() error { return e.Run(1) }

// Run lets the protocol run for rounds gossip intervals of wall time —
// the concurrent stand-in for "rounds" of progress.
func (e *liveEngine) Run(rounds int) error {
	timer := time.NewTimer(time.Duration(rounds) * e.cfg.Interval)
	defer timer.Stop()
	select {
	case <-e.ctx.Done():
	case <-timer.C:
	}
	return e.Err()
}

func (e *liveEngine) RunObserved(int, func(int) error) error {
	return fmt.Errorf("engine: backend %s has no driver rounds to observe; poll Spread instead", e.cfg.Backend)
}

// RunUntilConverged polls Spread every few milliseconds until it stays
// below Tolerance for Window consecutive probes or the timeout
// expires. The returned round count is always zero — concurrent
// backends have no round axis.
func (e *liveEngine) RunUntilConverged(timeout time.Duration) (int, bool, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	deadline := time.Now().Add(timeout)
	det := converge.New(e.cfg.Tolerance, e.cfg.Window)
	for probe := 0; time.Now().Before(deadline); probe++ {
		if err := e.Err(); err != nil {
			return 0, false, err
		}
		spread, err := e.Spread()
		if err != nil {
			return 0, false, err
		}
		e.spreadG.Set(spread)
		if det.Observe(probe, spread) {
			return 0, true, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return 0, false, e.Err()
}

func (e *liveEngine) fail(err error) {
	e.errOnce.Do(func() { e.firstE.Store(err) })
}

func (e *liveEngine) Err() error {
	if err, ok := e.firstE.Load().(error); ok {
		return err
	}
	return e.tr.Err()
}

// Stop shuts the engine down: gossip goroutines first (so the
// transport sees quiescent producers), then the monitor probe, then
// the transport. Safe to call more than once. With a monitor attached
// the final conservation sample lands after the transport drained its
// queues, so the audit ends exact — mid-run deficits were in-flight
// weight, and the shutdown proves it all came home.
func (e *liveEngine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	e.cancel()
	e.churnMu.Lock()
	defer e.churnMu.Unlock()
	for _, ns := range e.ns {
		ns.wg.Wait()
	}
	e.monWG.Wait()
	e.tr.Stop()
	if e.cfg.Monitor != nil {
		e.cfg.Monitor.ObserveWeight(e.TotalWeight())
	}
}
