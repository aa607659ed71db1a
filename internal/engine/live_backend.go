package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"distclass/internal/core"
	"distclass/internal/livenet"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/topology"
)

// gossipLoop is one node's gossip goroutine lifecycle on pipe/tcp,
// with the per-node alive gauge it keeps in step.
type gossipLoop struct {
	aliveG *metrics.Gauge
	cancel context.CancelFunc // stops this incarnation's gossip goroutine
	wg     sync.WaitGroup
}

// liveEngine runs the protocol loop on the wire backends (pipe, tcp):
// one gossip goroutine per node ticking every Interval — choose a
// neighbor under the Policy, then split→send (push), request (pull),
// or both — while livenet's receiver goroutines hand incoming frames
// to Deliver. The split→send→absorb sequencing, crash accounting and
// convergence probing are exactly the simulator's; only the substrate
// differs.
type liveEngine struct {
	liveCore
	net    *livenet.Net
	gossip []gossipLoop
	// churnMu serializes Kill, Restart and Stop: node lifecycle is
	// reconfigured only under this lock.
	churnMu sync.Mutex
}

func newLiveEngine(cfg Config, graph *topology.Graph, nodes []*core.Node, nodeCfg core.Config, root *rng.RNG) (Engine, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e := &liveEngine{gossip: make([]gossipLoop, len(nodes))}
	e.init(cfg, nodes, nodeCfg, reg, root)
	for i := range e.gossip {
		g := &e.gossip[i]
		g.aliveG = reg.Gauge(fmt.Sprintf("livenet.node.%d.alive", i))
		g.aliveG.Set(1)
	}
	t := livenet.TransportPipe
	if cfg.Backend == BackendTCP {
		t = livenet.TransportTCP
	}
	net, err := livenet.StartNet(graph, livenet.NetConfig{
		Handler:            e,
		Transport:          t,
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
	e.net = net
	e.transportErr = net.Err
	for i := range e.ns {
		e.startGossip(i)
	}
	e.startMonitor()
	return e, nil
}

// startGossip launches node i's gossip goroutine for its current
// incarnation.
func (e *liveEngine) startGossip(i int) {
	g := &e.gossip[i]
	ctx, cancel := context.WithCancel(e.ctx)
	g.cancel = cancel
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
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
	peers := e.net.Peers(i)
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
	if !e.net.CanSend(i, peer) {
		e.net.NoteDrop(i)
		return
	}
	ns.mu.Lock()
	out := ns.node.Split()
	ns.mu.Unlock()
	if len(out) == 0 {
		return
	}
	if e.net.Send(i, peer, false, out) {
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
	e.net.NoteDrop(i)
}

// sendPull asks peer for data. A pull request carries no weight, so a
// refused send is simply skipped — nothing to conserve, and the next
// tick retries.
func (e *liveEngine) sendPull(i, peer int) {
	if !e.net.CanSend(i, peer) {
		return
	}
	_ = e.net.Send(i, peer, true, nil)
}

// Deliver implements livenet.Handler: incoming data frames are
// absorbed, pull requests answered with a push back to the requester.
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

// Kill crashes node i fail-stop: its gossip goroutine stops, its links
// are torn down (queued outbound frames go back to the node first) and
// the node's weight is reported as destroyed. A frame already on the
// wire to the dying node is untracked kernel-buffer territory, exactly
// as in a deployment, so it is not part of the figure.
func (e *liveEngine) Kill(i int) (float64, error) {
	e.churnMu.Lock()
	defer e.churnMu.Unlock()
	if err := e.checkChurn("Kill", i, true); err != nil {
		return 0, err
	}
	// Producer first: livenet's teardown contract requires a quiescent
	// sender.
	g := &e.gossip[i]
	g.cancel()
	g.wg.Wait()
	if err := e.net.Kill(i); err != nil {
		return 0, err
	}
	destroyed := e.markDead(i, 0)
	g.aliveG.Set(0)
	return destroyed, nil
}

// Restart revives a killed node with a fresh value and weight 1. The
// transport re-links it to every currently alive neighbor.
func (e *liveEngine) Restart(i int, value core.Value) error {
	e.churnMu.Lock()
	defer e.churnMu.Unlock()
	// The node is installed before the links come back up: a receiver
	// may Deliver to it the moment they exist.
	if err := e.reincarnate(i, value); err != nil {
		return err
	}
	if err := e.net.Restart(i); err != nil {
		return err // node stays dead; transport cleaned up after itself
	}
	e.startGossip(i)
	e.markAlive(i)
	e.gossip[i].aliveG.Set(1)
	return nil
}

// Stop shuts the engine down: gossip goroutines first (so the
// transport sees quiescent producers), then the monitor probe, then
// the transport, whose Stop drains the link queues. Safe to call more
// than once.
func (e *liveEngine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	e.cancel()
	e.churnMu.Lock()
	defer e.churnMu.Unlock()
	for i := range e.gossip {
		e.gossip[i].wg.Wait()
	}
	e.monWG.Wait()
	e.net.Stop()
	e.finalAudit()
}
