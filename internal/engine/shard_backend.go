package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distclass/internal/converge"
	"distclass/internal/core"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/vec"
)

// shardEngine runs the concurrent protocol on a sharded scheduler. The
// chan backend spends one goroutine pair per node, which tops out
// around a thousand nodes; here the node population is partitioned
// across a small worker pool (default GOMAXPROCS shards) and each
// worker drives its shard in scheduling quanta:
//
//  1. drain the shard mailbox — frames other shards handed over —
//     absorbing data frames and serving pull requests;
//  2. tick every alive local node once (choose a peer under the
//     Policy, act out the Mode); intra-shard sends absorb
//     synchronously, cross-shard sends append to per-destination-shard
//     batches;
//  3. flush the batches: one mailbox handover per destination shard
//     per quantum, no matter how many frames it carries.
//
// A node's splits, its pull responses and its RNG draws all execute on
// its owning worker, so per-node protocol state (round-robin cursor,
// gossip RNG, causal seq) is single-writer without locks; the per-node
// mutex only arbitrates the owning worker against external probes
// (Spread, Classification, TotalWeight).
//
// Churn and shutdown are linearized at quantum boundaries: workers
// hold pauseMu shared for the duration of a quantum, and Kill, Restart
// and Stop take it exclusively — a brief stop-the-world. That buys the
// conservation invariant the chan backend gets from its per-inbox
// locks: aliveness only flips while no worker is mid-quantum, sends
// target alive peers, and Kill purges the dead node's shard mailbox,
// so every frame still queued is destined to an alive node. Stop
// drains the mailboxes under the same exclusive lock and delivers
// every remaining data frame, making the post-Stop weight audit exact.
//
// At scale the per-node metric instruments of the chan backend
// (4 counters/gauges per node) would dominate memory and snapshot
// cost, so this backend keeps only the aggregate livenet.* counters;
// per-node health still flows through the trace plane.
type shardEngine struct {
	cfg     Config
	nodeCfg core.Config
	graph   *topology.Graph
	ns      []*shardNode
	shards  []*shard
	shardOf []int // node id -> owning shard index

	// pauseMu is the quantum boundary: workers hold it shared for one
	// quantum, churn (Kill/Restart) and Stop hold it exclusively.
	pauseMu sync.RWMutex
	stopped atomic.Bool
	wg      sync.WaitGroup // joins the shard workers
	ctx     context.Context
	cancel  context.CancelFunc
	monWG   sync.WaitGroup // joins the monitor probe goroutine

	aliveN atomic.Int64

	sink     trace.Sink
	causal   bool
	sent     *metrics.Counter
	recv     *metrics.Counter
	drops    *metrics.Counter
	crashes  *metrics.Counter
	recovers *metrics.Counter
	spreadG  *metrics.Gauge

	errOnce sync.Once
	firstE  atomic.Value // error
}

// shardNode is one node's scheduler-side state.
type shardNode struct {
	mu   sync.Mutex
	node *core.Node // guarded by mu

	// r and rr belong to the owning shard worker alone.
	r  *rng.RNG
	rr int // round-robin cursor

	alive atomic.Bool

	// Causal-mode counters. seq/clock are only touched by the owning
	// workers (sender's for seq and the send stamp, receiver's for the
	// merge), but they stay atomic to share trace.MergeClock and to
	// keep the invariant machine-checked rather than argued.
	seq   atomic.Uint64
	clock atomic.Uint64
}

// shardFrame is one queued message: a pull request (pull true) or a
// data frame carrying a classification, stamped with causal metadata
// when the run records a causal trace.
type shardFrame struct {
	src    int
	dst    int
	pull   bool
	cls    core.Classification
	seq    uint64
	clock  uint64
	weight float64
}

// shard is one worker's domain: a contiguous node range, the mailbox
// other shards deliver into, and worker-local scratch that makes the
// steady-state quantum allocation-free.
type shard struct {
	id     int
	lo, hi int // owns nodes [lo, hi)

	mailbox struct {
		mu      sync.Mutex
		pending []shardFrame // guarded by mu
	}

	// Worker-local state, touched only by the owning worker.
	local       []shardFrame   // drain buffer, swapped with pending
	out         [][]shardFrame // per-destination-shard batches
	peerScratch []int          // alive-neighbor buffer for tick
}

func newShardEngine(cfg Config, graph *topology.Graph, nodes []*core.Node, nodeCfg core.Config, root *rng.RNG) (Engine, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = runtime.GOMAXPROCS(0)
	}
	if nShards > len(nodes) {
		nShards = len(nodes)
	}
	if nShards < 1 {
		nShards = 1
	}
	e := &shardEngine{
		cfg:      cfg,
		nodeCfg:  nodeCfg,
		graph:    graph,
		sink:     cfg.Trace,
		causal:   cfg.Causal,
		sent:     reg.Counter("livenet.sent"),
		recv:     reg.Counter("livenet.received"),
		drops:    reg.Counter("livenet.send_drops"),
		crashes:  reg.Counter("livenet.crashes"),
		recovers: reg.Counter("livenet.recovers"),
		spreadG:  reg.Gauge("sim.spread"),
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	e.ns = make([]*shardNode, len(nodes))
	for i, n := range nodes {
		ns := &shardNode{node: n, r: root.Split()}
		ns.alive.Store(true)
		e.ns[i] = ns
	}
	e.aliveN.Store(int64(len(nodes)))
	e.shards = make([]*shard, nShards)
	e.shardOf = make([]int, len(nodes))
	for s := 0; s < nShards; s++ {
		lo := s * len(nodes) / nShards
		hi := (s + 1) * len(nodes) / nShards
		sh := &shard{id: s, lo: lo, hi: hi, out: make([][]shardFrame, nShards)}
		e.shards[s] = sh
		for i := lo; i < hi; i++ {
			e.shardOf[i] = s
		}
	}
	for _, sh := range e.shards {
		sh := sh
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.worker(sh)
		}()
	}
	if cfg.Monitor != nil {
		e.monWG.Add(1)
		go monitorProbe(e.ctx, &e.monWG, e, e.cfg, e.sink, e.spreadG)
	}
	return e, nil
}

// worker drives one shard: a quantum under the shared pause lock, then
// a pacing sleep so every node gets roughly one gossip opportunity per
// Interval. When a quantum's work exceeds the Interval the worker runs
// back-to-back — pacing never throttles a loaded shard.
func (e *shardEngine) worker(s *shard) {
	prof.Label("shard.worker")
	for {
		start := time.Now()
		e.pauseMu.RLock()
		if e.stopped.Load() {
			e.pauseMu.RUnlock()
			return
		}
		e.quantum(s)
		e.pauseMu.RUnlock()
		if rem := e.cfg.Interval - time.Since(start); rem > 0 {
			time.Sleep(rem)
		}
	}
}

// quantum is one scheduling slice of a shard: drain, tick, flush. The
// out-batches are always flushed before the quantum ends, so whenever
// pauseMu is held exclusively every queued frame sits in a mailbox —
// the property Kill's purge and Stop's drain rely on.
func (e *shardEngine) quantum(s *shard) {
	s.mailbox.mu.Lock()
	s.local, s.mailbox.pending = s.mailbox.pending, s.local[:0]
	s.mailbox.mu.Unlock()
	for _, f := range s.local {
		if f.pull {
			e.servePull(s, f)
		} else {
			e.deliverData(f)
		}
	}
	for i := s.lo; i < s.hi; i++ {
		if e.ns[i].alive.Load() {
			e.tick(s, i)
		}
	}
	for d, batch := range s.out {
		if len(batch) == 0 {
			continue
		}
		dst := e.shards[d]
		dst.mailbox.mu.Lock()
		dst.mailbox.pending = append(dst.mailbox.pending, batch...)
		dst.mailbox.mu.Unlock()
		s.out[d] = batch[:0]
	}
}

// tick is one gossip opportunity for local node i: pick an alive
// neighbor under the Policy, then act out the Mode.
func (e *shardEngine) tick(s *shard, i int) {
	ns := e.ns[i]
	peers := s.peerScratch[:0]
	for _, j := range e.graph.Neighbors(i) {
		if e.ns[j].alive.Load() {
			peers = append(peers, j)
		}
	}
	s.peerScratch = peers
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
		e.sendPull(s, i, peer)
	case ModePushPull:
		e.push(s, i, peer)
		e.sendPull(s, i, peer)
	default:
		e.push(s, i, peer)
	}
}

// push splits node i and sends the outgoing half to peer. i is always
// local to s: gossip ticks push from the shard's own nodes, and pull
// responses push from the served (local) node.
func (e *shardEngine) push(s *shard, i, peer int) {
	ns := e.ns[i]
	ns.mu.Lock()
	out := ns.node.Split()
	ns.mu.Unlock()
	if len(out) == 0 {
		return
	}
	f := shardFrame{src: i, dst: peer, cls: out}
	if e.causal {
		// Stamp at send time: the frame must carry its identity. The
		// owning worker is the only seq/clock writer for node i.
		f.seq = ns.seq.Add(1)
		f.clock = ns.clock.Add(1)
		f.weight = out.TotalWeight()
	}
	e.noteSend(f)
	if d := e.shardOf[peer]; d == s.id {
		// Intra-shard: deliver synchronously — no queue, no handover.
		e.deliverData(f)
	} else {
		s.out[d] = append(s.out[d], f)
	}
}

// sendPull queues a pull request from i to peer. Pull requests carry
// no weight; like the chan transport, the send is still counted and
// traced (without causal identity — only data frames move weight).
func (e *shardEngine) sendPull(s *shard, i, peer int) {
	f := shardFrame{src: i, dst: peer, pull: true}
	e.noteSend(f)
	if d := e.shardOf[peer]; d == s.id {
		e.servePull(s, f)
	} else {
		s.out[d] = append(s.out[d], f)
	}
}

// noteSend does the send-side accounting for a frame.
func (e *shardEngine) noteSend(f shardFrame) {
	e.sent.Inc()
	if e.sink != nil {
		ev := trace.Event{
			Round: -1, Node: f.src, Kind: trace.KindSend,
			Value: float64(len(f.cls)),
		}
		if e.causal && !f.pull {
			ev.Seq, ev.Peer, ev.Clock, ev.Weight = f.seq, f.dst, f.clock, f.weight
		}
		_ = e.sink.Record(ev)
	}
}

// deliverData absorbs a data frame into its destination. By the
// quantum-boundary invariant the destination is alive: frames to a
// node killed after the send were purged by Kill before any worker
// resumed.
func (e *shardEngine) deliverData(f shardFrame) {
	dn := e.ns[f.dst]
	if !dn.alive.Load() {
		e.fail(fmt.Errorf("engine: shard scheduler: frame from %d to dead node %d survived the kill purge", f.src, f.dst))
		return
	}
	dn.mu.Lock()
	err := dn.node.Absorb(f.cls)
	dn.mu.Unlock()
	if err != nil {
		e.fail(fmt.Errorf("engine: shard scheduler: node %d: absorb from %d: %w", f.dst, f.src, err))
		return
	}
	e.recv.Inc()
	if e.sink != nil {
		ev := trace.Event{
			Round: -1, Node: f.dst, Kind: trace.KindReceive,
			Value: float64(len(f.cls)),
		}
		if e.causal {
			ev.Seq, ev.Peer, ev.Weight = f.seq, f.src, f.weight
			ev.Clock = trace.MergeClock(&dn.clock, f.clock)
		}
		_ = e.sink.Record(ev)
	}
}

// servePull answers a pull request delivered to local node f.dst with
// a push back to the requester. A requester that died while the
// request was queued is skipped — pulls carry no weight.
func (e *shardEngine) servePull(s *shard, f shardFrame) {
	if !e.ns[f.src].alive.Load() || !e.ns[f.dst].alive.Load() {
		return
	}
	e.push(s, f.dst, f.src)
}

func (e *shardEngine) Backend() Backend { return BackendShard }
func (e *shardEngine) N() int           { return len(e.ns) }

// ShardCount reports the worker-pool size (for tests and diagnostics).
func (e *shardEngine) ShardCount() int { return len(e.shards) }

func (e *shardEngine) Node(i int) *core.Node {
	ns := e.ns[i]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node
}

func (e *shardEngine) Classification(i int) core.Classification {
	ns := e.ns[i]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.Classification()
}

// Spread probes a bounded, deterministic sample of alive nodes (see
// probeIndicesInto): constant probe cost regardless of N, which is
// what keeps the monitor plane responsive at 100k+ nodes. When every
// node is alive — the common case — the probe indexes the population
// directly instead of materializing a 100k-entry alive list.
func (e *shardEngine) Spread() (float64, error) {
	n := len(e.ns)
	if n < 2 {
		return 0, nil
	}
	if int(e.aliveN.Load()) == n {
		idx := probeIndicesInto(nil, n, e.cfg.Seed, nil)
		return e.spreadAt(idx, nil)
	}
	alive := make([]int, 0, n)
	for i, ns := range e.ns {
		if ns.alive.Load() {
			alive = append(alive, i)
		}
	}
	if len(alive) < 2 {
		return 0, nil
	}
	idx := probeIndicesInto(nil, len(alive), e.cfg.Seed, nil)
	return e.spreadAt(idx, alive)
}

// spreadAt returns the worst pairwise dissimilarity over the probe
// index set; alive, when non-nil, maps probe indices to node ids.
func (e *shardEngine) spreadAt(idx, alive []int) (float64, error) {
	var worst float64
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			i, j := idx[a], idx[b]
			if alive != nil {
				i, j = alive[i], alive[j]
			}
			d, err := e.pairDissimilarity(i, j)
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

func (e *shardEngine) pairDissimilarity(a, b int) (float64, error) {
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
// the shard mailboxes is not included, so it shows as a deficit; after
// Stop the sum is exact.
func (e *shardEngine) TotalWeight() float64 {
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

func (e *shardEngine) Alive(i int) bool { return e.ns[i].alive.Load() }

func (e *shardEngine) AliveCount() int { return int(e.aliveN.Load()) }

func (e *shardEngine) Stats() Stats {
	return Stats{
		MessagesSent:    int(e.sent.Value()),
		MessagesDropped: int(e.drops.Value()),
		Crashes:         int(e.crashes.Value()),
	}
}

// Kill crashes node i fail-stop under the exclusive pause lock: no
// worker is mid-quantum, so the only frames destined to i sit in its
// owning shard's mailbox. They are purged and their weight — plus the
// node's own — reported as destroyed, exactly the chan backend's
// accounting.
func (e *shardEngine) Kill(i int) (float64, error) {
	if i < 0 || i >= len(e.ns) {
		return 0, fmt.Errorf("engine: Kill(%d): no such node", i)
	}
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	if e.stopped.Load() {
		return 0, errors.New("engine: Kill on a stopped engine")
	}
	ns := e.ns[i]
	if !ns.alive.Load() {
		return 0, fmt.Errorf("engine: node %d is already dead", i)
	}
	sh := e.shards[e.shardOf[i]]
	var inflight float64
	sh.mailbox.mu.Lock()
	kept := sh.mailbox.pending[:0]
	for _, f := range sh.mailbox.pending {
		if f.dst == i {
			if !f.pull {
				inflight += f.cls.TotalWeight()
			}
			continue
		}
		kept = append(kept, f)
	}
	sh.mailbox.pending = kept
	sh.mailbox.mu.Unlock()
	ns.mu.Lock()
	destroyed := ns.node.Weight() + inflight
	ns.mu.Unlock()
	ns.alive.Store(false)
	e.aliveN.Add(-1)
	e.crashes.Inc()
	if e.sink != nil {
		_ = e.sink.Record(trace.Event{
			Round: -1, Node: i, Kind: trace.KindCrash, Value: destroyed,
		})
	}
	return destroyed, nil
}

// Restart revives a killed node with a fresh value and weight 1. On
// this backend a restart is just a state swap under the pause lock —
// there is no per-node goroutine or endpoint to rebuild; the owning
// worker resumes ticking the node at its next quantum.
func (e *shardEngine) Restart(i int, value core.Value) error {
	if i < 0 || i >= len(e.ns) {
		return fmt.Errorf("engine: Restart(%d): no such node", i)
	}
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
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
	ns.mu.Lock()
	ns.node = node
	ns.mu.Unlock()
	ns.alive.Store(true)
	e.aliveN.Add(1)
	e.recovers.Inc()
	if e.sink != nil {
		_ = e.sink.Record(trace.Event{
			Round: -1, Node: i, Kind: trace.KindRecover, Value: 1,
		})
	}
	return nil
}

// Step lets the protocol run for one gossip interval of wall time.
func (e *shardEngine) Step() error { return e.Run(1) }

// Run lets the protocol run for rounds gossip intervals of wall time.
func (e *shardEngine) Run(rounds int) error {
	timer := time.NewTimer(time.Duration(rounds) * e.cfg.Interval)
	defer timer.Stop()
	select {
	case <-e.ctx.Done():
	case <-timer.C:
	}
	return e.Err()
}

func (e *shardEngine) RunObserved(int, func(int) error) error {
	return fmt.Errorf("engine: backend %s has no driver rounds to observe; poll Spread instead", BackendShard)
}

// RunUntilConverged polls Spread every few milliseconds until it stays
// below Tolerance for Window consecutive probes or the timeout
// expires. The returned round count is always zero — the sharded
// scheduler has no round axis.
func (e *shardEngine) RunUntilConverged(timeout time.Duration) (int, bool, error) {
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

func (e *shardEngine) fail(err error) {
	e.errOnce.Do(func() { e.firstE.Store(err) })
}

func (e *shardEngine) Err() error {
	if err, ok := e.firstE.Load().(error); ok {
		return err
	}
	return nil
}

// Stop shuts the scheduler down: mark stopped, take the pause lock
// (waiting out any in-flight quantum), drain every mailbox — all
// remaining data frames are destined to alive nodes by the kill-purge
// invariant, so their weight is delivered, not lost — then join the
// workers and the monitor probe. The final conservation sample lands
// after the drain, so the audit ends exact. Safe to call more than
// once.
func (e *shardEngine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	e.cancel()
	e.pauseMu.Lock()
	for _, sh := range e.shards {
		sh.mailbox.mu.Lock()
		pending := sh.mailbox.pending
		sh.mailbox.pending = nil
		sh.mailbox.mu.Unlock()
		for _, f := range pending {
			if f.pull {
				// Pull requests carry no weight and answering one would
				// generate new traffic mid-drain; drop it, as the chan
				// transport's Stop does.
				continue
			}
			e.deliverData(f)
		}
	}
	e.pauseMu.Unlock()
	e.wg.Wait()
	e.monWG.Wait()
	if e.cfg.Monitor != nil {
		e.cfg.Monitor.ObserveWeight(e.TotalWeight())
	}
}
