package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distclass/internal/core"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// shardEngine runs the concurrent protocol on a sharded scheduler. A
// goroutine per node tops out around a thousand nodes; here the node
// population is partitioned across a small worker pool (default
// GOMAXPROCS shards) and each worker drives its shard in scheduling
// quanta:
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
// conservation invariant: aliveness only flips while no worker is
// mid-quantum, sends target alive peers, and Kill purges the dead
// node's shard mailbox, so every frame still queued is destined to an
// alive node. Stop drains the mailboxes under the same exclusive lock
// and delivers every remaining data frame, making the post-Stop weight
// audit exact.
//
// At scale per-node metric instruments would dominate memory and
// snapshot cost, so this backend keeps only the aggregate livenet.*
// counters; per-node health still flows through the trace plane.
type shardEngine struct {
	liveCore
	graph   *topology.Graph
	shards  []*shard
	shardOf []int // node id -> owning shard index
	// clocks holds each node's causal-mode counters.
	clocks []causalClock

	// pauseMu is the quantum boundary: workers hold it shared for one
	// quantum, churn (Kill/Restart) and Stop hold it exclusively.
	pauseMu sync.RWMutex
	wg      sync.WaitGroup // joins the shard workers

	causal bool
	recv   *metrics.Counter
}

// causalClock is one node's causal-mode counters. seq/clock are only
// touched by the owning workers (sender's for seq and the send stamp,
// receiver's for the merge), but they stay atomic to share
// trace.MergeClock and to keep the invariant machine-checked rather
// than argued.
type causalClock struct {
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
		graph:  graph,
		clocks: make([]causalClock, len(nodes)),
		causal: cfg.Causal,
		recv:   reg.Counter("livenet.received"),
	}
	e.init(cfg, nodes, nodeCfg, reg, root)
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
	e.startMonitor()
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
		c := &e.clocks[i]
		f.seq = c.seq.Add(1)
		f.clock = c.clock.Add(1)
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
// no weight; the send is still counted and traced (without causal
// identity — only data frames move weight).
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
			ev.Clock = trace.MergeClock(&e.clocks[f.dst].clock, f.clock)
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

// ShardCount reports the worker-pool size (for tests and diagnostics).
func (e *shardEngine) ShardCount() int { return len(e.shards) }

// Kill crashes node i fail-stop under the exclusive pause lock: no
// worker is mid-quantum, so the only frames destined to i sit in its
// owning shard's mailbox. They are purged and their weight — plus the
// node's own — reported as destroyed.
func (e *shardEngine) Kill(i int) (float64, error) {
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	if err := e.checkChurn("Kill", i, true); err != nil {
		return 0, err
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
	return e.markDead(i, inflight), nil
}

// Restart revives a killed node with a fresh value and weight 1. On
// this backend a restart is just a state swap under the pause lock —
// there is no per-node goroutine or endpoint to rebuild; the owning
// worker resumes ticking the node at its next quantum.
func (e *shardEngine) Restart(i int, value core.Value) error {
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	if err := e.reincarnate(i, value); err != nil {
		return err
	}
	e.markAlive(i)
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
				// generate new traffic mid-drain; drop it.
				continue
			}
			e.deliverData(f)
		}
	}
	e.pauseMu.Unlock()
	e.wg.Wait()
	e.monWG.Wait()
	e.finalAudit()
}
