package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"distclass/internal/core"
	"distclass/internal/livenet"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// shardEngine is the one live scheduler: it runs the concurrent
// protocol on every real-time backend (pipe, tcp, shard). The node
// population is partitioned across a small worker pool (GOMAXPROCS
// workers by default; Config.Shards on the shard backend) and each
// worker drives its shard in scheduling quanta of at most sliceNodes
// nodes:
//
//  1. drain the shard mailbox — frames other shards handed over —
//     absorbing data frames and serving pull requests;
//  2. tick every alive local node in the next slice, from the shard's
//     cursor (choose a peer under the Policy, act out the Mode);
//     intra-shard sends absorb synchronously, cross-shard sends append
//     to per-destination-shard batches;
//  3. flush the batches: one mailbox handover per destination shard
//     per quantum, no matter how many frames it carries.
//
// On the wire backends (pipe, tcp) every frame travels by livenet
// instead, even between two nodes of one shard: a tick picks among the
// links that are up and queues the frame on one, livenet's receive
// goroutines hand incoming frames to Deliver (answering pull requests
// there), and the mailboxes stay empty. Tracing and causal stamps are
// then livenet's too.
//
// A sweep is the run of quanta that takes the cursor from the shard's
// first node round to it again; the worker paces once per sweep, so
// every alive node still gets one gossip opportunity per Interval,
// while churn, shutdown and cross-shard frames wait at most one slice.
//
// A node's ticks and RNG draws execute on its owning worker, so
// per-node protocol state (round-robin cursor, gossip RNG, causal seq
// on the mailbox path) is single-writer without locks; the per-node
// mutex arbitrates the owning worker against external probes (Spread,
// Classification, TotalWeight) and, on the wire backends, against the
// receive goroutines that absorb frames and answer pulls.
//
// Churn and shutdown are linearized at quantum boundaries: workers
// hold pauseMu shared for the duration of a quantum, and Kill, Restart
// and Stop take it exclusively — a brief stop-the-world. That buys the
// conservation invariant: aliveness only flips while no worker is
// mid-quantum, sends target alive peers, and Kill purges the dead
// node's shard mailbox, so every frame still queued is destined to an
// alive node. Stop drains the mailboxes under the same exclusive lock
// and delivers every remaining data frame, making the post-Stop weight
// audit exact. On the wire backends Kill tears the node's links down
// instead (queued frames return through Undeliverable) and Stop hands
// the drain to livenet once the workers are joined.
//
// At scale per-node metric instruments would dominate memory and
// snapshot cost, so the engine keeps only the aggregate livenet.*
// counters; per-node health flows through the trace plane, and on the
// wire backends through livenet's own per-node counters.
type shardEngine struct {
	liveCore
	graph *topology.Graph
	// net carries every frame on the wire backends; nil on shard, whose
	// frames ride the shard mailboxes.
	net     *livenet.Net
	shards  []*shard
	shardOf []int // node id -> owning shard index
	// clocks holds each node's causal-mode counters (mailbox path).
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

// sliceNodes bounds one quantum's ticks: about 2 ms of GM splits, so
// Kill, Restart and a queued cross-shard frame wait out a slice rather
// than a whole shard.
const sliceNodes = 256

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
	cursor      int            // first node of the next slice, in [lo, hi)
	local       []shardFrame   // drain buffer, swapped with pending
	out         [][]shardFrame // per-destination-shard batches
	peerScratch []int          // alive-neighbor buffer for tick
}

// newShardEngine builds the scheduler; start launches its workers.
func newShardEngine(cfg Config, graph *topology.Graph, nodes []*core.Node, nodeCfg core.Config, root *rng.RNG) *shardEngine {
	if cfg.Metrics == nil {
		// One registry for the engine and, on the wire backends, its
		// transport: both count under the livenet.* names.
		cfg.Metrics = metrics.NewRegistry()
	}
	reg := cfg.Metrics
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
		sh := &shard{id: s, lo: lo, hi: hi, cursor: lo, out: make([][]shardFrame, nShards)}
		e.shards[s] = sh
		for i := lo; i < hi; i++ {
			e.shardOf[i] = s
		}
	}
	return e
}

// start opens the transport on the wire backends, then launches one
// worker per shard and the monitor probe.
func (e *shardEngine) start() error {
	if e.cfg.Backend.Caps().Wire {
		t := livenet.TransportPipe
		if e.cfg.Backend == BackendTCP {
			t = livenet.TransportTCP
		}
		net, err := livenet.StartNet(e.graph, livenet.NetConfig{
			Handler:            e,
			Transport:          t,
			FailOnDecodeErrors: e.cfg.FailOnDecodeErrors,
			Codec:              e.cfg.Codec,
			FrameBatch:         e.cfg.FrameBatch,
			Metrics:            e.cfg.Metrics,
			Trace:              e.cfg.Trace,
			Causal:             e.cfg.Causal,
		})
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		e.net = net
		e.transportErr = net.Err
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
	return nil
}

// worker drives one shard: quanta under the shared pause lock and,
// after each full sweep, a pacing sleep so every node gets roughly one
// gossip opportunity per Interval, measured from the sweep's start.
// When a sweep's work exceeds the Interval the worker runs
// back-to-back — pacing never throttles a loaded shard.
func (e *shardEngine) worker(s *shard) {
	prof.Label("shard.worker")
	start := time.Now()
	for {
		e.pauseMu.RLock()
		if e.stopped.Load() {
			e.pauseMu.RUnlock()
			return
		}
		wrapped := e.quantum(s)
		e.pauseMu.RUnlock()
		if !wrapped {
			continue
		}
		if rem := e.cfg.Interval - time.Since(start); rem > 0 {
			time.Sleep(rem)
		}
		start = time.Now()
	}
}

// quantum is one scheduling slice of a shard: drain, tick the next
// slice, flush. It reports whether the slice ended the sweep, wrapping
// the cursor back to the shard's first node. The out-batches are
// always flushed before the quantum ends, so whenever pauseMu is held
// exclusively every queued frame sits in a mailbox — the property
// Kill's purge and Stop's drain rely on. Drained and flushed buffers
// are cleared before reuse so they do not pin absorbed
// classifications.
func (e *shardEngine) quantum(s *shard) (wrapped bool) {
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
	clear(s.local)
	end := min(s.cursor+sliceNodes, s.hi)
	for i := s.cursor; i < end; i++ {
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
		clear(batch)
		s.out[d] = batch[:0]
	}
	if end == s.hi {
		s.cursor = s.lo
		return true
	}
	s.cursor = end
	return false
}

// tick is one gossip opportunity for local node i: pick a reachable
// neighbor under the Policy, then act out the Mode. On the wire
// backends the candidates are the links that are up, so a downed link
// costs only its node pair (DESIGN.md §10); on shard they are the
// alive neighbors.
func (e *shardEngine) tick(s *shard, i int) {
	ns := e.ns[i]
	var peers []int
	if e.net != nil {
		peers = e.net.Peers(i)
	} else {
		peers = s.peerScratch[:0]
		for r := range e.graph.Degree(i) {
			if j := e.graph.Neighbor(i, r); e.ns[j].alive.Load() {
				peers = append(peers, j)
			}
		}
		s.peerScratch = peers
	}
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
	if e.net != nil {
		e.pushWire(i, peer)
		return
	}
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
// identity — only data frames move weight). On the wire a refused send
// is simply skipped: nothing to conserve, and the next tick retries.
func (e *shardEngine) sendPull(s *shard, i, peer int) {
	if e.net != nil {
		if e.net.CanSend(i, peer) {
			_ = e.net.Send(i, peer, true, nil)
		}
		return
	}
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

// pushWire is push over livenet. Backpressure is lossless — a refused
// send is checked before the split (or, if the queue filled in between,
// the half is re-absorbed), so the weight never leaves the node.
func (e *shardEngine) pushWire(i, peer int) {
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
	// the send — possible when a pull response on a receive goroutine
	// and the worker's tick race on the same queue. Take the half back;
	// conservation over throughput.
	ns.mu.Lock()
	err := ns.node.Absorb(out)
	ns.mu.Unlock()
	if err != nil {
		e.fail(fmt.Errorf("engine: node %d: re-absorb refused send: %w", i, err))
		return
	}
	e.net.NoteDrop(i)
}

// Deliver implements livenet.Handler: incoming data frames are
// absorbed, pull requests answered with a push back to the requester.
func (e *shardEngine) Deliver(dst, src int, pull bool, cls core.Classification) error {
	if pull {
		e.pushWire(dst, src)
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
func (e *shardEngine) Undeliverable(owner int, cls core.Classification) error {
	ns := e.ns[owner]
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.node.Absorb(cls)
}

// ShardCount reports the worker-pool size (for tests and diagnostics).
func (e *shardEngine) ShardCount() int { return len(e.shards) }

// Kill crashes node i fail-stop under the exclusive pause lock: no
// worker is mid-quantum, so the only frames destined to i sit in its
// owning shard's mailbox. They are purged and their weight — plus the
// node's own — reported as destroyed. On the wire backends the node's
// links are torn down instead, its queued outbound frames going back to
// it first; a frame already on the wire to the dying node is untracked
// kernel-buffer territory, exactly as in a deployment, so it is not
// part of the figure.
func (e *shardEngine) Kill(i int) (float64, error) {
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	if err := e.checkChurn("Kill", i, true); err != nil {
		return 0, err
	}
	if e.net != nil {
		if err := e.net.Kill(i); err != nil {
			return 0, err
		}
		return e.markDead(i, 0), nil
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

// Restart revives a killed node with a fresh value and weight 1: a
// state swap under the pause lock, after which the owning worker
// resumes ticking the node when its cursor next reaches it. On the
// wire backends the transport re-links the node to every alive
// neighbor; the node is installed first, since a receiver may Deliver
// to it the moment the links exist.
func (e *shardEngine) Restart(i int, value core.Value) error {
	e.pauseMu.Lock()
	defer e.pauseMu.Unlock()
	if err := e.reincarnate(i, value); err != nil {
		return err
	}
	if e.net != nil {
		if err := e.net.Restart(i); err != nil {
			return err // node stays dead; transport cleaned up after itself
		}
	}
	e.markAlive(i)
	return nil
}

// Stop shuts the scheduler down: mark stopped, take the pause lock
// (waiting out any in-flight quantum), drain every mailbox — all
// remaining data frames are destined to alive nodes by the kill-purge
// invariant, so their weight is delivered, not lost — then join the
// workers and the monitor probe. On the wire backends the transport
// is stopped last, once no worker produces frames; its Stop drains the
// link queues. The final conservation sample lands after the drain, so
// the audit ends exact. Safe to call more than once.
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
	if e.net != nil {
		e.net.Stop()
	}
	e.finalAudit()
}
