package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"distclass/internal/core"
	"distclass/internal/livenet"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// chanNet is the in-process channel transport: one buffered inbox and
// one receiver goroutine per node, frames passed by reference with no
// serialization. It is the cheapest genuinely concurrent substrate —
// thousands of nodes fit in one -race run — and it reuses the
// livenet.* metric namespace so the whole concurrent family reads
// uniformly: livenet.{sent,received,send_drops} aggregates, the
// per-node counters, and the last_receive_seq staleness gauges. Having
// no wire, it has no decode errors, no latency histograms, and its
// send/receive trace events carry collection counts rather than frame
// bytes.
type chanNet struct {
	e      *liveEngine
	graph  *topology.Graph
	queue  int
	causal bool
	nodes  []*chanNode

	sink    trace.Sink
	sent    *metrics.Counter
	recv    *metrics.Counter
	drops   *metrics.Counter
	recvSeq atomic.Int64

	mu      sync.Mutex // serializes Kill/Restart/Stop bookkeeping
	stopped bool       // guarded by mu
}

// chanFrame is one in-flight message: a pull request (pull true) or a
// data frame carrying a classification. In causal mode data frames
// additionally carry their identity (per-sender seq), the sender's
// Lamport clock and the weight they move.
type chanFrame struct {
	src    int
	pull   bool
	cls    core.Classification
	seq    uint64
	clock  uint64
	weight float64
}

// chanNode is one node's transport endpoint.
type chanNode struct {
	// stateMu gates senders against Kill: Send holds it shared while
	// checking aliveness and enqueueing; Kill holds it exclusively
	// while flipping the flag and draining the inbox. That makes a
	// crash's destroyed-weight figure exact — no frame can slip into a
	// dead inbox behind the drain.
	stateMu sync.RWMutex
	alive   bool // guarded by stateMu
	inbox   chan chanFrame

	cancel context.CancelFunc // stops this incarnation's receiver
	wg     sync.WaitGroup

	sent     *metrics.Counter
	recv     *metrics.Counter
	drops    *metrics.Counter
	lastRecv *metrics.Gauge

	// Causal-mode counters. Atomic because a node sends from both its
	// own gossip goroutine and — answering pulls — from whichever
	// receiver goroutine delivered the request.
	seq   atomic.Uint64
	clock atomic.Uint64
}

func newChanNet(e *liveEngine, graph *topology.Graph, queue int, causal bool, reg *metrics.Registry, sink trace.Sink) *chanNet {
	if queue <= 0 {
		queue = livenet.DefaultSendQueue
	}
	t := &chanNet{
		e:      e,
		graph:  graph,
		queue:  queue,
		causal: causal,
		sink:   sink,
		sent:   reg.Counter("livenet.sent"),
		recv:   reg.Counter("livenet.received"),
		drops:  reg.Counter("livenet.send_drops"),
	}
	t.nodes = make([]*chanNode, graph.N())
	for i := range t.nodes {
		t.nodes[i] = &chanNode{
			alive:    true,
			inbox:    make(chan chanFrame, queue),
			sent:     reg.Counter(fmt.Sprintf("livenet.node.%d.sent", i)),
			recv:     reg.Counter(fmt.Sprintf("livenet.node.%d.received", i)),
			drops:    reg.Counter(fmt.Sprintf("livenet.node.%d.send_drops", i)),
			lastRecv: reg.Gauge(fmt.Sprintf("livenet.node.%d.last_receive_seq", i)),
		}
		t.startRecv(i)
	}
	return t
}

// startRecv launches node i's receiver goroutine for its current
// incarnation.
func (t *chanNet) startRecv(i int) {
	n := t.nodes[i]
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		prof.Label("engine.receive")
		for {
			select {
			case <-ctx.Done():
				return
			case f := <-n.inbox:
				if !t.deliver(i, f) {
					return
				}
			}
		}
	}()
}

// deliver hands one frame to the engine and does the receive
// accounting, reporting whether the receiver should keep going.
func (t *chanNet) deliver(i int, f chanFrame) bool {
	if err := t.e.Deliver(i, f.src, f.pull, f.cls); err != nil {
		t.e.fail(fmt.Errorf("engine: chan transport: node %d: deliver from %d: %w", i, f.src, err))
		return false
	}
	if !f.pull {
		n := t.nodes[i]
		t.recv.Inc()
		n.recv.Inc()
		n.lastRecv.Set(float64(t.recvSeq.Add(1)))
		if t.sink != nil {
			ev := trace.Event{
				Round: -1, Node: i, Kind: trace.KindReceive,
				Value: float64(len(f.cls)),
			}
			if t.causal {
				ev.Seq, ev.Peer, ev.Weight = f.seq, f.src, f.weight
				ev.Clock = trace.MergeClock(&n.clock, f.clock)
			}
			_ = t.sink.Record(ev)
		}
	}
	return true
}

// Peers returns i's currently alive neighbors.
func (t *chanNet) Peers(i int) []int {
	neighbors := t.graph.Neighbors(i)
	out := make([]int, 0, len(neighbors))
	for _, j := range neighbors {
		n := t.nodes[j]
		n.stateMu.RLock()
		alive := n.alive
		n.stateMu.RUnlock()
		if alive {
			out = append(out, j)
		}
	}
	return out
}

// CanSend reports whether peer's inbox would accept a frame right now.
// Advisory: pull responses and gossip ticks can race on the same
// inbox, so Send can still refuse — losslessly, the caller re-absorbs.
func (t *chanNet) CanSend(i, peer int) bool {
	n := t.nodes[peer]
	n.stateMu.RLock()
	defer n.stateMu.RUnlock()
	return n.alive && len(n.inbox) < cap(n.inbox)
}

// Send enqueues a frame into peer's inbox without blocking. A false
// return (dead peer or full inbox) consumes nothing.
func (t *chanNet) Send(i, peer int, pull bool, cls core.Classification) bool {
	n := t.nodes[peer]
	n.stateMu.RLock()
	defer n.stateMu.RUnlock()
	if !n.alive {
		return false
	}
	f := chanFrame{src: i, pull: pull, cls: cls}
	if t.causal && !pull {
		// Stamp before the enqueue attempt — the frame must carry its
		// identity. A refused send below burns the sequence number (the
		// analyzer matches exact pairs, not contiguous ranges) and the
		// clock tick is harmlessly monotone.
		s := t.nodes[i]
		f.seq = s.seq.Add(1)
		f.clock = s.clock.Add(1)
		f.weight = cls.TotalWeight()
	}
	select {
	case n.inbox <- f:
	default:
		return false
	}
	t.sent.Inc()
	t.nodes[i].sent.Inc()
	if t.sink != nil {
		ev := trace.Event{
			Round: -1, Node: i, Kind: trace.KindSend,
			Value: float64(len(cls)),
		}
		if t.causal && !pull {
			ev.Seq, ev.Peer, ev.Clock, ev.Weight = f.seq, peer, f.clock, f.weight
		}
		_ = t.sink.Record(ev)
	}
	return true
}

// NoteDrop counts a refused send opportunity against node i.
func (t *chanNet) NoteDrop(i int) {
	t.drops.Inc()
	t.nodes[i].drops.Inc()
	if t.sink != nil {
		_ = t.sink.Record(trace.Event{Round: -1, Node: i, Kind: trace.KindSendDrop})
	}
}

// Kill tears down node i's endpoint: the receiver stops, the inbox is
// drained under the exclusive state lock (so no sender can slip a
// frame in behind the drain), and the weight of the drained data
// frames — in flight when the node died — is returned as destroyed.
func (t *chanNet) Kill(i int) (float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return 0, errors.New("engine: chan transport: Kill on a stopped net")
	}
	n := t.nodes[i]
	n.cancel()
	n.wg.Wait()
	n.stateMu.Lock()
	defer n.stateMu.Unlock()
	n.alive = false
	var destroyed float64
	for {
		select {
		case f := <-n.inbox:
			if !f.pull {
				destroyed += f.cls.TotalWeight()
			}
		default:
			return destroyed, nil
		}
	}
}

// Restart revives node i's endpoint: same inbox (empty — Kill drained
// it), fresh receiver goroutine.
func (t *chanNet) Restart(i int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return errors.New("engine: chan transport: Restart on a stopped net")
	}
	n := t.nodes[i]
	t.startRecv(i)
	n.stateMu.Lock()
	n.alive = true
	n.stateMu.Unlock()
	return nil
}

// Stop shuts the transport down and settles the books: receivers stop,
// then every inbox is drained synchronously — data frames to alive
// nodes are delivered (their weight conserved into the final state),
// frames at dead inboxes are discarded (destroyed in flight, exactly
// as a crash leaves them). Pull requests carry no weight and are
// dropped without response, so the drain cannot generate new traffic.
// The engine guarantees all gossip producers are stopped first.
func (t *chanNet) Stop() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped {
		return
	}
	t.stopped = true
	for _, n := range t.nodes {
		n.stateMu.RLock()
		alive := n.alive
		n.stateMu.RUnlock()
		if alive {
			n.cancel()
		}
	}
	for _, n := range t.nodes {
		n.wg.Wait()
	}
	for i, n := range t.nodes {
		// Receivers are joined and Kill/Restart serialize on t.mu, so
		// aliveness is frozen here; capture it under the lock once
		// rather than racing the flag inside the drain loop.
		n.stateMu.RLock()
		alive := n.alive
		n.stateMu.RUnlock()
	drain:
		for {
			select {
			case f := <-n.inbox:
				if f.pull || !alive {
					continue
				}
				if !t.deliver(i, f) {
					break drain
				}
			default:
				break drain
			}
		}
	}
}

// Err implements liveTransport; chan transport faults are reported
// straight to the engine.
func (t *chanNet) Err() error { return nil }
