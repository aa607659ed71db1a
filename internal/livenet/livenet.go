// Package livenet is the wire transport of the engine layer: real
// duplex connections (in-process net.Pipe by default, loopback TCP
// optionally), length-prefixed wire-encoded frames, bounded per-link
// outbound queues drained by writer goroutines, and receiver loops
// that hand decoded frames to the protocol layer. It no longer runs
// the protocol itself: neighbor choice, split→send→absorb sequencing
// and convergence probing live in internal/engine, which drives a Net
// through Send/CanSend and receives frames through the Handler
// interface. sim answers "does the algorithm behave as the paper
// says", livenet answers "does this implementation survive real
// concurrency".
//
// Failure is a measured condition, not a collapse (DESIGN.md §10): a
// full queue refuses the send (the engine counts it — lossless, the
// weight never left the node), a link error disables only that link, a
// decode error skips only that frame, and Kill/Restart tear down and
// re-establish a node's links so the engine can reproduce the paper's
// fail-stop crash study (Figure 4) against the real deployment —
// weight is destroyed exactly when a node or link dies with frames in
// flight.
package livenet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"distclass/internal/core"
	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/wire"
)

// LatencyBuckets returns the bucket bounds (seconds) of the livenet
// frame latency histograms: 1µs to ~4s, exponential — in-process pipes
// sit at the bottom, loopback TCP in the middle, stalls at the top. A
// fresh slice is returned so no caller can mutate another's bounds.
func LatencyBuckets() []float64 {
	return metrics.ExponentialBuckets(1e-6, 4, 12)
}

// MaxFrame bounds accepted message frames (1 MiB); a peer announcing a
// larger frame is treated as faulty.
const MaxFrame = 1 << 20

// DefaultSendQueue is the default per-link outbound queue depth.
const DefaultSendQueue = 16

// Frame kind tags, the first byte of every frame payload.
const (
	// frameKindData carries a wire-encoded classification.
	frameKindData byte = 0
	// frameKindPull carries no payload: it asks the receiver for data
	// (the pull half of the §4.1 gossip modes).
	frameKindPull byte = 1
	// frameKindCausal carries a wire-encoded classification prefixed by
	// causal metadata (NetConfig.Causal): the sender's per-peer-object
	// sequence number, its Lamport clock at send time, and the weight
	// the frame moves — causalHeaderLen bytes after the kind byte, each
	// u64 little-endian (the weight as IEEE-754 bits, so the receiver
	// restamps the exact float the sender debited).
	frameKindCausal byte = 2
	// frameKindBatch coalesces several data messages into one wire
	// frame (NetConfig.FrameBatch). After the kind byte: a flags byte
	// (bit 0 set when each message carries a causal header), a u16
	// message count, then per message the optional causalHeaderLen
	// metadata followed by its self-delimiting wire payload. Causal
	// headers ride inside the batch per message, so happens-before and
	// weight provenance are identical to unbatched frames.
	frameKindBatch byte = 3
)

// causalHeaderLen is the causal metadata length after the kind byte:
// seq u64 + clock u64 + weight f64.
const causalHeaderLen = 24

// batchHeaderLen is the batch metadata length after the kind byte:
// flags u8 + message count u16.
const batchHeaderLen = 3

// batchFlagCausal marks per-message causal headers in a batch frame.
const batchFlagCausal byte = 1

// Transport selects how node links are realized.
type Transport int

// Supported transports.
const (
	// TransportPipe links nodes with synchronous in-process pipes
	// (net.Pipe) — no sockets, no buffering.
	TransportPipe Transport = iota
	// TransportTCP links nodes with loopback TCP connections — real
	// sockets with kernel buffering, the closest in-process stand-in
	// for a deployed network.
	TransportTCP
)

func (t Transport) String() string {
	switch t {
	case TransportPipe:
		return "pipe"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// Handler is the protocol layer a Net delivers to (internal/engine
// implements it). Both methods are called from transport goroutines
// and must be safe for concurrent use.
type Handler interface {
	// Deliver hands node dst a decoded frame from src: a pull request
	// (pull true, cls nil) or a data frame (cls non-nil). A non-nil
	// error fails the net.
	Deliver(dst, src int, pull bool, cls core.Classification) error
	// Undeliverable returns a queued-but-unsent classification to its
	// owning node when a link dies or shuts down — queued weight is not
	// yet "on the wire" and must not be destroyed by a transport fault.
	Undeliverable(owner int, cls core.Classification) error
}

// NetConfig parameterizes a transport net.
type NetConfig struct {
	// Handler receives decoded frames and undeliverable returns.
	// Required.
	Handler Handler
	// Transport selects pipe (default) or loopback TCP links.
	Transport Transport
	// SendQueue bounds each link's outbound frame queue (default
	// DefaultSendQueue). Senders never block on a slow peer: CanSend
	// reports a full queue so the engine can refuse the send before any
	// state changes, and Send fails instead of blocking.
	SendQueue int
	// FailOnDecodeErrors, when positive, fails the net once the
	// aggregate decode-error count reaches the threshold — the strict
	// mode for runs that must not tolerate corruption. The default 0
	// keeps decode errors non-fatal: the frame is skipped, counted and
	// attributed per peer, and the link stays up.
	FailOnDecodeErrors int
	// Codec selects the wire encoding of outbound data frames (default
	// wire.CodecV1). Receivers decode by the version byte on the frame,
	// not by this setting, so mixed-codec nets interoperate as long as
	// DecodeMax admits the version.
	Codec wire.Codec
	// FrameBatch, when at least 2, lets each link's writer coalesce up
	// to that many consecutively queued data messages to the same peer
	// into one batch frame per flush (bounded by MaxFrame; pull
	// requests pass through unbatched in order). The per-link
	// pending/backpressure/Undeliverable contracts are unchanged: a
	// batch torn by a write error returns every one of its messages to
	// the sender. 0 or 1 disables coalescing.
	FrameBatch int
	// DecodeMax, when positive, caps the wire format version this net's
	// receivers accept — a stand-in for an old peer in cross-version
	// deployments. 0 means the newest supported version. A frame
	// rejected for its version (including batch frames when DecodeMax
	// predates them) downs the receiving link after an attributed
	// decode error: version skew is persistent, unlike transient
	// corruption, so retrying the link would only repeat the fault.
	DecodeMax int
	// Metrics, when non-nil, backs the transport's counters: aggregate
	// livenet.{sent,received,decode_errors,send_drops} counters (sent
	// and received count logical messages — classifications and pull
	// requests — not wire frames), the livenet.{bytes_sent,frames_sent}
	// counters (physical frames written, including length prefix and
	// batch headers) and the livenet.frames_per_batch histogram
	// (messages folded into each physical frame; all 1s without
	// batching); the livenet.links_down gauge (link endpoints currently
	// disabled by I/O errors or peer death); the per-node
	// livenet.node.<id>.{sent,received,bytes_sent,decode_errors,send_drops}
	// counters; the per-node livenet.node.<id>.last_receive_seq
	// staleness gauges (the net-wide receive sequence number at the
	// node's last absorb — a node whose gauge lags the net total is
	// stale); per-peer livenet.node.<id>.decode_errors.from.<peer>
	// counters (created on first error, so a healthy run adds none);
	// and the livenet.{send,absorb}_seconds latency histograms. When
	// nil the net uses a private registry (see Net.Metrics).
	Metrics *metrics.Registry
	// Trace, when non-nil, receives send/receive/send-drop/decode-error
	// events. Transport events are not tied to rounds; they carry
	// Round -1. The sink must be safe for concurrent writers
	// (trace.Recorder is).
	Trace trace.Sink
	// Causal sends data frames as frameKindCausal — carrying a
	// per-sender sequence number, the sender's Lamport clock and the
	// moved weight in the wire frame itself — and stamps the matching
	// causal fields (trace.SchemaCausal) on send/receive trace events.
	// Both ends of a Net share this setting, so a causal net never
	// mixes frame kinds on data.
	Causal bool
}

func (c NetConfig) withDefaults() NetConfig {
	if c.SendQueue <= 0 {
		c.SendQueue = DefaultSendQueue
	}
	return c
}

// Net is a running wire transport: the links of a static topology,
// their writer/receiver goroutines, and the frame-level accounting.
type Net struct {
	peers []*peer
	graph *topology.Graph
	cfg   NetConfig // effective config, defaults applied

	ctx         context.Context
	cancel      context.CancelFunc
	dial        func() (net.Conn, net.Conn, error)
	closeLinker func() // closes the TCP listener; nil on pipes

	// churnMu serializes Kill, Restart and Stop teardown: link and
	// goroutine bookkeeping is reconfigured only under this lock.
	churnMu sync.Mutex

	reg        *metrics.Registry
	sink       trace.Sink // nil when tracing is off
	sent       *metrics.Counter
	recv       *metrics.Counter
	decErr     *metrics.Counter
	drops      *metrics.Counter
	bytesSent  *metrics.Counter
	framesSent *metrics.Counter
	linksDown  *metrics.Gauge
	hSend      *metrics.Histogram
	hAbsorb    *metrics.Histogram
	hBatch     *metrics.Histogram

	recvSeq atomic.Int64 // net-wide receive sequence, drives staleness gauges

	stopped atomic.Bool
	errOnce sync.Once
	firstE  atomic.Value // error
}

// outFrame is one queued outbound frame: the encoded bytes plus the
// classification they encode (nil for pull requests), kept so an
// undelivered frame can be returned to its sender when the link dies —
// queued weight is not yet "on the wire" and must not be destroyed by
// a transport fault. In causal mode data frames also keep their causal
// stamp so writeOne can emit it on the send event after the write.
type outFrame struct {
	data   []byte
	cls    core.Classification
	seq    uint64
	clock  uint64
	weight float64
}

// link is one endpoint of a duplex connection: the bounded outbound
// queue its writer goroutine drains, and the conn its receiver loop
// reads. A downed link is skipped by the engine and never revived; a
// node Restart replaces the dead endpoints with fresh links.
type link struct {
	peer     int // neighbor id on the other end
	conn     net.Conn
	out      chan outFrame // bounded outbound frame queue
	done     chan struct{} // closed by shut; unblocks the writer's select
	down     atomic.Bool
	shutOnce sync.Once
	// pending counts frames handed to this link and not yet resolved
	// (written, returned, or dropped): queue contents plus the frame
	// the writer currently holds. Stop waits for pending to hit zero on
	// live links before closing connections, so a clean shutdown tears
	// no frame mid-write.
	pending atomic.Int64
}

func newLink(peerID int, conn net.Conn, queue int) *link {
	return &link{peer: peerID, conn: conn, out: make(chan outFrame, queue), done: make(chan struct{})}
}

// shut closes the link's conn and done channel, idempotently.
func (l *link) shut() {
	l.shutOnce.Do(func() { close(l.done) })
	_ = l.conn.Close()
}

// peer holds one node's transport books: its link endpoints and
// per-node instruments. The protocol node itself lives in the engine.
type peer struct {
	id int

	alive  atomic.Bool
	ctx    context.Context    // this incarnation's lifetime
	cancel context.CancelFunc // stops the incarnation's goroutines
	wg     sync.WaitGroup     // joins the incarnation's goroutines

	linksMu sync.Mutex
	links   []*link // guarded by linksMu

	// Per-node instruments, cached off the registry. Counters persist
	// across Kill/Restart incarnations — they account the node id, not
	// the incarnation.
	sent      *metrics.Counter
	recv      *metrics.Counter
	decErr    *metrics.Counter
	drops     *metrics.Counter
	bytesSent *metrics.Counter
	// lastRecv holds the net-wide receive sequence number at this
	// node's most recent delivery; Net.recvSeq minus this gauge is the
	// node's staleness in receives.
	lastRecv *metrics.Gauge

	// Causal-mode counters. Atomic because a node sends from its engine
	// gossip goroutine and — answering pulls — from receiver-loop
	// goroutines, and its own receiver loops merge clocks concurrently.
	// Like the counters above they persist across Kill/Restart
	// incarnations: clocks must never go backwards.
	seq   atomic.Uint64
	clock atomic.Uint64
}

// aliveLinks snapshots the peer's currently usable links.
func (p *peer) aliveLinks() []*link {
	p.linksMu.Lock()
	defer p.linksMu.Unlock()
	out := make([]*link, 0, len(p.links))
	for _, l := range p.links {
		if !l.down.Load() {
			out = append(out, l)
		}
	}
	return out
}

// findLink returns the peer's usable link to the given neighbor, or
// nil.
func (p *peer) findLink(neighbor int) *link {
	p.linksMu.Lock()
	defer p.linksMu.Unlock()
	for _, l := range p.links {
		if l.peer == neighbor && !l.down.Load() {
			return l
		}
	}
	return nil
}

// StartNet opens the transport over the graph: one duplex link per
// undirected edge, a writer and receiver goroutine per endpoint. Stop
// must be called to release the goroutines.
func StartNet(g *topology.Graph, cfg NetConfig) (*Net, error) {
	cfg = cfg.withDefaults()
	if cfg.Handler == nil {
		return nil, errors.New("livenet: NetConfig.Handler is required")
	}
	if g == nil {
		return nil, errors.New("livenet: nil graph")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	peers := make([]*peer, g.N())
	for i := range peers {
		peers[i] = &peer{
			id:        i,
			sent:      reg.Counter(fmt.Sprintf("livenet.node.%d.sent", i)),
			recv:      reg.Counter(fmt.Sprintf("livenet.node.%d.received", i)),
			decErr:    reg.Counter(fmt.Sprintf("livenet.node.%d.decode_errors", i)),
			drops:     reg.Counter(fmt.Sprintf("livenet.node.%d.send_drops", i)),
			bytesSent: reg.Counter(fmt.Sprintf("livenet.node.%d.bytes_sent", i)),
			lastRecv:  reg.Gauge(fmt.Sprintf("livenet.node.%d.last_receive_seq", i)),
		}
		peers[i].alive.Store(true)
	}
	// One duplex link per undirected edge. The dialer (and, on TCP, its
	// listener) stays open for the net's lifetime so Restart can
	// re-establish links; Stop closes it.
	dial := pipeLink
	var closeLinker func()
	if cfg.Transport == TransportTCP {
		closer, tcpDial, err := newTCPLinker()
		if err != nil {
			return nil, fmt.Errorf("livenet: tcp transport: %w", err)
		}
		closeLinker = closer
		dial = tcpDial
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v < u {
				continue
			}
			cu, cv, err := dial()
			if err != nil {
				for _, p := range peers {
					//lint:allow lockguard construction-time cleanup: peers has not been published yet
					for _, l := range p.links {
						_ = l.conn.Close()
					}
				}
				if closeLinker != nil {
					closeLinker()
				}
				return nil, fmt.Errorf("livenet: linking %d-%d: %w", u, v, err)
			}
			peers[u].links = append(peers[u].links, newLink(v, cu, cfg.SendQueue))
			peers[v].links = append(peers[v].links, newLink(u, cv, cfg.SendQueue))
		}
	}
	// links order: peers[u].links appends edges in increasing-neighbor
	// order for v > u, but edges with v < u were appended when u was the
	// larger endpoint — the order ends up by edge creation, not by
	// neighbor id. The engine picks over Peers() uniformly (or round-
	// robin), which is all fairness needs.
	ctx, cancel := context.WithCancel(context.Background())
	n := &Net{
		peers: peers, graph: g, cfg: cfg,
		ctx: ctx, cancel: cancel, dial: dial, closeLinker: closeLinker,
		reg:        reg,
		sink:       cfg.Trace,
		sent:       reg.Counter("livenet.sent"),
		recv:       reg.Counter("livenet.received"),
		decErr:     reg.Counter("livenet.decode_errors"),
		drops:      reg.Counter("livenet.send_drops"),
		bytesSent:  reg.Counter("livenet.bytes_sent"),
		framesSent: reg.Counter("livenet.frames_sent"),
		linksDown:  reg.Gauge("livenet.links_down"),
		hSend:      reg.MustHistogram("livenet.send_seconds", LatencyBuckets()),
		hAbsorb:    reg.MustHistogram("livenet.absorb_seconds", LatencyBuckets()),
		hBatch:     reg.MustHistogram("livenet.frames_per_batch", metrics.ExponentialBuckets(1, 2, 7)),
	}
	for _, p := range peers {
		p.ctx, p.cancel = context.WithCancel(ctx)
		n.startPeer(p)
	}
	return n, nil
}

// startPeer launches the writer/receiver pair of every link the peer
// currently holds.
func (n *Net) startPeer(p *peer) {
	p.linksMu.Lock()
	links := append([]*link(nil), p.links...)
	p.linksMu.Unlock()
	for _, l := range links {
		n.startLink(p, l)
	}
}

// startLink launches the writer and receiver goroutines of one link
// endpoint under the owning peer's lifetime.
func (n *Net) startLink(p *peer, l *link) {
	ctx := p.ctx
	p.wg.Add(2)
	go func() {
		defer p.wg.Done()
		prof.Label("livenet.write")
		n.writeLoop(ctx, p, l)
	}()
	go func() {
		defer p.wg.Done()
		prof.Label("livenet.receive")
		n.recvLoop(p, l)
	}()
}

// downLink disables a link after an I/O fault: the engine stops
// picking it and the conn is closed so both ends unblock. The
// links_down gauge counts endpoints currently disabled.
func (n *Net) downLink(l *link) {
	if !l.down.Swap(true) && !n.stopped.Load() {
		n.linksDown.Add(1)
	}
	l.shut()
}

// dropLink retires a link from the books entirely (node death or
// restart replacement), reversing its links_down contribution.
func (n *Net) dropLink(l *link) {
	if l.down.Swap(true) && !n.stopped.Load() {
		n.linksDown.Add(-1)
	}
	l.shut()
}

// Peers returns the neighbors node i currently has a usable link to.
func (n *Net) Peers(i int) []int {
	links := n.peers[i].aliveLinks()
	out := make([]int, len(links))
	for k, l := range links {
		out[k] = l.peer
	}
	return out
}

// CanSend reports whether a frame from i to peer can be queued right
// now: the link is up and its queue has room. The engine checks this
// before splitting, which makes backpressure lossless — the weight a
// refused frame would have carried never leaves the node, so a slow
// peer costs throughput, not mass. The engine goroutine for node i is
// the only producer on i's queues, so a free slot seen here cannot be
// taken by anyone else.
func (n *Net) CanSend(i, peer int) bool {
	l := n.peers[i].findLink(peer)
	return l != nil && len(l.out) < cap(l.out)
}

// Send queues a frame from i to peer: a pull request (pull true, cls
// ignored) or a data frame carrying cls. It reports whether the frame
// was queued; a false return means the link is gone or full and the
// caller still owns the classification (nothing was consumed). Send
// never blocks.
func (n *Net) Send(i, peer int, pull bool, cls core.Classification) bool {
	p := n.peers[i]
	l := p.findLink(peer)
	if l == nil {
		return false
	}
	var f outFrame
	if pull {
		f.data = []byte{frameKindPull}
	} else {
		payload, err := wire.MarshalClassificationCodec(cls, n.cfg.Codec)
		if err != nil {
			n.fail(fmt.Errorf("livenet: node %d: marshal: %w", i, err))
			return false
		}
		if n.cfg.Causal {
			// Stamp at queue time — the frame carries its identity. A
			// refused enqueue below burns the sequence number (analyzers
			// match exact pairs, not contiguous ranges) and the clock
			// tick stays harmlessly monotone.
			f.seq = p.seq.Add(1)
			f.clock = p.clock.Add(1)
			f.weight = cls.TotalWeight()
			f.data = make([]byte, 1+causalHeaderLen+len(payload))
			f.data[0] = frameKindCausal
			binary.LittleEndian.PutUint64(f.data[1:9], f.seq)
			binary.LittleEndian.PutUint64(f.data[9:17], f.clock)
			binary.LittleEndian.PutUint64(f.data[17:25], math.Float64bits(f.weight))
			copy(f.data[1+causalHeaderLen:], payload)
		} else {
			f.data = make([]byte, 1+len(payload))
			f.data[0] = frameKindData
			copy(f.data[1:], payload)
		}
		f.cls = cls
	}
	l.pending.Add(1)
	select {
	case l.out <- f:
		return true
	default:
		l.pending.Add(-1)
		return false
	}
}

// NoteDrop counts a refused send opportunity against node i —
// backpressure, not loss: the engine drops the send before the split,
// so the weight stays at the node.
func (n *Net) NoteDrop(i int) {
	n.drops.Inc()
	n.peers[i].drops.Inc()
	if n.sink != nil {
		_ = n.sink.Record(trace.Event{Round: -1, Node: i, Kind: trace.KindSendDrop})
	}
}

// writeLoop drains one link's outbound queue onto the wire. A write
// error disables only this link; the node keeps gossiping over its
// remaining links. Whenever the loop exits, frames still queued are
// returned to the engine — their weight never reached the wire, so it
// goes back to the node instead of vanishing. Only a frame torn
// mid-write by a dying connection is destroyed (it may be partially
// delivered, so neither side can safely keep it).
func (n *Net) writeLoop(ctx context.Context, p *peer, l *link) {
	defer n.returnQueue(p, l)
	for {
		select {
		case <-ctx.Done():
			// The engine stops its gossip goroutines before tearing the
			// transport down, so no frame can slip in behind this flush
			// and be stranded.
			n.flushQueue(p, l)
			return
		case <-l.done:
			return
		case f := <-l.out:
			if !n.writeCoalesced(p, l, f) {
				return
			}
		}
	}
}

// writeCoalesced writes one dequeued frame, folding queued data
// messages behind it into batch frames when NetConfig.FrameBatch asks
// for coalescing. Order is preserved exactly: a pull request flushes
// the accumulated batch before being written on its own.
func (n *Net) writeCoalesced(p *peer, l *link, first outFrame) bool {
	if n.cfg.FrameBatch < 2 {
		return n.writeOne(p, l, first)
	}
	frames := []outFrame{first}
drain:
	for len(frames) < n.cfg.FrameBatch {
		select {
		case f := <-l.out:
			frames = append(frames, f)
		default:
			break drain
		}
	}
	return n.writeFrames(p, l, frames)
}

// writeFrames writes a run of dequeued frames, grouping consecutive
// data messages into batch frames bounded by MaxFrame. On a write
// error every frame not yet on the wire — including the remainder of
// this run, which is no longer in the queue for returnQueue to find —
// goes back to the engine through Undeliverable.
func (n *Net) writeFrames(p *peer, l *link, frames []outFrame) bool {
	abort := func(unwritten []outFrame) bool {
		for _, f := range unwritten {
			l.pending.Add(-1)
			if f.cls == nil {
				continue
			}
			if err := n.cfg.Handler.Undeliverable(p.id, f.cls); err != nil {
				n.fail(fmt.Errorf("livenet: node %d: undeliverable after write error: %w", p.id, err))
				break
			}
		}
		return false
	}
	var batch []outFrame
	size := 0
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		ok := n.writeBatch(p, l, batch)
		batch, size = batch[:0], 0
		return ok
	}
	for i, f := range frames {
		if f.cls == nil { // pull request: never batched
			if !flush() {
				return abort(frames[i:])
			}
			if !n.writeOne(p, l, f) {
				return abort(frames[i+1:])
			}
			continue
		}
		if len(batch) > 0 && batchHeaderLen+size+len(f.data)-1 > MaxFrame {
			if !flush() {
				return abort(frames[i:])
			}
		}
		batch = append(batch, f)
		size += len(f.data) - 1
	}
	if !flush() {
		return abort(nil)
	}
	return true
}

// writeBatch writes the given data frames as one batch frame (or a
// plain frame when there is only one — smaller than a one-message
// batch) and does the per-message accounting. A failed write returns
// every message to the engine: the receiver saw at most a torn frame
// it will discard, so no split weight is lost.
func (n *Net) writeBatch(p *peer, l *link, batch []outFrame) bool {
	if len(batch) == 1 {
		return n.writeOne(p, l, batch[0])
	}
	size := 1 + batchHeaderLen
	for _, f := range batch {
		size += len(f.data) - 1
	}
	buf := make([]byte, 0, size)
	flags := byte(0)
	if n.cfg.Causal {
		flags |= batchFlagCausal
	}
	buf = append(buf, frameKindBatch, flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(batch)))
	for _, f := range batch {
		buf = append(buf, f.data[1:]...)
	}
	start := time.Now()
	if err := writeFrame(l.conn, buf); err != nil {
		for _, f := range batch {
			l.pending.Add(-1)
			if aerr := n.cfg.Handler.Undeliverable(p.id, f.cls); aerr != nil {
				n.fail(fmt.Errorf("livenet: node %d: undeliverable after write error: %w", p.id, aerr))
				break
			}
		}
		n.downLink(l)
		return false
	}
	n.hSend.Observe(time.Since(start).Seconds())
	n.noteFrameWritten(p, 4+len(buf), len(batch))
	for _, f := range batch {
		l.pending.Add(-1)
		n.sent.Inc()
		p.sent.Inc()
		if n.sink != nil {
			ev := trace.Event{
				Round: -1, Node: p.id, Kind: trace.KindSend,
				Value: float64(len(f.data)),
			}
			if f.data[0] == frameKindCausal {
				ev.Seq, ev.Peer, ev.Clock, ev.Weight = f.seq, l.peer, f.clock, f.weight
			}
			_ = n.sink.Record(ev)
		}
	}
	return true
}

// noteFrameWritten records one physical frame on the wire: its full
// byte cost (length prefix included) aggregate and per node, and how
// many logical messages it carried.
func (n *Net) noteFrameWritten(p *peer, wireBytes, messages int) {
	n.framesSent.Inc()
	n.bytesSent.Add(int64(wireBytes))
	p.bytesSent.Add(int64(wireBytes))
	n.hBatch.Observe(float64(messages))
}

// flushQueue writes the link's remaining queued frames until the queue
// is empty or the link dies — the graceful half of shutdown, giving
// receivers their in-flight weight instead of bouncing it back.
func (n *Net) flushQueue(p *peer, l *link) {
	for {
		select {
		case <-l.done:
			return
		case f := <-l.out:
			if !n.writeCoalesced(p, l, f) {
				return
			}
		default:
			return
		}
	}
}

// returnQueue hands every still-queued data frame back to the engine,
// conserving the weight an undelivered frame carries. Pull requests
// carry no weight and are simply discarded.
func (n *Net) returnQueue(p *peer, l *link) {
	for {
		select {
		case f := <-l.out:
			l.pending.Add(-1)
			if f.cls == nil {
				continue
			}
			if err := n.cfg.Handler.Undeliverable(p.id, f.cls); err != nil {
				n.fail(fmt.Errorf("livenet: node %d: undeliverable: %w", p.id, err))
				return
			}
		default:
			return
		}
	}
}

// writeOne writes a single frame and does its accounting, reporting
// whether the link is still usable.
func (n *Net) writeOne(p *peer, l *link, f outFrame) bool {
	defer l.pending.Add(-1)
	start := time.Now()
	if err := writeFrame(l.conn, f.data); err != nil {
		// A failed write means the receiver saw at most a torn frame it
		// will discard, so the weight is safe to take back. (Exact on
		// pipes; on TCP a frame fully buffered by the kernel before the
		// error could in principle still arrive.)
		if f.cls != nil {
			if aerr := n.cfg.Handler.Undeliverable(p.id, f.cls); aerr != nil {
				n.fail(fmt.Errorf("livenet: node %d: undeliverable after write error: %w", p.id, aerr))
			}
		}
		n.downLink(l)
		return false
	}
	n.hSend.Observe(time.Since(start).Seconds())
	n.noteFrameWritten(p, 4+len(f.data), 1)
	n.sent.Inc()
	p.sent.Inc()
	if n.sink != nil {
		ev := trace.Event{
			Round: -1, Node: p.id, Kind: trace.KindSend,
			Value: float64(len(f.data)),
		}
		if f.data[0] == frameKindCausal {
			ev.Seq, ev.Peer, ev.Clock, ev.Weight = f.seq, l.peer, f.clock, f.weight
		}
		_ = n.sink.Record(ev)
	}
	return true
}

func (n *Net) recvLoop(p *peer, l *link) {
	for {
		data, err := readFrame(l.conn)
		if err != nil {
			// EOF / closed conn is shutdown, peer death or remote link
			// teardown; anything else (torn stream, oversize
			// announcement) is a framing fault. Either way only this
			// link goes down — the net keeps running.
			if !n.stopped.Load() {
				n.downLink(l)
			}
			return
		}
		if len(data) == 0 || data[0] > frameKindBatch {
			if !n.noteDecodeError(p, l, fmt.Errorf("livenet: unknown frame kind")) {
				return
			}
			continue
		}
		if data[0] == frameKindBatch {
			if maxVer := n.cfg.DecodeMax; maxVer > 0 && maxVer < wire.VersionV2 {
				// This receiver predates batch frames. The mismatch is
				// persistent, so the link comes down after the attributed
				// error — exactly like a payload version it cannot decode.
				n.noteDecodeError(p, l, fmt.Errorf("livenet: batch frame but decoder is limited to format version %d", maxVer))
				n.downLink(l)
				return
			}
			if !n.recvBatch(p, l, data[1:]) {
				return
			}
			continue
		}
		if data[0] == frameKindPull {
			if err := n.cfg.Handler.Deliver(p.id, l.peer, true, nil); err != nil {
				n.fail(fmt.Errorf("livenet: node %d: pull from %d: %w", p.id, l.peer, err))
				return
			}
			continue
		}
		payload := data[1:]
		var seq, msgClock uint64
		var weight float64
		causal := data[0] == frameKindCausal
		if causal {
			if len(payload) < causalHeaderLen {
				if !n.noteDecodeError(p, l, fmt.Errorf("livenet: causal frame of %d bytes is shorter than its header", len(data))) {
					return
				}
				continue
			}
			seq = binary.LittleEndian.Uint64(payload[:8])
			msgClock = binary.LittleEndian.Uint64(payload[8:16])
			weight = math.Float64frombits(binary.LittleEndian.Uint64(payload[16:24]))
			payload = payload[causalHeaderLen:]
		}
		cls, err := wire.UnmarshalClassificationLimit(payload, n.cfg.DecodeMax)
		if err != nil {
			if !n.noteDecodeError(p, l, err) {
				return
			}
			if errors.Is(err, wire.ErrVersion) {
				// A peer speaking a newer format will keep speaking it:
				// down this link only, the rest of the net keeps running.
				n.downLink(l)
				return
			}
			continue // skip the frame, keep the link
		}
		if !n.deliverData(p, l, cls, causal, seq, msgClock, weight) {
			return
		}
	}
}

// recvBatch decodes one batch frame: per message an optional causal
// header plus a self-delimiting wire payload, delivered in order. A
// malformed message abandons the rest of the frame after one
// attributed decode error (boundaries past a bad payload are
// unknowable); a version rejection additionally downs the link. The
// return mirrors the receive loop's convention: false stops the loop.
func (n *Net) recvBatch(p *peer, l *link, payload []byte) bool {
	if len(payload) < batchHeaderLen {
		return n.noteDecodeError(p, l, fmt.Errorf("livenet: batch frame of %d bytes is shorter than its header", 1+len(payload)))
	}
	causal := payload[0]&batchFlagCausal != 0
	count := int(binary.LittleEndian.Uint16(payload[1:batchHeaderLen]))
	rest := payload[batchHeaderLen:]
	for i := 0; i < count; i++ {
		var seq, msgClock uint64
		var weight float64
		if causal {
			if len(rest) < causalHeaderLen {
				return n.noteDecodeError(p, l, fmt.Errorf("livenet: batch message %d of %d truncated in its causal header", i, count))
			}
			seq = binary.LittleEndian.Uint64(rest[:8])
			msgClock = binary.LittleEndian.Uint64(rest[8:16])
			weight = math.Float64frombits(binary.LittleEndian.Uint64(rest[16:24]))
			rest = rest[causalHeaderLen:]
		}
		cls, used, err := wire.UnmarshalNext(rest, n.cfg.DecodeMax)
		if err != nil {
			if !n.noteDecodeError(p, l, err) {
				return false
			}
			if errors.Is(err, wire.ErrVersion) {
				n.downLink(l)
				return false
			}
			return true
		}
		rest = rest[used:]
		if !n.deliverData(p, l, cls, causal, seq, msgClock, weight) {
			return false
		}
	}
	if len(rest) != 0 {
		return n.noteDecodeError(p, l, fmt.Errorf("livenet: %d trailing bytes after %d batched messages", len(rest), count))
	}
	return true
}

// deliverData hands one decoded data message to the protocol layer and
// does the per-message receive accounting — identical for plain,
// causal and batched frames. False stops the calling receive loop.
func (n *Net) deliverData(p *peer, l *link, cls core.Classification, causal bool, seq, msgClock uint64, weight float64) bool {
	start := time.Now()
	if err := n.cfg.Handler.Deliver(p.id, l.peer, false, cls); err != nil {
		n.fail(fmt.Errorf("livenet: node %d: deliver: %w", p.id, err))
		return false
	}
	n.hAbsorb.Observe(time.Since(start).Seconds())
	n.recv.Inc()
	p.recv.Inc()
	p.lastRecv.Set(float64(n.recvSeq.Add(1)))
	if n.sink != nil {
		ev := trace.Event{
			Round: -1, Node: p.id, Kind: trace.KindReceive,
			Value: float64(len(cls)),
		}
		if causal {
			ev.Seq, ev.Peer, ev.Weight = seq, l.peer, weight
			ev.Clock = trace.MergeClock(&p.clock, msgClock)
		}
		_ = n.sink.Record(ev)
	}
	return true
}

// noteDecodeError does the decode-error accounting for one bad frame,
// reporting whether the receive loop should keep going (false once the
// strict threshold is reached).
func (n *Net) noteDecodeError(p *peer, l *link, err error) bool {
	n.decErr.Inc()
	p.decErr.Inc()
	// Per-peer attribution: a single misbehaving sender shows up as one
	// hot counter rather than a diffuse aggregate. Created on first
	// error so healthy runs add no registry entries.
	n.reg.Counter(fmt.Sprintf("livenet.node.%d.decode_errors.from.%d", p.id, l.peer)).Inc()
	if n.sink != nil {
		_ = n.sink.Record(trace.Event{Round: -1, Node: p.id, Kind: trace.KindDecodeError})
	}
	if t := n.cfg.FailOnDecodeErrors; t > 0 && n.decErr.Value() >= int64(t) {
		n.fail(fmt.Errorf("livenet: node %d: decode from %d: %w (strict threshold %d reached)",
			p.id, l.peer, err, t))
		return false
	}
	return true
}

// Kill tears down node i's transport: its link goroutines stop and its
// links close (surviving neighbors observe a downed link and route
// around it). The caller (the engine) must have stopped producing
// frames for i before calling Kill; queued frames are returned through
// Handler.Undeliverable during teardown. Killing a dead node or an
// out-of-range id is an error.
func (n *Net) Kill(i int) error {
	if i < 0 || i >= len(n.peers) {
		return fmt.Errorf("livenet: Kill(%d): no such node", i)
	}
	n.churnMu.Lock()
	defer n.churnMu.Unlock()
	if n.stopped.Load() {
		return errors.New("livenet: Kill on a stopped net")
	}
	p := n.peers[i]
	if !p.alive.Load() {
		return fmt.Errorf("livenet: node %d is already dead", i)
	}
	p.alive.Store(false)
	p.cancel()
	p.linksMu.Lock()
	links := p.links
	p.links = nil
	p.linksMu.Unlock()
	for _, l := range links {
		n.dropLink(l)
	}
	p.wg.Wait()
	return nil
}

// Restart re-establishes a killed node's transport: new links to every
// currently alive neighbor, new writer/receiver goroutines. The dead
// endpoints its neighbors still held are retired in the same stroke.
// Restarting an alive node is an error.
func (n *Net) Restart(i int) error {
	if i < 0 || i >= len(n.peers) {
		return fmt.Errorf("livenet: Restart(%d): no such node", i)
	}
	n.churnMu.Lock()
	defer n.churnMu.Unlock()
	if n.stopped.Load() {
		return errors.New("livenet: Restart on a stopped net")
	}
	p := n.peers[i]
	if p.alive.Load() {
		return fmt.Errorf("livenet: node %d is already alive", i)
	}
	p.ctx, p.cancel = context.WithCancel(n.ctx)
	for _, j := range n.graph.Neighbors(i) {
		q := n.peers[j]
		if !q.alive.Load() {
			continue
		}
		ci, cj, err := n.dial()
		if err != nil {
			// Undo the partial relink: close what this restart created
			// and leave the node dead. Neighbor endpoints already
			// attached observe the closed conns and down themselves.
			p.cancel()
			p.linksMu.Lock()
			links := p.links
			p.links = nil
			p.linksMu.Unlock()
			for _, l := range links {
				n.dropLink(l)
			}
			return fmt.Errorf("livenet: relinking %d-%d: %w", i, j, err)
		}
		li := newLink(j, ci, n.cfg.SendQueue)
		p.linksMu.Lock()
		p.links = append(p.links, li)
		p.linksMu.Unlock()
		// Replace the neighbor's dead endpoint (if still held) with the
		// fresh one.
		lj := newLink(i, cj, n.cfg.SendQueue)
		var retired []*link
		q.linksMu.Lock()
		kept := q.links[:0]
		for _, old := range q.links {
			if old.peer == i {
				retired = append(retired, old)
			} else {
				kept = append(kept, old)
			}
		}
		q.links = append(kept, lj)
		q.linksMu.Unlock()
		for _, old := range retired {
			n.dropLink(old)
		}
		n.startLink(q, lj)
	}
	n.startPeer(p)
	p.alive.Store(true)
	return nil
}

// Alive reports whether node i's transport is currently up.
func (n *Net) Alive(i int) bool { return n.peers[i].alive.Load() }

func (n *Net) fail(err error) {
	n.errOnce.Do(func() { n.firstE.Store(err) })
}

// Err returns the first internal error observed, or nil. Link faults,
// refused sends and (by default) decode errors are not errors — they
// are counted and traced instead; see DESIGN.md §10.
func (n *Net) Err() error {
	if e, ok := n.firstE.Load().(error); ok {
		return e
	}
	return nil
}

// N returns the number of nodes.
func (n *Net) N() int { return len(n.peers) }

// MessagesSent returns the number of logical messages —
// classifications and pull requests — fully written to the wire so
// far. With batching several messages share one physical frame (see
// FramesSent / BytesSent for the frame-level view); without it the two
// counts coincide. Messages refused at a full queue (SendDrops) are
// not sent.
func (n *Net) MessagesSent() int64 { return n.sent.Value() }

// MessagesReceived returns the number of classifications decoded and
// delivered so far — logical messages, so a batch frame counts once
// per message it carried. After Stop on pipe transport it equals the
// number of classifications written: the synchronous pipes hand every
// fully written frame to the receiver.
func (n *Net) MessagesReceived() int64 { return n.recv.Value() }

// FramesSent returns the number of physical frames written to the
// wire — the syscall-level count batching exists to shrink.
func (n *Net) FramesSent() int64 { return n.framesSent.Value() }

// BytesSent returns the total bytes written to the wire, length
// prefixes and batch headers included.
func (n *Net) BytesSent() int64 { return n.bytesSent.Value() }

// DecodeErrors returns the number of frames that failed to decode.
func (n *Net) DecodeErrors() int64 { return n.decErr.Value() }

// SendDrops returns the number of send opportunities refused at full
// outbound queues — backpressure, not loss.
func (n *Net) SendDrops() int64 { return n.drops.Value() }

// Metrics returns the net's registry — the one passed in
// NetConfig.Metrics, or the private registry created in its absence.
func (n *Net) Metrics() *metrics.Registry { return n.reg }

// drainTimeout bounds Stop's graceful flush of queued frames: long
// enough for healthy receivers to absorb everything in flight, short
// enough that a genuinely stalled peer cannot hold Stop hostage.
const drainTimeout = 500 * time.Millisecond

// Stop shuts the net down: writers get a bounded window to flush
// queued frames into still-open connections (conserving the split
// weight those frames carry), write sides are half-closed so receivers
// drain what the kernel still buffers (on TCP a full close would
// discard it) and exit on EOF, then connections are closed outright
// (unblocking anything still stuck), the TCP listener (if any)
// released, and all goroutines joined. The engine must have stopped
// producing frames first. Safe to call more than once.
func (n *Net) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	n.cancel()
	n.churnMu.Lock() // let an in-flight Kill/Restart finish first
	defer n.churnMu.Unlock()
	deadline := time.Now().Add(drainTimeout)
	for !n.queuesEmpty() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	n.forEachLink(func(l *link) {
		if cw, ok := l.conn.(interface{ CloseWrite() error }); ok {
			_ = cw.CloseWrite()
		} else {
			// Synchronous pipes buffer nothing: every fully written frame
			// is already delivered, so an outright close loses none.
			l.shut()
		}
	})
	// Give receivers a bounded window to reach EOF before the hard
	// close, so a stalled peer cannot hold Stop hostage.
	drained := make(chan struct{})
	//lint:allow gorolifecycle bounded by the per-peer WaitGroups: it signals drained and returns
	go func() {
		for _, p := range n.peers {
			p.wg.Wait()
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
	}
	n.forEachLink(func(l *link) { l.shut() })
	if n.closeLinker != nil {
		n.closeLinker()
	}
	for _, p := range n.peers {
		p.wg.Wait()
	}
}

// forEachLink applies fn to every link endpoint currently on the books.
func (n *Net) forEachLink(fn func(*link)) {
	for _, p := range n.peers {
		p.linksMu.Lock()
		links := append([]*link(nil), p.links...)
		p.linksMu.Unlock()
		for _, l := range links {
			fn(l)
		}
	}
}

// queuesEmpty reports whether every live link is fully quiescent: no
// queued frames and none held mid-write by its writer.
func (n *Net) queuesEmpty() bool {
	for _, p := range n.peers {
		p.linksMu.Lock()
		for _, l := range p.links {
			if !l.down.Load() && l.pending.Load() > 0 {
				p.linksMu.Unlock()
				return false
			}
		}
		p.linksMu.Unlock()
	}
	return true
}

// pipeLink returns the two ends of an in-process synchronous pipe.
func pipeLink() (net.Conn, net.Conn, error) {
	a, b := net.Pipe()
	return a, b, nil
}

// newTCPLinker opens a loopback listener and returns a dial function
// producing connected TCP pairs, plus a closer for the listener.
func newTCPLinker() (closer func(), dial func() (net.Conn, net.Conn, error), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	dial = func() (net.Conn, net.Conn, error) {
		type accepted struct {
			conn net.Conn
			err  error
		}
		ch := make(chan accepted, 1)
		//lint:allow gorolifecycle one buffered Accept, unblocked by closing ln; never outlives the dial
		go func() {
			conn, err := ln.Accept()
			ch <- accepted{conn, err}
		}()
		client, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, nil, err
		}
		srv := <-ch
		if srv.err != nil {
			_ = client.Close()
			return nil, nil, srv.err
		}
		return client, srv.conn, nil
	}
	return func() { _ = ln.Close() }, dial, nil
}

// writeFrame writes a u32 length prefix and the payload as one Write:
// a single syscall on TCP, and — more importantly — no window where a
// connection closing between header and payload leaves the peer a torn
// frame that reads as a confusing mid-frame EOF instead of a clean
// shutdown.
func writeFrame(w io.Writer, data []byte) error {
	if len(data) > MaxFrame {
		return fmt.Errorf("livenet: frame of %d bytes exceeds limit", len(data))
	}
	buf := make([]byte, 4+len(data))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(data)))
	copy(buf[4:], data)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("livenet: peer announced %d-byte frame", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	return data, nil
}
