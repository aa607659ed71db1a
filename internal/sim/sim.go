// Package sim simulates the paper's network model (§3.1): n nodes on a
// static connected topology, linked by reliable asynchronous channels.
// It offers two drivers:
//
//   - Network.Round — the synchronous round model the evaluation uses
//     (§5.3): in each round every alive node sends one message to one
//     neighbor, and every node that received messages processes its
//     whole inbox as one batch. Optional crash injection (Figure 4)
//     kills each node with a fixed probability after every round.
//   - Async — a fully asynchronous event driver with per-channel FIFO
//     queues: each step either delivers the head of a random non-empty
//     channel or lets a random node send. Uniform random choice gives
//     probabilistic fairness, exercising the §6 convergence claims
//     under arbitrary interleavings.
//
// The drivers are generic over the message type M; any protocol that can
// emit and receive Ms (the classification algorithm, push-sum,
// histogram gossip) plugs in through the Agent interface.
package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"distclass/internal/metrics"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// Agent is a protocol participant.
type Agent[M any] interface {
	// Emit produces the message for one send opportunity. ok reports
	// whether there is anything to send (a false skips the send without
	// consuming the opportunity's effects).
	//
	// In push mode without Options.Trace the round driver calls Emit
	// ahead of routing, concurrently for distinct agents, once per
	// round on every alive node that has a neighbor. Like Receive, Emit
	// may then touch only its own agent's state and concurrency-safe
	// shared state, and must not depend on the order of other agents'
	// emits.
	Emit() (msg M, ok bool)
	// Receive consumes a batch of delivered messages. The round driver
	// passes a node's entire inbox at once; the async driver passes
	// single messages. Implementations must not retain batch beyond the
	// call: the round driver reuses its inbox slices every round.
	//
	// Within a round the round driver runs Receive concurrently for
	// distinct agents unless Options.Trace is set, so Receive may touch
	// only its own agent's state and concurrency-safe shared state.
	// An agent that writes to a shared sink where order matters must
	// pass that sink as Options.Trace, which makes delivery serial.
	Receive(batch []M) error
}

// Policy selects the neighbor a node sends to.
type Policy int

// Supported gossip policies.
const (
	// PushRandom sends to a uniformly random neighbor each opportunity.
	PushRandom Policy = iota
	// RoundRobin cycles deterministically through the neighbor list,
	// the paper's example of a fair selection rule.
	RoundRobin
)

func (p Policy) String() string {
	switch p {
	case PushRandom:
		return "push-random"
	case RoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Mode selects the gossip communication pattern (§4.1: a node "may
// choose a random neighbor and send data to it (push), or ask it for
// data (pull), or perform a bilateral exchange (push-pull)").
type Mode int

// Supported gossip modes.
const (
	// ModePush sends the node's split half to the chosen neighbor.
	ModePush Mode = iota
	// ModePull asks the chosen neighbor, which splits and sends back.
	ModePull
	// ModePushPull performs a bilateral exchange: both halves cross.
	ModePushPull
)

func (m Mode) String() string {
	switch m {
	case ModePush:
		return "push"
	case ModePull:
		return "pull"
	case ModePushPull:
		return "push-pull"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Options configure a driver.
type Options[M any] struct {
	// Policy selects neighbor choice (default PushRandom).
	Policy Policy
	// Mode selects the gossip pattern (default ModePush).
	Mode Mode
	// CrashProb is the per-node probability of crashing after each
	// round (round driver only). Zero disables crashes.
	CrashProb float64
	// DropProb is the probability that any sent message is silently
	// lost (round driver only). The paper's model assumes reliable
	// channels; this knob deliberately violates that assumption so the
	// loss ablation can measure how much the algorithm degrades — lost
	// messages destroy weight exactly like crashed receivers.
	DropProb float64
	// SizeFunc, when set, measures each sent message; the driver
	// accumulates the total in Stats.PayloadSize.
	SizeFunc func(M) int
	// Metrics, when non-nil, receives the driver's traffic counters
	// (sim.rounds, sim.steps, sim.messages_sent, sim.messages_dropped,
	// sim.payload, sim.crashes). The registry aggregates: drivers
	// sharing one registry add into the same counters, while each
	// driver's Stats stays scoped to that driver alone.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives typed driver events: send/receive
	// per message and crash per killed node, all with real round (or
	// step) numbers.
	Trace trace.Sink
	// Causal stamps send/receive trace events with per-message
	// correlation metadata — per-sender sequence number, peer id,
	// Lamport clock and carried weight (trace.SchemaCausal) — and
	// switches the round driver to one receive event per delivered
	// message instead of one per inbox batch, so every send matches
	// exactly one receive. No-op without Trace.
	Causal bool
	// WeightFunc measures the classification weight a message moves,
	// for causal events' Weight field (the quantity the provenance
	// ledger downstream conserves). Nil records zero weights.
	WeightFunc func(M) float64
}

// causalState holds the per-node Lamport clocks and send sequence
// counters of a causal-tracing run (Options.Causal). The sim drivers
// stamp on one goroutine (causal stamps need a trace sink, and a trace
// sink makes round delivery serial), so plain slices suffice; the
// concurrent transports keep their own atomic counters.
type causalState struct {
	seq   []uint64
	clock []uint64
}

func newCausalState(n int) *causalState {
	return &causalState{seq: make([]uint64, n), clock: make([]uint64, n)}
}

// stampSend ticks src's clock, assigns the next sequence number and
// returns both — the identity and timestamp the message carries.
func (cz *causalState) stampSend(src int) (seq, clock uint64) {
	cz.seq[src]++
	cz.clock[src]++
	return cz.seq[src], cz.clock[src]
}

// stampReceive applies the Lamport merge rule at dst for a message
// stamped with msgClock and returns dst's updated clock.
func (cz *causalState) stampReceive(dst int, msgClock uint64) uint64 {
	if msgClock > cz.clock[dst] {
		cz.clock[dst] = msgClock
	}
	cz.clock[dst]++
	return cz.clock[dst]
}

// msgMeta is the causal metadata riding alongside one queued message.
type msgMeta struct {
	src    int
	seq    uint64
	clock  uint64
	weight float64
}

// weightOf applies fn to msg, tolerating a nil WeightFunc.
func weightOf[M any](fn func(M) float64, msg M) float64 {
	if fn == nil {
		return 0
	}
	return fn(msg)
}

// Stats is a point-in-time view of this driver's traffic counters.
// The counts are per-driver even when Options.Metrics is shared across
// drivers: the registry aggregates, Stats does not.
type Stats struct {
	// Rounds is the number of completed rounds (round driver) .
	Rounds int
	// Steps is the number of executed events (async driver).
	Steps int
	// MessagesSent counts sent messages, including those dropped at
	// crashed destinations.
	MessagesSent int
	// MessagesDropped counts messages addressed to crashed nodes, lost
	// to DropProb, or in an inbox whose Receive failed.
	MessagesDropped int
	// PayloadSize accumulates SizeFunc over sent messages.
	PayloadSize int
	// Crashes counts nodes killed by crash injection.
	Crashes int
}

// counters holds the driver's own Stats and mirrors every increment
// into the (possibly shared) registry. The local fields keep Stats and
// trace round numbers scoped to one driver — a registry shared across
// sequential runs (the experiments harness does this) aggregates
// without bleeding one run's totals into the next. Caching the
// registry counters also keeps the per-round hot path off the registry
// lock.
type counters struct {
	local                                          Stats
	rounds, steps, sent, dropped, payload, crashes *metrics.Counter
}

func newCounters(reg *metrics.Registry) counters {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return counters{
		rounds:  reg.Counter("sim.rounds"),
		steps:   reg.Counter("sim.steps"),
		sent:    reg.Counter("sim.messages_sent"),
		dropped: reg.Counter("sim.messages_dropped"),
		payload: reg.Counter("sim.payload"),
		crashes: reg.Counter("sim.crashes"),
	}
}

func (c *counters) incRound()        { c.local.Rounds++; c.rounds.Inc() }
func (c *counters) incStep()         { c.local.Steps++; c.steps.Inc() }
func (c *counters) incSent()         { c.local.MessagesSent++; c.sent.Inc() }
func (c *counters) incDropped()      { c.addDropped(1) }
func (c *counters) addDropped(n int) { c.local.MessagesDropped += n; c.dropped.Add(int64(n)) }
func (c *counters) incCrash()        { c.local.Crashes++; c.crashes.Inc() }
func (c *counters) addPayload(n int) { c.local.PayloadSize += n; c.payload.Add(int64(n)) }

func (c *counters) stats() Stats { return c.local }

// Network is the synchronous round driver.
type Network[M any] struct {
	graph  *topology.Graph
	agents []Agent[M]
	r      *rng.RNG
	opts   Options[M]
	alive  []bool
	rr     []int // round-robin cursor per node
	c      counters
	cz     *causalState // non-nil iff Options.Causal

	// inbox[i] collects node i's deliveries within a round; meta mirrors
	// it with per-message causal metadata (causal mode only), so
	// meta[i][j] describes inbox[i][j]. Both are emptied as they are
	// delivered and keep their capacity, so a warm round allocates
	// nothing per node.
	inbox [][]M
	meta  [][]msgMeta

	// out/ok hold each node's emit-ahead result for the route stage
	// (push mode without a trace sink), and route lists the round's
	// transfers in send order for the scatter stage. All three keep
	// their capacity across rounds and are cleared once read, so they
	// pin no message between rounds.
	out   []M
	ok    []bool
	route []routed[M]
}

// routed is one transfer that survived the drop checks: msg goes to
// inbox[dst].
type routed[M any] struct {
	msg M
	dst int
}

// NewNetwork builds a round driver over the graph; agents[i] runs on
// graph node i.
func NewNetwork[M any](g *topology.Graph, agents []Agent[M], r *rng.RNG, opts Options[M]) (*Network[M], error) {
	if g == nil {
		return nil, errors.New("sim: nil graph")
	}
	if len(agents) != g.N() {
		return nil, fmt.Errorf("sim: %d agents for %d nodes", len(agents), g.N())
	}
	for i, a := range agents {
		if a == nil {
			return nil, fmt.Errorf("sim: agent %d is nil", i)
		}
	}
	if r == nil {
		return nil, errors.New("sim: nil rng")
	}
	if opts.CrashProb < 0 || opts.CrashProb >= 1 {
		return nil, fmt.Errorf("sim: crash probability %v outside [0, 1)", opts.CrashProb)
	}
	if opts.DropProb < 0 || opts.DropProb >= 1 {
		return nil, fmt.Errorf("sim: drop probability %v outside [0, 1)", opts.DropProb)
	}
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	n := &Network[M]{
		graph:  g,
		agents: agents,
		r:      r,
		opts:   opts,
		alive:  alive,
		rr:     make([]int, g.N()),
		c:      newCounters(opts.Metrics),
		inbox:  make([][]M, g.N()),
		out:    make([]M, g.N()),
		ok:     make([]bool, g.N()),
	}
	if opts.Causal {
		n.cz = newCausalState(g.N())
		n.meta = make([][]msgMeta, g.N())
	}
	return n, nil
}

// Alive reports whether node i is alive.
func (n *Network[M]) Alive(i int) bool { return n.alive[i] }

// Kill crashes node i fail-stop between rounds — the explicit-churn
// counterpart of CrashProb. In the round model there are no messages in
// flight between rounds, so only the node's own state is lost. Killing
// a dead node is a no-op so churn layers can apply it blindly.
func (n *Network[M]) Kill(i int) {
	if i < 0 || i >= len(n.alive) || !n.alive[i] {
		return
	}
	n.alive[i] = false
	n.c.incCrash()
	if n.opts.Trace != nil {
		_ = n.opts.Trace.Record(trace.Event{Round: n.c.local.Rounds, Node: i, Kind: trace.KindCrash})
	}
}

// AliveCount returns the number of alive nodes.
func (n *Network[M]) AliveCount() int {
	c := 0
	for _, a := range n.alive {
		if a {
			c++
		}
	}
	return c
}

// Stats returns a snapshot of the accumulated counters.
func (n *Network[M]) Stats() Stats { return n.c.stats() }

// pickNeighbor chooses the destination for node i under the policy.
func pickNeighbor(g *topology.Graph, i int, policy Policy, rr []int, r *rng.RNG) (int, bool) {
	d := g.Degree(i)
	if d == 0 {
		return 0, false
	}
	switch policy {
	case RoundRobin:
		dst := g.Neighbor(i, rr[i]%d)
		rr[i]++
		return dst, true
	default:
		return g.Neighbor(i, r.IntN(d)), true
	}
}

// Round executes one synchronous round: every alive node takes one
// gossip action with one neighbor — a push, a pull, or a bilateral
// exchange per Options.Mode; every alive node then processes its inbox
// as a single batch; finally crash injection runs. Messages to crashed
// nodes are dropped, and pulls from crashed nodes return nothing
// (their weight is lost — exactly the failure mode Figure 4 studies).
//
// The send half runs in three stages. Emit-ahead (push mode without a
// trace sink) calls every sender's Emit on several workers; route walks
// the nodes in order on the calling goroutine, since it draws from the
// driver's RNG, and lists each transfer; scatter appends the listed
// messages to their inboxes on several workers, each owning a range of
// destinations. Delivery then runs on several workers (deliverAll) and
// crash injection on the calling goroutine.
func (n *Network[M]) Round() error {
	round := n.c.local.Rounds
	workers := runtime.GOMAXPROCS(0)
	if n.opts.Trace != nil {
		workers = 1
	}
	// Emit-ahead needs each agent to emit at most once per round, from
	// a sender the RNG does not choose, and no split event to interleave
	// with send events: push mode without a trace sink. Emit draws no
	// randomness and every Emit of a round precedes every Receive, so
	// agent state ends up exactly as with inline emits.
	ahead := n.opts.Mode == ModePush && n.opts.Trace == nil
	if ahead {
		prof.Phase("sim.emit", func() { n.emitAll(workers) })
	}
	// transfer moves one split half from src to dst.
	transfer := func(src, dst int) {
		msg, ok := n.out[src], n.ok[src]
		if !ahead {
			msg, ok = n.agents[src].Emit()
		}
		if !ok {
			return
		}
		n.c.incSent()
		if n.opts.SizeFunc != nil {
			n.c.addPayload(n.opts.SizeFunc(msg))
		}
		var m msgMeta
		if n.cz != nil {
			m = msgMeta{src: src, weight: weightOf(n.opts.WeightFunc, msg)}
			m.seq, m.clock = n.cz.stampSend(src)
		}
		if n.opts.Trace != nil {
			ev := trace.Event{Round: round, Node: src, Kind: trace.KindSend}
			if n.cz != nil {
				// Causal fields only in causal mode: pre-causal goldens
				// stay byte-identical.
				ev.Seq, ev.Peer, ev.Clock, ev.Weight = m.seq, dst, m.clock, m.weight
			}
			_ = n.opts.Trace.Record(ev)
		}
		if !n.alive[dst] || (n.opts.DropProb > 0 && n.r.Bool(n.opts.DropProb)) {
			n.c.incDropped()
			return
		}
		n.route = append(n.route, routed[M]{msg: msg, dst: dst})
		if n.cz != nil {
			// Causal mode has a trace sink, so scatter runs on one
			// worker in route order and meta[dst] stays aligned with
			// inbox[dst].
			n.meta[dst] = append(n.meta[dst], m)
		}
	}
	prof.Phase("sim.send", func() {
		for i := range n.agents {
			if !n.alive[i] {
				continue
			}
			peer, ok := pickNeighbor(n.graph, i, n.opts.Policy, n.rr, n.r)
			if !ok {
				continue
			}
			switch n.opts.Mode {
			case ModePull:
				if n.alive[peer] {
					transfer(peer, i)
				}
			case ModePushPull:
				transfer(i, peer)
				if n.alive[peer] {
					transfer(peer, i)
				}
			default: // ModePush
				transfer(i, peer)
			}
		}
		if ahead {
			clear(n.out)
		}
	})
	prof.Phase("sim.scatter", func() { n.scatter(workers) })
	if err := prof.PhaseErr("sim.deliver", func() error { return n.deliverAll(round, workers) }); err != nil {
		return err
	}
	if n.opts.CrashProb > 0 {
		prof.Phase("sim.crash", func() {
			for i := range n.alive {
				if n.alive[i] && n.r.Bool(n.opts.CrashProb) {
					n.alive[i] = false
					n.c.incCrash()
					if n.opts.Trace != nil {
						_ = n.opts.Trace.Record(trace.Event{Round: round, Node: i, Kind: trace.KindCrash})
					}
				}
			}
		})
	}
	n.c.incRound()
	return nil
}

// workChunk is the number of consecutive nodes a worker claims at a
// time in the emit and deliver stages: enough that the shared cursor
// is touched rarely, few enough that the workers finish within one
// chunk of each other.
const workChunk = 32

// runWorkers runs work(0), …, work(workers-1) concurrently, work(0) on
// the calling goroutine, and returns once every one has returned.
func runWorkers(workers int, work func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// forEachNode calls fn(i) once for every node on workers goroutines,
// which claim workChunk nodes at a time from a shared cursor.
func (n *Network[M]) forEachNode(workers int, fn func(i int)) {
	var cursor atomic.Int64
	runWorkers(workers, func(int) {
		for {
			hi := int(cursor.Add(workChunk))
			lo := hi - workChunk
			if lo >= len(n.agents) {
				return
			}
			for i := lo; i < min(hi, len(n.agents)); i++ {
				fn(i)
			}
		}
	})
}

// emitAll calls Emit for every alive node that has a neighbor — the
// nodes the push-mode route loop sends from — and parks the result in
// out/ok for the route stage. An Emit touches only its own agent, so
// the order of the calls does not show.
func (n *Network[M]) emitAll(workers int) {
	n.forEachNode(workers, func(i int) {
		if n.alive[i] && n.graph.Degree(i) > 0 {
			n.out[i], n.ok[i] = n.agents[i].Emit()
		}
	})
}

// scatter appends every routed message to its destination's inbox and
// empties the route list. Worker w owns one contiguous range of
// destinations and walks the whole list in order, so each inbox
// receives its messages in transfer order whatever the worker count.
func (n *Network[M]) scatter(workers int) {
	runWorkers(workers, func(w int) {
		lo, hi := w*len(n.inbox)/workers, (w+1)*len(n.inbox)/workers
		for _, r := range n.route {
			if r.dst >= lo && r.dst < hi {
				n.inbox[r.dst] = append(n.inbox[r.dst], r.msg)
			}
		}
	})
	clear(n.route)
	n.route = n.route[:0]
}

// deliverAll hands every non-empty inbox to its agent and empties it.
// A Receive reads and writes only its own agent's state and inbox, so
// the workers share the inboxes and the result does not depend on
// which worker delivers which inbox. With a trace sink one worker
// delivers in node order: agents may record into the same sink from
// Receive, and the event order is part of the trace.
//
// A failed Receive does not stop delivery. Every other inbox is still
// delivered, the failed inbox's messages count as dropped (their
// weight is lost with them), and the error of the lowest-indexed
// failed node is returned, so the outcome is the same for any worker
// count and nothing resurfaces in a later round.
func (n *Network[M]) deliverAll(round, workers int) error {
	var (
		mu      sync.Mutex
		failed  = len(n.inbox) // lowest failed node; guarded by mu
		failErr error          // guarded by mu
		dropped int            // guarded by mu
	)
	n.forEachNode(workers, func(i int) {
		batch := n.inbox[i]
		if len(batch) == 0 {
			return
		}
		err := n.deliver(round, i, batch)
		n.emptyInbox(i)
		if err != nil {
			mu.Lock()
			dropped += len(batch)
			if i < failed {
				failed, failErr = i, err
			}
			mu.Unlock()
		}
	})
	n.c.addDropped(dropped)
	return failErr
}

// deliver hands node i its round inbox and records the receive events.
func (n *Network[M]) deliver(round, i int, batch []M) error {
	if !n.alive[i] {
		return nil
	}
	if err := n.agents[i].Receive(batch); err != nil {
		return fmt.Errorf("sim: node %d receive: %w", i, err)
	}
	if n.opts.Trace == nil {
		return nil
	}
	if n.cz == nil {
		_ = n.opts.Trace.Record(trace.Event{
			Round: round, Node: i, Kind: trace.KindReceive,
			Value: float64(len(batch)),
		})
		return nil
	}
	// Causal mode: one receive event per delivered message, in batch
	// order, each matching its send by (Peer, Seq). The Lamport merge
	// applies per message so a matched receive clock always exceeds its
	// send clock.
	for _, m := range n.meta[i] {
		_ = n.opts.Trace.Record(trace.Event{
			Round: round, Node: i, Kind: trace.KindReceive, Value: 1,
			Seq: m.seq, Peer: m.src, Clock: n.cz.stampReceive(i, m.clock), Weight: m.weight,
		})
	}
	return nil
}

// emptyInbox empties node i's inbox for the next round, keeping its
// capacity but dropping the message references so delivered messages
// can be collected.
func (n *Network[M]) emptyInbox(i int) {
	clear(n.inbox[i])
	n.inbox[i] = n.inbox[i][:0]
	if n.cz != nil {
		n.meta[i] = n.meta[i][:0]
	}
}

// RunRounds executes the given number of rounds, invoking after (when
// non-nil) at the end of each; returning a non-nil error from after
// stops the run early and is returned unless it is ErrStop.
func (n *Network[M]) RunRounds(rounds int, after func(round int) error) error {
	for round := 0; round < rounds; round++ {
		if err := n.Round(); err != nil {
			return err
		}
		if after != nil {
			if err := after(round); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// ErrStop tells RunRounds/RunSteps to halt early without error.
var ErrStop = errors.New("sim: stop")

// asyncMsg is one queued message with its causal metadata (meta fields
// are zero outside causal mode).
type asyncMsg[M any] struct {
	msg  M
	meta msgMeta
}

// Async is the fully asynchronous event driver.
type Async[M any] struct {
	graph  *topology.Graph
	agents []Agent[M]
	r      *rng.RNG
	opts   Options[M]
	queues map[[2]int][]asyncMsg[M] // FIFO per directed edge (src, dst)
	edges  [][2]int                 // directed edges with non-empty queues (keys of queues, maintained lazily)
	rr     []int
	alive  []bool
	c      counters
	cz     *causalState // non-nil iff Options.Causal
}

// NewAsync builds an async driver over the graph. The async driver has
// no probabilistic fault injection of its own: Options.CrashProb and
// Options.DropProb are round-driver features and are rejected here
// rather than silently ignored (crashes under the async model are
// driven explicitly through Kill).
func NewAsync[M any](g *topology.Graph, agents []Agent[M], r *rng.RNG, opts Options[M]) (*Async[M], error) {
	if g == nil {
		return nil, errors.New("sim: nil graph")
	}
	if len(agents) != g.N() {
		return nil, fmt.Errorf("sim: %d agents for %d nodes", len(agents), g.N())
	}
	for i, a := range agents {
		if a == nil {
			return nil, fmt.Errorf("sim: agent %d is nil", i)
		}
	}
	if r == nil {
		return nil, errors.New("sim: nil rng")
	}
	//lint:allow floatcmp zero means "feature unused"; any nonzero setting is an error
	if opts.CrashProb != 0 {
		return nil, fmt.Errorf("sim: async driver does not support CrashProb (got %v); use Kill for explicit crashes", opts.CrashProb)
	}
	//lint:allow floatcmp zero means "feature unused"; any nonzero setting is an error
	if opts.DropProb != 0 {
		return nil, fmt.Errorf("sim: async driver does not support DropProb (got %v)", opts.DropProb)
	}
	alive := make([]bool, g.N())
	for i := range alive {
		alive[i] = true
	}
	a := &Async[M]{
		graph:  g,
		agents: agents,
		r:      r,
		opts:   opts,
		queues: make(map[[2]int][]asyncMsg[M]),
		rr:     make([]int, g.N()),
		alive:  alive,
		c:      newCounters(opts.Metrics),
	}
	if opts.Causal {
		a.cz = newCausalState(g.N())
	}
	return a, nil
}

// Stats returns a snapshot of the accumulated counters.
func (a *Async[M]) Stats() Stats { return a.c.stats() }

// Alive reports whether node i is alive.
func (a *Async[M]) Alive(i int) bool { return a.alive[i] }

// AliveCount returns the number of alive nodes.
func (a *Async[M]) AliveCount() int {
	c := 0
	for _, ok := range a.alive {
		if ok {
			c++
		}
	}
	return c
}

// Kill crashes node i fail-stop: it takes no further send opportunities,
// messages queued to or from it are discarded (counted as dropped — the
// weight they carry is destroyed, exactly the Figure 4 failure model),
// and future sends to it are dropped. The discarded in-flight messages
// are returned so callers can account the weight they carried. Killing
// a dead node is a no-op so probabilistic churn layers can apply it
// blindly.
func (a *Async[M]) Kill(i int) []M {
	if i < 0 || i >= len(a.alive) || !a.alive[i] {
		return nil
	}
	a.alive[i] = false
	a.c.incCrash()
	// Collect the dead node's edges and discard in sorted order: the
	// returned slice feeds float accumulations (destroyed-weight sums)
	// whose result depends on addition order, so map order must not
	// leak into it.
	var dead [][2]int
	for e, q := range a.queues {
		if (e[0] == i || e[1] == i) && len(q) > 0 {
			dead = append(dead, e)
		}
	}
	sort.Slice(dead, func(x, y int) bool {
		if dead[x][0] != dead[y][0] {
			return dead[x][0] < dead[y][0]
		}
		return dead[x][1] < dead[y][1]
	})
	var discarded []M
	for _, e := range dead {
		for _, qm := range a.queues[e] {
			a.c.incDropped()
			discarded = append(discarded, qm.msg)
		}
		delete(a.queues, e)
	}
	if a.opts.Trace != nil {
		_ = a.opts.Trace.Record(trace.Event{Round: a.c.local.Steps, Node: i, Kind: trace.KindCrash})
	}
	return discarded
}

// ForEachQueued calls fn for every queued undelivered message, in
// unspecified order — for accounting reductions (e.g. summing the
// weight in flight) whose result is order-independent.
func (a *Async[M]) ForEachQueued(fn func(M)) {
	for _, q := range a.queues {
		for _, qm := range q {
			fn(qm.msg)
		}
	}
}

// InFlight returns the number of queued (sent, undelivered) messages.
func (a *Async[M]) InFlight() int {
	c := 0
	for _, q := range a.queues {
		c += len(q)
	}
	return c
}

// Step executes one event. With probability proportional to the number
// of enabled actions it either delivers the head of a random non-empty
// channel (preserving per-channel FIFO order, as the model's reliable
// links require) or gives a random node a send opportunity.
func (a *Async[M]) Step() error {
	nonEmpty := a.edges[:0]
	for e, q := range a.queues {
		if len(q) > 0 {
			//lint:allow mapiter pickStableEdge re-sorts the edge list before any index is used
			nonEmpty = append(nonEmpty, e)
		}
	}
	a.edges = nonEmpty
	sends := a.graph.N()
	total := sends + len(nonEmpty)
	choice := a.r.IntN(total)
	step := a.c.local.Steps
	a.c.incStep()
	if choice < sends {
		self := choice
		if !a.alive[self] {
			return nil
		}
		peer, ok := pickNeighbor(a.graph, self, a.opts.Policy, a.rr, a.r)
		if !ok {
			return nil
		}
		enqueue := func(src, dst int) {
			if !a.alive[src] {
				// A pull from (or exchange with) a crashed peer returns
				// nothing — the round driver's failure semantics.
				return
			}
			msg, ok := a.agents[src].Emit()
			if !ok {
				return
			}
			a.c.incSent()
			if a.opts.SizeFunc != nil {
				a.c.addPayload(a.opts.SizeFunc(msg))
			}
			var m msgMeta
			if a.cz != nil {
				m = msgMeta{src: src, weight: weightOf(a.opts.WeightFunc, msg)}
				m.seq, m.clock = a.cz.stampSend(src)
			}
			if a.opts.Trace != nil {
				ev := trace.Event{Round: step, Node: src, Kind: trace.KindSend}
				if a.cz != nil {
					ev.Seq, ev.Peer, ev.Clock, ev.Weight = m.seq, dst, m.clock, m.weight
				}
				_ = a.opts.Trace.Record(ev)
			}
			if !a.alive[dst] {
				// The emitted half was addressed to a crashed node: its
				// weight is destroyed, like a message in flight to a dead
				// receiver.
				a.c.incDropped()
				return
			}
			key := [2]int{src, dst}
			a.queues[key] = append(a.queues[key], asyncMsg[M]{msg: msg, meta: m})
		}
		switch a.opts.Mode {
		case ModePull:
			enqueue(peer, self)
		case ModePushPull:
			enqueue(self, peer)
			enqueue(peer, self)
		default:
			enqueue(self, peer)
		}
		return nil
	}
	// Deterministic order within the map iteration is not guaranteed,
	// but the edge list was rebuilt this step and indexed by the RNG, so
	// runs are reproducible only per (seed, map order). Sort-free
	// determinism matters for tests, so pick by stable order.
	e := pickStableEdge(nonEmpty, choice-sends)
	q := a.queues[e]
	qm := q[0]
	a.queues[e] = q[1:]
	if err := a.agents[e[1]].Receive([]M{qm.msg}); err != nil {
		return fmt.Errorf("sim: node %d receive: %w", e[1], err)
	}
	if a.opts.Trace != nil {
		ev := trace.Event{Round: step, Node: e[1], Kind: trace.KindReceive, Value: 1}
		if a.cz != nil {
			ev.Seq, ev.Peer, ev.Weight = qm.meta.seq, qm.meta.src, qm.meta.weight
			ev.Clock = a.cz.stampReceive(e[1], qm.meta.clock)
		}
		_ = a.opts.Trace.Record(ev)
	}
	return nil
}

// pickStableEdge selects the idx'th edge under a canonical ordering so
// that runs are reproducible regardless of map iteration order.
func pickStableEdge(edges [][2]int, idx int) [2]int {
	// Sorting in place is safe: the caller rebuilds the list from the
	// queue map every step, and map keys are unique, so the canonical
	// order (and hence the chosen edge) is independent of input order.
	sort.Slice(edges, func(i, j int) bool { return edgeLess(edges[i], edges[j]) })
	return edges[idx]
}

func edgeLess(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// RunSteps executes the given number of events, invoking after (when
// non-nil) at the end of each; ErrStop halts early without error.
func (a *Async[M]) RunSteps(steps int, after func(step int) error) error {
	for step := 0; step < steps; step++ {
		if err := a.Step(); err != nil {
			return err
		}
		if after != nil {
			if err := after(step); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// Drain delivers all in-flight messages (in stable channel order) until
// every queue is empty. It is used by tests to reach quiescence.
func (a *Async[M]) Drain() error {
	for {
		delivered := false
		var keys [][2]int
		for e, q := range a.queues {
			if len(q) > 0 {
				//lint:allow mapiter keys are selection-sorted below before delivery
				keys = append(keys, e)
			}
		}
		if len(keys) == 0 {
			return nil
		}
		// Stable order for reproducibility.
		for i := 0; i < len(keys); i++ {
			min := i
			for j := i + 1; j < len(keys); j++ {
				if edgeLess(keys[j], keys[min]) {
					min = j
				}
			}
			keys[i], keys[min] = keys[min], keys[i]
		}
		for _, e := range keys {
			q := a.queues[e]
			for len(q) > 0 {
				qm := q[0]
				q = q[1:]
				if err := a.agents[e[1]].Receive([]M{qm.msg}); err != nil {
					return fmt.Errorf("sim: node %d receive: %w", e[1], err)
				}
				delivered = true
			}
			a.queues[e] = q
		}
		if !delivered {
			return nil
		}
	}
}
