// Package causal reconstructs the happens-before structure of a
// causal (schema-2) trace: it matches every send event to its receive
// by (sender, sequence) identity, rebuilds the message DAG the Lamport
// clocks witness, extracts the critical causal path from the initial
// state to the convergence event, and maintains a weight-provenance
// ledger tracking what fraction of each origin node's initial weight
// sits at each node.
//
// The ledger uses the proportional-provenance model: a transfer of
// weight w from a node holding origin mix m carries w·m[o]/|m| of each
// origin o. Debits and credits move identical float values between
// rows, so a per-origin column sum changes only when weight is
// created (init, recover) or destroyed (crash) — those invariant
// expectations are tracked separately from the float entries, and the
// gap between the two is reported as column drift (pure accumulated
// rounding, zero protocol meaning).
//
// The analysis is a stage of replay.Analyzer, switched on by a
// schema-2 run header: the one run analyzer feeds it every event and
// tells it when the shared convergence detector fires, so
// distclass-analyze's causal section and the monitor's /status causal
// view come from the same state. Analyzer states what it keeps in
// memory.
package causal

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"distclass/internal/trace"
)

// Anomaly is one causal-contract violation found in the trace.
type Anomaly struct {
	// Type is one of "orphan-send", "unmatched-receive",
	// "duplicate-send", "duplicate-receive", "clock-regression",
	// "misrouted", "weight-mismatch", "bad-endpoint" (a send or receive
	// naming a negative node or peer, skipped).
	Type string `json:"type"`
	// Node and Peer are the endpoints as seen by the violating event.
	Node int `json:"node"`
	Peer int `json:"peer"`
	// Seq identifies the message within its sender's stream.
	Seq uint64 `json:"seq"`
	// Detail is a human-readable elaboration.
	Detail string `json:"detail"`
}

// PathHop is one message on the critical causal path.
type PathHop struct {
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	Seq       uint64 `json:"seq"`
	SendClock uint64 `json:"sendClock"`
	RecvClock uint64 `json:"recvClock"`
	// Depth is the hop's position on the chain (1-based).
	Depth int `json:"depth"`
}

// DepthBucket is one bar of the dissemination-depth histogram: Count
// nodes ended the trace at causal depth Depth (the longest message
// chain that influenced their state).
type DepthBucket struct {
	Depth int `json:"depth"`
	Count int `json:"count"`
}

// OriginSummary is one origin node's provenance column.
type OriginSummary struct {
	Origin int `json:"origin"`
	// Expected is the invariant column sum: the origin's initial
	// weight, adjusted only by crash destruction and recover creation.
	Expected float64 `json:"expected"`
	// Actual is the float column sum over all holders plus weight
	// still in flight; Drift is |Actual-Expected|.
	Actual float64 `json:"actual"`
	Drift  float64 `json:"drift"`
	// Reach counts the nodes holding a non-negligible (> 1e-12) share
	// of this origin's weight at the end of the trace.
	Reach int `json:"reach"`
}

// LedgerReport summarizes the weight-provenance ledger at the end of
// the trace.
type LedgerReport struct {
	// ExpectedTotal is the invariant grand total — directly comparable
	// to the monitor's conservation-audit expected weight.
	ExpectedTotal float64 `json:"expectedTotal"`
	// ActualTotal sums every ledger entry plus in-flight weight.
	ActualTotal float64 `json:"actualTotal"`
	// MaxColumnDrift is the largest per-origin |actual-expected| —
	// accumulated float rounding, bounded by a few ULPs per transfer.
	MaxColumnDrift float64 `json:"maxColumnDrift"`
	// InFlight is the weight of sends never matched by a receive:
	// undelivered at the end of the trace, or destroyed with a crashed
	// node's inbox (the trace does not distinguish the two).
	InFlight float64 `json:"inFlight"`
	// Destroyed is the held weight zeroed by crash events.
	Destroyed float64         `json:"destroyed"`
	Origins   []OriginSummary `json:"origins"`
}

// TimelineSample is one point of the dissemination timeline, taken at
// each spread probe.
type TimelineSample struct {
	Round int `json:"round"`
	// MaxDepth is the deepest causal chain observed so far.
	MaxDepth int `json:"maxDepth"`
	// MeanReach is the average, over origins, of how many nodes hold a
	// share of that origin's weight.
	MeanReach float64 `json:"meanReach"`
}

// Report is the result of analyzing one causal trace.
type Report struct {
	Backend string `json:"backend"`
	Schema  int    `json:"schema"`
	Nodes   int    `json:"nodes"`

	Sends             int `json:"sends"`
	Receives          int `json:"receives"`
	Matched           int `json:"matched"`
	OrphanSends       int `json:"orphanSends"`
	UnmatchedReceives int `json:"unmatchedReceives"`
	Duplicates        int `json:"duplicates"`
	Crashes           int `json:"crashes"`
	Recovers          int `json:"recovers"`
	SendDrops         int `json:"sendDrops"`

	// MaxClock is the largest Lamport timestamp in the trace;
	// ClockSkew is the gap between the most- and least-advanced node
	// clocks at the end.
	MaxClock  uint64 `json:"maxClock"`
	ClockSkew uint64 `json:"clockSkew"`

	// MaxDepth is the deepest causal chain; DepthHistogram buckets the
	// per-node final depths.
	MaxDepth       int           `json:"maxDepth"`
	DepthHistogram []DepthBucket `json:"depthHistogram"`

	Converged      bool `json:"converged"`
	ConvergedRound int  `json:"convergedRound"`
	// CriticalPath is the longest message chain at the moment
	// convergence was detected (at the end of the trace when the run
	// never converged), root to tip.
	CriticalPath []PathHop `json:"criticalPath"`

	Ledger   LedgerReport     `json:"ledger"`
	Timeline []TimelineSample `json:"timeline,omitempty"`

	Anomalies []Anomaly `json:"anomalies"`
}

// msgKey is a causal message's identity: sender plus per-sender
// sequence number.
type msgKey struct {
	src int
	seq uint64
}

// message is one causal send: awaiting its receive while in the
// message table, a link of the critical-path back-chain once matched.
type message struct {
	src, dst  int
	seq       uint64
	sendClock uint64
	recvClock uint64
	weight    float64
	// depth is the chain length this message extends to (its sender's
	// depth at send time plus one); parent is the message that set the
	// sender's depth, forming the back-chain the critical path walks.
	depth  int
	parent *message
}

// pendingReceive is a receive event observed before its send — legal
// on the concurrent backends, whose send and receive goroutines race
// into the recorder.
type pendingReceive struct {
	dst    int
	clock  uint64
	weight float64
}

// share is one entry of a provenance row: weight held of one origin.
type share struct {
	origin int
	w      float64
}

// seqRun is a closed range of sequence numbers.
type seqRun struct{ lo, hi uint64 }

// seqRuns is one sender's set of seen sequence numbers as sorted,
// disjoint, non-adjacent runs. In-order sends extend the last run, so
// its size follows the gaps (sequence numbers burned on refused sends)
// and reordering, not the message count.
type seqRuns []seqRun

// has reports whether seq was seen.
func (s seqRuns) has(seq uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].hi >= seq })
	return i < len(s) && s[i].lo <= seq
}

// add records seq and reports whether it was new.
func (s *seqRuns) add(seq uint64) bool {
	r := *s
	// The first run ending at or after seq-1 is the one seq falls in,
	// extends, or precedes.
	i := sort.Search(len(r), func(i int) bool { return r[i].hi+1 >= seq })
	switch {
	case i < len(r) && r[i].lo <= seq && seq <= r[i].hi:
		return false
	case i < len(r) && r[i].hi+1 == seq:
		r[i].hi = seq
		if i+1 < len(r) && r[i+1].lo == seq+1 {
			r[i].hi = r[i+1].hi
			r = slices.Delete(r, i+1, i+2)
		}
	case i < len(r) && r[i].lo == seq+1:
		r[i].lo = seq
	default:
		r = slices.Insert(r, i, seqRun{seq, seq})
	}
	*s = r
	return true
}

// node is one node's causal state.
type node struct {
	clock uint64
	depth int
	sent  seqRuns
	// last is the message that set depth, the head of the node's
	// back-chain; row is the node's provenance row sorted by origin;
	// expected is the invariant column expectation of the node as an
	// origin. All three are kept only with provenance on.
	last     *message
	row      []share
	expected float64
}

// reachEpsilon is the share below which a holder does not count toward
// an origin's reach.
const reachEpsilon = 1e-12

// timelineMaxNodes bounds the per-probe reach computation: above this
// node count the timeline is skipped (the rest of the report is
// unaffected).
const timelineMaxNodes = 1024

// Analyzer is the streaming causal stage of replay.Analyzer, which
// builds one when a schema-2 run header arrives, feeds it every event,
// and calls Converged when its convergence detector first fires.
// Report renders the state reached so far.
//
// Memory: a matched message leaves the message table at once, so the
// message, pending-receive and in-flight tables hold only unmatched
// messages, and duplicate detection keeps per sender only the runs of
// seen sequence numbers. Node state is created when an id is first
// seen. With provenance on (offline analysis) the stage also keeps the
// provenance ledger, which turns dense once the nodes mix (O(nodes²)
// entries), the timeline, the critical-path back-chain and the
// anomaly list. With provenance off (the live monitor's capped
// analyzer) it keeps none of them: its state is O(nodes + messages in
// flight), and its report carries counts, clocks and depths only. It
// is not safe for concurrent use.
type Analyzer struct {
	backend    string
	schema     int
	provenance bool

	nodes     map[int]*node
	destroyed float64

	msgs        map[msgKey]*message
	pendingRecv map[msgKey]pendingReceive
	inflight    map[msgKey][]share
	// spare holds credited provenance vectors for debit to reuse, so a
	// dense ledger does not allocate one per message.
	spare [][]share

	sends, receives, matched, duplicates int
	crashes, recovers, sendDrops         int

	converged      bool
	convergedRound int
	criticalPath   []PathHop

	timeline  []TimelineSample
	anomalies []Anomaly
}

// NewAnalyzer starts the causal stage of the run the given run header
// opens; provenance selects the full offline state (see Analyzer).
func NewAnalyzer(header trace.Event, provenance bool) *Analyzer {
	return &Analyzer{
		backend:        header.Backend,
		schema:         header.Schema,
		provenance:     provenance,
		convergedRound: -1,
		nodes:          make(map[int]*node),
		msgs:           make(map[msgKey]*message),
		pendingRecv:    make(map[msgKey]pendingReceive),
		inflight:       make(map[msgKey][]share),
	}
}

// nodeAt returns the state of node id, creating it on first sight with
// its unit initial weight.
func (a *Analyzer) nodeAt(id int) *node {
	n, ok := a.nodes[id]
	if !ok {
		n = &node{}
		if a.provenance {
			n.row = []share{{origin: id, w: 1}}
			n.expected = 1
		}
		a.nodes[id] = n
	}
	return n
}

// flag records an anomaly; without provenance only the counters that
// led to it are kept.
func (a *Analyzer) flag(an Anomaly) {
	if a.provenance {
		a.anomalies = append(a.anomalies, an)
	}
}

// Observe folds one trace event into the analysis.
func (a *Analyzer) Observe(e trace.Event) {
	switch e.Kind {
	case trace.KindSend, trace.KindReceive:
		if e.Seq == 0 {
			return // pull request or pre-causal transfer: no weight moves
		}
		if e.Node < 0 || e.Peer < 0 {
			a.flag(Anomaly{
				Type: "bad-endpoint", Node: e.Node, Peer: e.Peer, Seq: e.Seq,
				Detail: fmt.Sprintf("%s (%d,%d) names node %d and peer %d", e.Kind, e.Node, e.Seq, e.Node, e.Peer),
			})
			return
		}
		if e.Kind == trace.KindSend {
			a.send(e)
		} else {
			a.receive(e)
		}
	case trace.KindCrash:
		a.crashes++
		if e.Node >= 0 {
			n := a.nodeAt(e.Node)
			for _, s := range n.row {
				a.nodes[s.origin].expected -= s.w
				a.destroyed += s.w
			}
			n.row = n.row[:0]
		}
	case trace.KindRecover:
		a.recovers++
		if e.Node >= 0 {
			// A restarted node re-enters with a fresh unit-weight value
			// of its own origin — the same weight creation the
			// conservation audit credits.
			n := a.nodeAt(e.Node)
			if a.provenance {
				n.row = addShares(n.row, []share{{origin: e.Node, w: 1}})
				n.expected++
			}
		}
	case trace.KindSendDrop:
		a.sendDrops++
	case trace.KindSpread:
		if a.provenance && len(a.nodes) > 0 && len(a.nodes) <= timelineMaxNodes {
			a.timeline = append(a.timeline, TimelineSample{
				Round:     e.Round,
				MaxDepth:  a.maxDepth(),
				MeanReach: a.meanReach(),
			})
		}
	}
}

// Converged marks the caller's convergence detector firing at the
// spread probe of the given round: the critical path is the back-chain
// as it stands now. Later calls are ignored.
func (a *Analyzer) Converged(round int) {
	if a.converged {
		return
	}
	a.converged = true
	a.convergedRound = round
	a.criticalPath = a.snapshotPath()
}

// send processes one causal send event.
func (a *Analyzer) send(e trace.Event) {
	src := a.nodeAt(e.Node)
	a.nodeAt(e.Peer)
	a.sends++
	if e.Clock > src.clock {
		src.clock = e.Clock
	}
	if !src.sent.add(e.Seq) {
		a.duplicates++
		a.flag(Anomaly{
			Type: "duplicate-send", Node: e.Node, Peer: e.Peer, Seq: e.Seq,
			Detail: fmt.Sprintf("node %d reused sequence number %d", e.Node, e.Seq),
		})
		return
	}
	key := msgKey{src: e.Node, seq: e.Seq}
	m := &message{
		src: e.Node, dst: e.Peer, seq: e.Seq,
		sendClock: e.Clock, weight: e.Weight,
		depth:  src.depth + 1,
		parent: src.last,
	}
	if a.provenance {
		a.debit(key, src, e.Weight)
	}
	if pr, ok := a.pendingRecv[key]; ok {
		delete(a.pendingRecv, key)
		a.match(key, m, pr.dst, pr.clock, pr.weight)
		return
	}
	a.msgs[key] = m
}

// receive processes one causal receive event.
func (a *Analyzer) receive(e trace.Event) {
	dst := a.nodeAt(e.Node)
	src := a.nodeAt(e.Peer)
	a.receives++
	if e.Clock > dst.clock {
		dst.clock = e.Clock
	}
	key := msgKey{src: e.Peer, seq: e.Seq}
	if m, ok := a.msgs[key]; ok {
		delete(a.msgs, key)
		a.match(key, m, e.Node, e.Clock, e.Weight)
		return
	}
	// Not awaiting a receive: either already delivered (sent and
	// matched, or parked below) or not sent yet.
	if _, parked := a.pendingRecv[key]; parked || src.sent.has(e.Seq) {
		a.duplicates++
		a.flag(Anomaly{
			Type: "duplicate-receive", Node: e.Node, Peer: e.Peer, Seq: e.Seq,
			Detail: fmt.Sprintf("message (%d,%d) delivered more than once", e.Peer, e.Seq),
		})
		return
	}
	// Send not yet seen: on the wire backends the receiver's recorder
	// write can land before the sender's. Park it.
	a.pendingRecv[key] = pendingReceive{dst: e.Node, clock: e.Clock, weight: e.Weight}
}

// match joins a send with its receive: contract checks, depth update,
// ledger credit.
func (a *Analyzer) match(key msgKey, m *message, dstID int, recvClock uint64, recvWeight float64) {
	a.matched++
	m.recvClock = recvClock
	if recvClock <= m.sendClock {
		a.flag(Anomaly{
			Type: "clock-regression", Node: dstID, Peer: m.src, Seq: m.seq,
			Detail: fmt.Sprintf("receive clock %d not after send clock %d", recvClock, m.sendClock),
		})
	}
	if dstID != m.dst {
		a.flag(Anomaly{
			Type: "misrouted", Node: dstID, Peer: m.src, Seq: m.seq,
			Detail: fmt.Sprintf("sent to node %d but received by node %d", m.dst, dstID),
		})
	}
	if math.Float64bits(recvWeight) != math.Float64bits(m.weight) {
		a.flag(Anomaly{
			Type: "weight-mismatch", Node: dstID, Peer: m.src, Seq: m.seq,
			Detail: fmt.Sprintf("send carried weight %g, receive %g", m.weight, recvWeight),
		})
	}
	dst := a.nodes[dstID]
	if m.depth > dst.depth {
		dst.depth = m.depth
		if a.provenance {
			dst.last = m
		}
	}
	if moved, ok := a.inflight[key]; ok {
		delete(a.inflight, key)
		dst.row = addShares(dst.row, moved)
		a.spare = append(a.spare, moved)
	}
}

// debit removes a proportional provenance vector worth w from src's
// row and parks it in flight under key.
func (a *Analyzer) debit(key msgKey, src *node, w float64) {
	var rowSum float64
	for _, s := range src.row {
		rowSum += s.w
	}
	if rowSum <= 0 {
		// A sender the ledger believes is empty (possible only on a
		// trace that starts mid-run): attribute the transfer to the
		// sender itself so the books still balance.
		src.row = addShares(src.row, []share{{origin: key.src, w: -w}})
		a.inflight[key] = []share{{origin: key.src, w: w}}
		return
	}
	frac := w / rowSum
	var moved []share
	if k := len(a.spare); k > 0 {
		moved, a.spare = a.spare[k-1][:0], a.spare[:k-1]
	}
	for i := range src.row {
		d := src.row[i].w * frac
		moved = append(moved, share{origin: src.row[i].origin, w: d})
		src.row[i].w -= d
	}
	a.inflight[key] = moved
}

// addShares adds the origin-sorted shares into the origin-sorted row.
// Once the nodes mix, a row already holds every origin a transfer
// carries and the add is one in-place walk; an origin the row lacks
// turns the rest into a merge into a fresh row.
func addShares(row, add []share) []share {
	i := 0
	for j, s := range add {
		for i < len(row) && row[i].origin < s.origin {
			i++
		}
		if i == len(row) || row[i].origin != s.origin {
			merged := append(make([]share, 0, len(row)+len(add)-j), row[:i]...)
			rest := row[i:]
			for _, s := range add[j:] {
				for len(rest) > 0 && rest[0].origin < s.origin {
					merged, rest = append(merged, rest[0]), rest[1:]
				}
				if len(rest) > 0 && rest[0].origin == s.origin {
					s.w += rest[0].w
					rest = rest[1:]
				}
				merged = append(merged, s)
			}
			return append(merged, rest...)
		}
		row[i].w += s.w
		i++
	}
	return row
}

// maxDepth returns the deepest per-node causal depth.
func (a *Analyzer) maxDepth() int {
	max := 0
	for _, n := range a.nodes {
		if n.depth > max {
			max = n.depth
		}
	}
	return max
}

// meanReach averages, over origins, the number of holders with a
// non-negligible share of that origin's weight.
func (a *Analyzer) meanReach() float64 {
	total := 0
	for _, n := range a.nodes {
		for _, s := range n.row {
			if s.w > reachEpsilon {
				total++
			}
		}
	}
	return float64(total) / float64(len(a.nodes))
}

// snapshotPath walks the back-chain from the deepest node (ties to the
// lowest id) and returns the chain root-first; nil without provenance.
func (a *Analyzer) snapshotPath() []PathHop {
	var deep *node
	deepest := -1
	for id, n := range a.nodes {
		if n.last != nil && (deep == nil || n.depth > deep.depth || n.depth == deep.depth && id < deepest) {
			deep, deepest = n, id
		}
	}
	if deep == nil {
		return nil
	}
	var path []PathHop
	for m := deep.last; m != nil; m = m.parent {
		path = append(path, PathHop{
			Src: m.src, Dst: m.dst, Seq: m.seq,
			SendClock: m.sendClock, RecvClock: m.recvClock,
			Depth: m.depth,
		})
	}
	slices.Reverse(path)
	return path
}

// Report renders the causal state reached so far.
func (a *Analyzer) Report() *Report {
	rep := &Report{
		Backend:           a.backend,
		Schema:            a.schema,
		Nodes:             len(a.nodes),
		Sends:             a.sends,
		Receives:          a.receives,
		Matched:           a.matched,
		OrphanSends:       len(a.msgs),
		UnmatchedReceives: len(a.pendingRecv),
		Duplicates:        a.duplicates,
		Crashes:           a.crashes,
		Recovers:          a.recovers,
		SendDrops:         a.sendDrops,
		Converged:         a.converged,
		ConvergedRound:    a.convergedRound,
		CriticalPath:      a.criticalPath,
		Timeline:          a.timeline,
		Anomalies:         slices.Clone(a.anomalies),
	}
	if !a.converged {
		rep.CriticalPath = a.snapshotPath()
	}

	var minClock uint64
	first := true
	for _, n := range a.nodes {
		rep.MaxClock = max(rep.MaxClock, n.clock)
		if first || n.clock < minClock {
			minClock, first = n.clock, false
		}
		rep.MaxDepth = max(rep.MaxDepth, n.depth)
	}
	rep.ClockSkew = rep.MaxClock - minClock
	if len(a.nodes) > 0 {
		counts := make([]int, rep.MaxDepth+1)
		for _, n := range a.nodes {
			counts[n.depth]++
		}
		for d, c := range counts {
			if c > 0 {
				rep.DepthHistogram = append(rep.DepthHistogram, DepthBucket{Depth: d, Count: c})
			}
		}
	}
	if !a.provenance {
		return rep
	}

	// Unmatched sends, in deterministic (src, seq) order. Orphans are
	// anomalous only on a trace with no crashes: under churn, losing
	// in-flight messages with the dead is the expected failure mode.
	// The async driver is exempt too — its model parks messages in
	// queues arbitrarily long, so sends still queued when the trace
	// ends are pending, not lost (their weight stays on the books as
	// in-flight, exactly as the driver's TotalWeight counts it).
	if a.crashes == 0 && a.backend != "async" {
		for _, key := range sortedKeys(a.msgs) {
			m := a.msgs[key]
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Type: "orphan-send", Node: m.src, Peer: m.dst, Seq: m.seq,
				Detail: fmt.Sprintf("send (%d,%d) to node %d never received and no crash explains it", m.src, m.seq, m.dst),
			})
		}
	}
	// Receives whose send never appeared: always anomalous — a message
	// cannot arrive unsent.
	for _, key := range sortedKeys(a.pendingRecv) {
		pr := a.pendingRecv[key]
		rep.Anomalies = append(rep.Anomalies, Anomaly{
			Type: "unmatched-receive", Node: pr.dst, Peer: key.src, Seq: key.seq,
			Detail: fmt.Sprintf("node %d received (%d,%d) but no such send was traced", pr.dst, key.src, key.seq),
		})
	}
	rep.Ledger = a.ledgerReport()
	return rep
}

// sortedKeys returns a message table's keys in (src, seq) order.
func sortedKeys[V any](m map[msgKey]V) []msgKey {
	keys := make([]msgKey, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(x, y msgKey) int {
		return cmp.Or(cmp.Compare(x.src, y.src), cmp.Compare(x.seq, y.seq))
	})
	return keys
}

// ledgerReport closes the provenance books: per-origin column sums
// (held plus in-flight) against the invariant expectations, summed in
// ascending holder, origin and message order.
func (a *Analyzer) ledgerReport() LedgerReport {
	lr := LedgerReport{Destroyed: a.destroyed}
	ids := make([]int, 0, len(a.nodes))
	for id := range a.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	actual := make(map[int]float64, len(ids))
	reach := make(map[int]int, len(ids))
	for _, id := range ids {
		for _, s := range a.nodes[id].row {
			actual[s.origin] += s.w
			if s.w > reachEpsilon {
				reach[s.origin]++
			}
		}
	}
	for _, key := range sortedKeys(a.inflight) {
		for _, s := range a.inflight[key] {
			actual[s.origin] += s.w
			lr.InFlight += s.w
		}
	}
	for _, o := range ids {
		expected := a.nodes[o].expected
		drift := math.Abs(actual[o] - expected)
		lr.Origins = append(lr.Origins, OriginSummary{
			Origin:   o,
			Expected: expected,
			Actual:   actual[o],
			Drift:    drift,
			Reach:    reach[o],
		})
		lr.ExpectedTotal += expected
		lr.ActualTotal += actual[o]
		if drift > lr.MaxColumnDrift {
			lr.MaxColumnDrift = drift
		}
	}
	return lr
}

// WriteJSON renders the report as indented JSON — deterministic for a
// deterministic trace.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("causal: %w", err)
	}
	return nil
}

// WriteText renders the human-readable report — deterministic for a
// deterministic trace.
func (r *Report) WriteText(w io.Writer) error {
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("causal analysis: backend=%s schema=%d nodes=%d\n", r.Backend, r.Schema, r.Nodes); err != nil {
		return err
	}
	if err := p("messages:       %d sends, %d receives, %d matched; %d orphan sends, %d unmatched receives, %d duplicates\n",
		r.Sends, r.Receives, r.Matched, r.OrphanSends, r.UnmatchedReceives, r.Duplicates); err != nil {
		return err
	}
	if r.Crashes > 0 || r.Recovers > 0 || r.SendDrops > 0 {
		if err := p("churn:          %d crashes, %d recovers, %d send drops\n", r.Crashes, r.Recovers, r.SendDrops); err != nil {
			return err
		}
	}
	if err := p("clocks:         max=%d skew=%d\n", r.MaxClock, r.ClockSkew); err != nil {
		return err
	}
	if err := p("depth:          max=%d histogram:", r.MaxDepth); err != nil {
		return err
	}
	for _, b := range r.DepthHistogram {
		if err := p(" %d:%d", b.Depth, b.Count); err != nil {
			return err
		}
	}
	if err := p("\n"); err != nil {
		return err
	}
	if r.Converged {
		if err := p("converged:      round %d\n", r.ConvergedRound); err != nil {
			return err
		}
	} else {
		if err := p("converged:      no\n"); err != nil {
			return err
		}
	}
	if err := p("critical path:  %d hops\n", len(r.CriticalPath)); err != nil {
		return err
	}
	for i, h := range r.CriticalPath {
		if err := p("  %3d. %d -> %d  seq %d  clock %d -> %d\n", i+1, h.Src, h.Dst, h.Seq, h.SendClock, h.RecvClock); err != nil {
			return err
		}
	}
	if err := p("provenance:     expected %g, actual %.9g, max column drift %.3g, in-flight %.9g, destroyed %.9g\n",
		r.Ledger.ExpectedTotal, r.Ledger.ActualTotal, r.Ledger.MaxColumnDrift, r.Ledger.InFlight, r.Ledger.Destroyed); err != nil {
		return err
	}
	for _, o := range r.Ledger.Origins {
		if err := p("  origin %3d: expected %g actual %.9g reach %d\n", o.Origin, o.Expected, o.Actual, o.Reach); err != nil {
			return err
		}
	}
	if len(r.Anomalies) == 0 {
		return p("anomalies:      none\n")
	}
	if err := p("anomalies:      %d\n", len(r.Anomalies)); err != nil {
		return err
	}
	for _, an := range r.Anomalies {
		if err := p("  %-18s %s\n", an.Type, an.Detail); err != nil {
			return err
		}
	}
	return nil
}
