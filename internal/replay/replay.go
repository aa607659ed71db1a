// Package replay turns raw trace JSONL streams into the paper's
// evaluation diagnostics. The recording side (internal/trace) is
// deliberately dumb — every layer appends typed events — and this
// package is the consuming half. Its Analyzer is the one incremental
// run state of the repo: Analyze streams a trace file into it offline,
// and internal/monitor feeds it live from the engine's trace tee, so
// an offline report and a live /status snapshot are renderings of the
// same state machine. The state keeps per-node and per-round
// aggregates plus the probe curves, never the raw events, so memory is
// O(nodes + rounds that carry events + probe samples) whatever the
// trace length. The RunReport it renders holds the quantities §6 and
// Figures 1-4 reason about:
//
//   - convergence-round detection on the per-round spread probe, with
//     the same threshold/window semantics as the online detector
//     (distclass.RunUntilConverged), so a replayed trace and the live
//     run agree on when the network converged;
//   - the full per-round spread/error curves plus message-complexity
//     accounting (sends, receives, received-collection counts, split
//     and merge churn, crash/recover totals);
//   - per-node health (activity staleness, decode errors, crash state);
//   - anomaly detection: stalled nodes, divergence after convergence,
//     and round-monotonicity violations (a round number moving
//     backwards means either trace corruption or several runs
//     interleaved into one file);
//   - on causal traces (a schema-2 run header), the causal stage of
//     internal/causal: happens-before matching, Lamport clocks,
//     dissemination depth, the critical path at the moment this
//     analyzer's detector fires, and the weight-provenance ledger,
//     whose memory is the node count squared and which only an
//     uncapped Analyzer keeps.
//
// Reports render as deterministic text, CSV and JSON (report.go) and
// two reports diff metric-by-metric (diff.go); cmd/distclass-analyze
// is the command-line front end.
package replay

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"distclass/internal/causal"
	"distclass/internal/converge"
	"distclass/internal/trace"
)

// Options parameterize an analysis.
type Options struct {
	// Threshold is the spread value below which a sample counts toward
	// convergence. Non-positive selects converge.DefaultThreshold
	// (1e-3, matching distclass.WithTolerance).
	Threshold float64
	// Window is the number of consecutive sub-threshold spread samples
	// required to declare convergence. Non-positive selects
	// converge.DefaultWindow (3, matching distclass.RunUntilConverged).
	Window int
	// StallSlack is the number of trailing rounds a node may be
	// inactive before it counts as stalled. Zero selects
	// max(10, rounds/5). Negative disables stall detection.
	StallSlack int
}

// Sample is one scalar probe observation (spread or error) in trace
// order.
type Sample struct {
	Round int     `json:"round"`
	Value float64 `json:"value"`
}

// KindCount is one event kind's tally.
type KindCount struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// Convergence is the replayed convergence analysis of one run.
type Convergence struct {
	// Threshold and Window echo the detection parameters used.
	Threshold float64 `json:"threshold"`
	Window    int     `json:"window"`
	// Converged reports whether Window consecutive spread samples fell
	// below Threshold.
	Converged bool `json:"converged"`
	// ConvergedRound is the round of the sample that completed the
	// stable window (-1 when the run never converged). This is 0-based:
	// an online RunUntilConverged that stopped after R rounds converged
	// at round R-1.
	ConvergedRound int `json:"converged_round"`
	// RoundsToConverge is ConvergedRound+1 — directly comparable to the
	// round count distclass.RunUntilConverged returns. 0 when the run
	// never converged.
	RoundsToConverge int `json:"rounds_to_converge"`
	// FirstStableRound is the round of the first spread sample after
	// which no sample reaches Threshold again (-1 if the final sample
	// is still at or above it).
	FirstStableRound int `json:"first_stable_round"`
	// FinalSpread and MinSpread summarize the spread curve; they are
	// meaningful only when SpreadSamples > 0.
	FinalSpread   float64 `json:"final_spread"`
	MinSpread     float64 `json:"min_spread"`
	SpreadSamples int     `json:"spread_samples"`
	// FinalError and MinError summarize the estimation-error curve
	// (experiments traces); meaningful only when ErrorSamples > 0.
	FinalError   float64 `json:"final_error"`
	MinError     float64 `json:"min_error"`
	ErrorSamples int     `json:"error_samples"`
}

// Messaging is the run's message-complexity accounting.
type Messaging struct {
	// Sends and Receives count driver-delivered messages.
	Sends    int `json:"sends"`
	Receives int `json:"receives"`
	// SentBytes sums the send events' values — encoded payload bytes in
	// live traces, always 0 in sim traces (sim sends carry no size).
	// Frame batching coalesces payloads but never changes them, so this
	// total is comparable across codecs and batch settings.
	SentBytes float64 `json:"sent_bytes"`
	// BytesPerSend is SentBytes/Sends — the run's mean encoded message
	// size, the number the wire codec and frame batching shrink. Omitted
	// (0) for sim traces, which carry no sizes.
	BytesPerSend float64 `json:"bytes_per_send,omitempty"`
	// ReceivedCollections sums the receive events' values: inbox batch
	// sizes (sim) or decoded collection counts (livenet) — the paper's
	// "collections on the wire" complexity measure.
	ReceivedCollections float64 `json:"received_collections"`
	// Splits/Merges count protocol churn; SplitCollections and
	// MergedCollections sum the per-event collection counts.
	Splits            int     `json:"splits"`
	SplitCollections  float64 `json:"split_collections"`
	Merges            int     `json:"merges"`
	MergedCollections float64 `json:"merged_collections"`
	// Crashes, Recovers, DecodeErrors and SendDrops are network-wide
	// totals. SendDrops counts frames a live sender discarded at a full
	// outbound queue — expected degradation under churn or slow peers,
	// not an anomaly.
	Crashes      int `json:"crashes"`
	Recovers     int `json:"recovers"`
	DecodeErrors int `json:"decode_errors"`
	SendDrops    int `json:"send_drops"`
}

// RoundStat is one driver round's aggregate. Spread and Error are nil
// when the round carried no probe of that kind.
type RoundStat struct {
	Round       int      `json:"round"`
	Spread      *float64 `json:"spread,omitempty"`
	Error       *float64 `json:"error,omitempty"`
	Sends       int      `json:"sends"`
	Receives    int      `json:"receives"`
	Collections float64  `json:"collections"`
	Crashes     int      `json:"crashes"`
	Recovers    int      `json:"recovers"`
}

// NodeHealth is one node's replayed health record.
type NodeHealth struct {
	Node     int `json:"node"`
	Sends    int `json:"sends"`
	Receives int `json:"receives"`
	// SentBytes sums this node's send sizes (encoded payload bytes).
	// Always 0 — and omitted — for sim traces; in live traces a node far
	// off the mean indicates skewed load or an oversized model.
	SentBytes    float64 `json:"sent_bytes,omitempty"`
	Splits       int     `json:"splits"`
	Merges       int     `json:"merges"`
	Crashes      int     `json:"crashes"`
	Recovers     int     `json:"recovers"`
	DecodeErrors int     `json:"decode_errors"`
	SendDrops    int     `json:"send_drops"`
	// LastActivityRound is the last driver round with a send or receive
	// from this node (-1 when the node only appears in round-less
	// events, e.g. live traces).
	LastActivityRound int `json:"last_activity_round"`
	// Staleness is rounds-1 - LastActivityRound: how many trailing
	// rounds the node was silent for (0 when active in the last round;
	// -1 when LastActivityRound is -1).
	Staleness int `json:"staleness"`
	// Crashed reports a crash event without a later recover.
	Crashed bool `json:"crashed"`
	// Stalled marks a never-crashed node whose staleness exceeded the
	// stall slack — an anomaly.
	Stalled bool `json:"stalled"`
}

// Anomalies is the run's anomaly summary. Count is the total the
// analyzer gates on (make check fails a smoke run on Count > 0).
type Anomalies struct {
	Count int `json:"count"`
	// StalledNodes lists never-crashed nodes inactive for longer than
	// the stall slack.
	StalledNodes []int `json:"stalled_nodes,omitempty"`
	// DivergentRounds counts spread samples at or above the threshold
	// after the convergence window completed.
	DivergentRounds int `json:"divergent_rounds"`
	// RoundRegressions counts events whose round number is lower than
	// their predecessor's — trace corruption, or several sequential
	// runs recorded into one file.
	RoundRegressions int `json:"round_regressions"`
	// DecodeErrors mirrors Messaging.DecodeErrors: any failed frame
	// decode is anomalous.
	DecodeErrors int `json:"decode_errors"`
	// Notes are human-readable one-liners, one per anomaly class found.
	Notes []string `json:"notes,omitempty"`
}

// RunReport is the complete replayed analysis of one trace.
type RunReport struct {
	// File labels the report (set by callers; empty for readers).
	File string `json:"file,omitempty"`
	// Backend names the engine backend that produced the trace, taken
	// from the run-header event. Empty for traces recorded without a
	// header (trace.Recorder emits one only when configured to).
	Backend string `json:"backend,omitempty"`
	// Events is the total number of trace events consumed.
	Events int `json:"events"`
	// Rounds is the number of driver rounds observed (max round + 1
	// over send, receive, crash, recover and probe events); 0 for
	// round-less traces (live deployments).
	Rounds int `json:"rounds"`
	// Nodes is the number of distinct node ids observed.
	Nodes int `json:"nodes"`
	// Kinds tallies events by kind, sorted by kind name.
	Kinds []KindCount `json:"kinds"`

	Convergence Convergence `json:"convergence"`
	Messaging   Messaging   `json:"messaging"`
	// PerRound has one entry per round that carried a send, receive,
	// crash, recover or probe event, in round order. Rounds without
	// such an event get no row: async traces stamp events with the
	// driver's step index, and a step that picks a dead node emits
	// nothing. Nil from a capped Analyzer.
	PerRound []RoundStat `json:"per_round"`
	// NodeHealth has one entry per observed node, sorted by id.
	NodeHealth []NodeHealth `json:"node_health"`
	Anomalies  Anomalies    `json:"anomalies"`

	// SpreadCurve and ErrorCurve are the probe samples in trace order
	// (PerRound keeps only the last sample per round; these keep all,
	// which is what convergence detection and curve rendering use).
	SpreadCurve []Sample `json:"spread_curve,omitempty"`
	ErrorCurve  []Sample `json:"error_curve,omitempty"`
	// SpreadDropped and ErrorDropped count the oldest curve samples an
	// Analyzer with a curve cap evicted. Always 0 for Analyze, which
	// keeps every sample.
	SpreadDropped int `json:"spread_dropped,omitempty"`
	ErrorDropped  int `json:"error_dropped,omitempty"`

	// Causal is the happens-before and weight-provenance analysis of a
	// causal trace: present exactly when the trace carries a
	// schema-2 run header. From a capped Analyzer it carries counts,
	// clocks and depths only (see causal.Analyzer).
	Causal *causal.Report `json:"causal,omitempty"`
}

// nodeState accumulates one node's tallies while streaming.
type nodeState struct {
	sends, receives, splits, merges int
	crashes, recovers, decodeErrors int
	sendDrops                       int
	sentBytes                       float64
	lastActivityRound               int
	crashed                         bool
}

// Analyzer is the incremental run state: Observe folds in one event,
// Report renders the state reached so far. Memory is independent of
// the event count: O(nodes + rounds that carry events + probe samples)
// uncapped, O(nodes + curve cap) capped. It is not safe for concurrent
// use; internal/monitor serializes it behind its mutex.
type Analyzer struct {
	det        *converge.Detector
	stallSlack int
	curveCap   int

	events   int
	kinds    map[trace.Kind]int
	rounds   int         // max round + 1
	perRound []RoundStat // sparse, in first-seen order
	roundIdx map[int]int // round -> index into perRound
	nodes    map[int]*nodeState
	msg      Messaging
	backend  string

	spread, errs               []Sample
	spreadDropped, errsDropped int
	errSamples                 int
	lastErr, minErr            float64

	prevRound   int
	regressions int

	// causal is the causal stage, started by the first schema-2 run
	// header; nil on pre-causal traces.
	causal *causal.Analyzer
}

// NewAnalyzer returns an empty run state. A positive curveCap bounds
// the state for a long-lived observer: each retained probe curve
// evicts its oldest half past the cap (counted in the report's dropped
// fields), and no per-round table is kept. Zero keeps every sample and
// every per-round row. Convergence detection sees every sample either
// way. The causal stage follows the same switch: capped, it keeps no
// provenance ledger, timeline, critical path or anomaly list.
func NewAnalyzer(opts Options, curveCap int) *Analyzer {
	a := &Analyzer{
		det:        converge.New(opts.Threshold, opts.Window),
		stallSlack: opts.StallSlack,
		curveCap:   curveCap,
		kinds:      make(map[trace.Kind]int),
		nodes:      make(map[int]*nodeState),
		prevRound:  -1,
	}
	if curveCap == 0 {
		a.roundIdx = make(map[int]int)
	}
	return a
}

// Analyze streams the trace from r and computes its RunReport. The
// reader is consumed once; memory use is proportional to the number of
// nodes, rounds that carry events and probe samples, never to the
// number of events or the largest round number.
func Analyze(r io.Reader, opts Options) (*RunReport, error) {
	a := NewAnalyzer(opts, 0)
	err := trace.Stream(r, func(e trace.Event) error {
		a.Observe(e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return a.Report(), nil
}

// roundAt counts the given round toward Rounds and returns its
// aggregate row, creating it on first sight — or nil for a capped
// analyzer, which keeps no per-round table. Rows are sparse, so memory
// follows the rounds that carry events, not the largest round number.
func (a *Analyzer) roundAt(round int) *RoundStat {
	if round >= a.rounds {
		a.rounds = round + 1
	}
	if a.roundIdx == nil {
		return nil
	}
	i, ok := a.roundIdx[round]
	if !ok {
		i = len(a.perRound)
		a.roundIdx[round] = i
		a.perRound = append(a.perRound, RoundStat{Round: round})
	}
	return &a.perRound[i]
}

// nodeAt returns the state for the given node id, creating it on first
// sight.
func (a *Analyzer) nodeAt(id int) *nodeState {
	ns, ok := a.nodes[id]
	if !ok {
		ns = &nodeState{lastActivityRound: -1}
		a.nodes[id] = ns
	}
	return ns
}

// Observe folds one event into the run state.
func (a *Analyzer) Observe(e trace.Event) {
	a.events++
	a.kinds[e.Kind]++
	if e.Round >= 0 {
		if e.Round < a.prevRound {
			a.regressions++
		}
		a.prevRound = e.Round
	}
	var ns *nodeState
	if e.Node >= 0 {
		ns = a.nodeAt(e.Node)
	}
	var rs *RoundStat
	if e.Round >= 0 {
		switch e.Kind {
		case trace.KindSend, trace.KindReceive, trace.KindCrash, trace.KindRecover, trace.KindSpread, trace.KindError:
			rs = a.roundAt(e.Round)
		}
	}
	switch e.Kind {
	case trace.KindRunHeader:
		// Run-level metadata, not a protocol event: Round and Node are
		// both -1, so the guards above already keep it out of the round
		// and node accounting. Last header wins — a file holding several
		// concatenated runs is flagged via round regressions anyway.
		a.backend = e.Backend
		if a.causal == nil && e.Schema >= trace.SchemaCausal {
			a.causal = causal.NewAnalyzer(e, a.curveCap == 0)
		}
	case trace.KindSend:
		a.msg.Sends++
		a.msg.SentBytes += e.Value
		if ns != nil {
			ns.sends++
			ns.sentBytes += e.Value
			if e.Round >= 0 && e.Round > ns.lastActivityRound {
				ns.lastActivityRound = e.Round
			}
		}
		if rs != nil {
			rs.Sends++
		}
	case trace.KindReceive:
		a.msg.Receives++
		a.msg.ReceivedCollections += e.Value
		if ns != nil {
			ns.receives++
			if e.Round >= 0 && e.Round > ns.lastActivityRound {
				ns.lastActivityRound = e.Round
			}
		}
		if rs != nil {
			rs.Receives++
			rs.Collections += e.Value
		}
	case trace.KindSplit:
		a.msg.Splits++
		a.msg.SplitCollections += e.Value
		if ns != nil {
			ns.splits++
		}
	case trace.KindMerge:
		a.msg.Merges++
		a.msg.MergedCollections += e.Value
		if ns != nil {
			ns.merges++
		}
	case trace.KindCrash:
		a.msg.Crashes++
		if ns != nil {
			ns.crashes++
			ns.crashed = true
		}
		if rs != nil {
			rs.Crashes++
		}
	case trace.KindRecover:
		a.msg.Recovers++
		if ns != nil {
			ns.recovers++
			ns.crashed = false
		}
		if rs != nil {
			rs.Recovers++
		}
	case trace.KindDecodeError:
		a.msg.DecodeErrors++
		if ns != nil {
			ns.decodeErrors++
		}
	case trace.KindSendDrop:
		// Budgeted degradation (full outbound queue), not an anomaly:
		// counted, never added to Anomalies.
		a.msg.SendDrops++
		if ns != nil {
			ns.sendDrops++
		}
	case trace.KindSpread:
		// The shared online detector (internal/converge) — the exact
		// state machine engine.RunUntilConverged runs, so offline and
		// online analyses can never drift apart. The causal stage
		// snapshots its critical path the moment it first fires.
		was := a.det.Converged()
		if a.det.Observe(e.Round, e.Value) && !was && a.causal != nil {
			a.causal.Converged(e.Round)
		}
		a.spread, a.spreadDropped = a.appendCapped(a.spread, Sample{Round: e.Round, Value: e.Value}, a.spreadDropped)
		if rs != nil {
			v := e.Value
			rs.Spread = &v
		}
	case trace.KindError:
		a.errSamples++
		if a.errSamples == 1 || e.Value < a.minErr {
			a.minErr = e.Value
		}
		a.lastErr = e.Value
		a.errs, a.errsDropped = a.appendCapped(a.errs, Sample{Round: e.Round, Value: e.Value}, a.errsDropped)
		if rs != nil {
			v := e.Value
			rs.Error = &v
		}
	}
	if a.causal != nil {
		a.causal.Observe(e)
	}
}

// appendCapped appends s to a probe curve, evicting the oldest half
// once the curve cap is reached (amortized O(1); dropped counts the
// evicted samples).
func (a *Analyzer) appendCapped(curve []Sample, s Sample, dropped int) ([]Sample, int) {
	if a.curveCap > 0 && len(curve) >= a.curveCap {
		cut := a.curveCap / 2
		dropped += cut
		curve = append(curve[:0], curve[cut:]...)
	}
	return append(curve, s), dropped
}

// Report renders the run state reached so far: convergence, health and
// anomaly classification are computed from the aggregates on every
// call. The report shares the probe curves with the analyzer, so a
// caller that keeps observing must copy what it retains.
func (a *Analyzer) Report() *RunReport {
	rep := &RunReport{
		Backend:       a.backend,
		Events:        a.events,
		Rounds:        a.rounds,
		Nodes:         len(a.nodes),
		Kinds:         make([]KindCount, 0, len(a.kinds)),
		Messaging:     a.msg,
		PerRound:      slices.Clone(a.perRound),
		SpreadCurve:   a.spread,
		ErrorCurve:    a.errs,
		SpreadDropped: a.spreadDropped,
		ErrorDropped:  a.errsDropped,
	}
	if a.causal != nil {
		rep.Causal = a.causal.Report()
	}
	// Live traces stamp send events with payload sizes; derive the mean
	// message size there. Sim sends carry no size, so the field stays 0
	// and is omitted, keeping sim reports byte-identical to before.
	if a.msg.Sends > 0 && a.msg.SentBytes > 0 {
		rep.Messaging.BytesPerSend = a.msg.SentBytes / float64(a.msg.Sends)
	}

	for kind, count := range a.kinds {
		//lint:allow mapiter collected and sorted below
		rep.Kinds = append(rep.Kinds, KindCount{Kind: string(kind), Count: count})
	}
	sort.Slice(rep.Kinds, func(i, j int) bool { return rep.Kinds[i].Kind < rep.Kinds[j].Kind })
	// Rows are kept in first-seen order; only traces with round
	// regressions hold them out of round order.
	slices.SortFunc(rep.PerRound, func(x, y RoundStat) int { return cmp.Compare(x.Round, y.Round) })

	det := a.det
	rep.Convergence = Convergence{
		Threshold:        det.Threshold(),
		Window:           det.Window(),
		Converged:        det.Converged(),
		ConvergedRound:   det.ConvergedRound(),
		RoundsToConverge: det.RoundsToConverge(),
		FirstStableRound: det.FirstStableRound(),
		FinalSpread:      det.LastValue(),
		MinSpread:        det.MinValue(),
		SpreadSamples:    det.Samples(),
		FinalError:       a.lastErr,
		MinError:         a.minErr,
		ErrorSamples:     a.errSamples,
	}

	// Node health, sorted by id.
	ids := make([]int, 0, len(a.nodes))
	for id := range a.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	slack := a.stallSlack
	if slack == 0 {
		slack = a.rounds / 5
		if slack < 10 {
			slack = 10
		}
	}
	for _, id := range ids {
		ns := a.nodes[id]
		h := NodeHealth{
			Node: id, Sends: ns.sends, Receives: ns.receives,
			SentBytes: ns.sentBytes,
			Splits:    ns.splits, Merges: ns.merges,
			Crashes: ns.crashes, Recovers: ns.recovers,
			DecodeErrors:      ns.decodeErrors,
			SendDrops:         ns.sendDrops,
			LastActivityRound: ns.lastActivityRound,
			Staleness:         -1,
			Crashed:           ns.crashed,
		}
		if ns.lastActivityRound >= 0 {
			h.Staleness = (a.rounds - 1) - ns.lastActivityRound
			if slack >= 0 && !ns.crashed && h.Staleness > slack {
				h.Stalled = true
				rep.Anomalies.StalledNodes = append(rep.Anomalies.StalledNodes, id)
			}
		}
		rep.NodeHealth = append(rep.NodeHealth, h)
	}

	rep.Anomalies.RoundRegressions = a.regressions
	rep.Anomalies.DecodeErrors = a.msg.DecodeErrors
	rep.Anomalies.DivergentRounds = det.DivergentSamples()
	rep.Anomalies.Count = len(rep.Anomalies.StalledNodes) +
		rep.Anomalies.DivergentRounds +
		rep.Anomalies.RoundRegressions +
		rep.Anomalies.DecodeErrors

	if n := len(rep.Anomalies.StalledNodes); n > 0 {
		rep.Anomalies.Notes = append(rep.Anomalies.Notes,
			fmt.Sprintf("%d node(s) stalled: no activity for more than %d trailing rounds", n, slack))
	}
	if rep.Anomalies.DivergentRounds > 0 {
		rep.Anomalies.Notes = append(rep.Anomalies.Notes,
			fmt.Sprintf("spread re-crossed the %g threshold %d time(s) after convergence", det.Threshold(), rep.Anomalies.DivergentRounds))
	}
	if rep.Anomalies.RoundRegressions > 0 {
		rep.Anomalies.Notes = append(rep.Anomalies.Notes,
			fmt.Sprintf("round numbers moved backwards %d time(s): trace corruption or multiple runs in one file", rep.Anomalies.RoundRegressions))
	}
	if rep.Anomalies.DecodeErrors > 0 {
		rep.Anomalies.Notes = append(rep.Anomalies.Notes,
			fmt.Sprintf("%d frame(s) failed to decode", rep.Anomalies.DecodeErrors))
	}
	return rep
}
