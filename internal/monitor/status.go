package monitor

import (
	"math"

	"distclass/internal/replay"
)

// Health states reported by Status().Health and /health. Severity
// order (healthiest last): diverged < stalled < converging < converged.
const (
	// HealthConverged: the convergence window completed and the latest
	// sample is back (or still) below the threshold. Past blips above it
	// stay visible in Convergence.DivergentSamples without pinning the
	// health — /health is a readiness probe, and a recovered run is
	// ready again.
	HealthConverged = "converged"
	// HealthConverging: the run is live and making progress.
	HealthConverging = "converging"
	// HealthStalled: at least one never-crashed node fell silent beyond
	// the stall slack.
	HealthStalled = "stalled"
	// HealthDiverged: spread is at or above the threshold right now
	// after the run had converged, or the conservation audit ever saw
	// weight appear from nowhere (that one is sticky — surplus weight is
	// always a bug).
	HealthDiverged = "diverged"
)

// Convergence is the online detector's view of the run.
type Convergence struct {
	Threshold        float64 `json:"threshold"`
	Window           int     `json:"window"`
	Converged        bool    `json:"converged"`
	ConvergedRound   int     `json:"converged_round"`
	RoundsToConverge int     `json:"rounds_to_converge"`
	FirstStableRound int     `json:"first_stable_round"`
	DivergentSamples int     `json:"divergent_samples"`
	Samples          int     `json:"samples"`
	LastSpread       float64 `json:"last_spread"`
	MinSpread        float64 `json:"min_spread"`
}

// Messaging aggregates the run's message complexity. Rates are
// per-round (never per-second: wall-clock rates would break /status
// determinism and mean nothing for round-driven sims).
type Messaging struct {
	Sends     int     `json:"sends"`
	Receives  int     `json:"receives"`
	SentBytes float64 `json:"sent_bytes"`
	// BytesPerSend is SentBytes/Sends — the live mean encoded message
	// size, the number the wire codec and frame batching shrink. Omitted
	// (0) for sim runs, whose sends carry no sizes, so pre-existing
	// /status snapshots keep their exact bytes.
	BytesPerSend        float64 `json:"bytes_per_send,omitempty"`
	ReceivedCollections float64 `json:"received_collections"`
	Splits              int     `json:"splits"`
	Merges              int     `json:"merges"`
	SendDrops           int     `json:"send_drops"`
	DecodeErrors        int     `json:"decode_errors"`
	SendsPerRound       float64 `json:"sends_per_round"`
	ReceivesPerRound    float64 `json:"receives_per_round"`
}

// Conservation is the weight-audit snapshot. Exact means the latest
// sample equals the expected total bit for bit; Violations
// counts samples where weight exceeded the expectation — weight from
// nowhere, always a bug. A transient deficit (negative drift) is
// normal on wire backends while weight is in flight.
type Conservation struct {
	Audited    bool    `json:"audited"`
	Expected   float64 `json:"expected"`
	Latest     float64 `json:"latest"`
	Drift      float64 `json:"drift"`
	MaxDrift   float64 `json:"max_drift"`
	Exact      bool    `json:"exact"`
	Violations int     `json:"violations"`
	Samples    int     `json:"samples"`
}

// CausalStatus is the live view of a causal (schema-2) run: Lamport
// clock dispersion and dissemination depth, read from the analyzer's
// causal stage, so they equal distclass-analyze's causal section for
// the same events. It is present in Status only when the monitored
// trace carries a schema-2 run header, so pre-causal /status
// snapshots keep their exact bytes.
type CausalStatus struct {
	// MaxClock and MinClock are the most- and least-advanced node
	// Lamport clocks; ClockSkew is their gap — how far the least
	// recently informed node lags the frontier.
	MaxClock  uint64 `json:"max_clock"`
	MinClock  uint64 `json:"min_clock"`
	ClockSkew uint64 `json:"clock_skew"`
	// MaxDepth and MeanDepth summarize the per-node dissemination
	// depth: the length of the longest message chain that influenced
	// each node's state.
	MaxDepth  int     `json:"max_depth"`
	MeanDepth float64 `json:"mean_depth"`
}

// Status is one deterministic snapshot of the monitored run. It holds
// no wall-clock fields: a fixed-seed deterministic run serializes to
// byte-identical JSON on every execution.
type Status struct {
	Backend      string             `json:"backend"`
	Health       string             `json:"health"`
	Events       int                `json:"events"`
	Rounds       int                `json:"rounds"`
	Nodes        int                `json:"nodes"`
	Kinds        []replay.KindCount `json:"kinds"`
	Convergence  Convergence        `json:"convergence"`
	Messaging    Messaging          `json:"messaging"`
	Conservation Conservation       `json:"conservation"`
	// Causal is non-nil only for causal (schema-2) runs — absent, the
	// field marshals to nothing and pre-causal snapshots stay
	// byte-identical.
	Causal *CausalStatus `json:"causal,omitempty"`
	// NodeHealth has the replay analyzer's rows and stall rule. Live
	// runs' rows also carry sent_bytes; sim rows omit it (their sends
	// carry no size).
	NodeHealth []replay.NodeHealth `json:"node_health"`
	// SpreadCurve and ErrorCurve are the retained probe curves (the
	// oldest samples beyond the monitor's curve cap dropped; the
	// Dropped counters say how many).
	SpreadCurve   []replay.Sample `json:"spread_curve"`
	ErrorCurve    []replay.Sample `json:"error_curve"`
	SpreadDropped int             `json:"spread_dropped"`
	ErrorDropped  int             `json:"error_dropped"`
}

// Status renders the monitor's state as one snapshot.
func (m *Monitor) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()

	rep := m.run.Report()
	c, msg := rep.Convergence, rep.Messaging
	s := Status{
		Backend: rep.Backend,
		Events:  rep.Events,
		Rounds:  rep.Rounds,
		Nodes:   rep.Nodes,
		Kinds:   rep.Kinds,
		Convergence: Convergence{
			Threshold:        c.Threshold,
			Window:           c.Window,
			Converged:        c.Converged,
			ConvergedRound:   c.ConvergedRound,
			RoundsToConverge: c.RoundsToConverge,
			FirstStableRound: c.FirstStableRound,
			DivergentSamples: rep.Anomalies.DivergentRounds,
			Samples:          c.SpreadSamples,
			LastSpread:       c.FinalSpread,
			MinSpread:        c.MinSpread,
		},
		Messaging: Messaging{
			Sends: msg.Sends, Receives: msg.Receives,
			SentBytes:           msg.SentBytes,
			BytesPerSend:        msg.BytesPerSend,
			ReceivedCollections: msg.ReceivedCollections,
			Splits:              msg.Splits, Merges: msg.Merges,
			SendDrops:    msg.SendDrops,
			DecodeErrors: msg.DecodeErrors,
		},
		Conservation: Conservation{
			Audited:    m.expectedSet,
			Expected:   m.expected,
			Latest:     m.latestWeight,
			MaxDrift:   m.maxAbsDrift,
			Violations: m.violations,
			Samples:    m.weightSeen,
		},
		NodeHealth: rep.NodeHealth,
		// The report shares its curves with the live analyzer; copy
		// them out before the lock is released.
		SpreadCurve:   append([]replay.Sample(nil), rep.SpreadCurve...),
		ErrorCurve:    append([]replay.Sample(nil), rep.ErrorCurve...),
		SpreadDropped: rep.SpreadDropped,
		ErrorDropped:  rep.ErrorDropped,
	}
	if s.Backend == "" {
		s.Backend = m.backend
	}
	if rep.Rounds > 0 {
		s.Messaging.SendsPerRound = float64(msg.Sends) / float64(rep.Rounds)
		s.Messaging.ReceivesPerRound = float64(msg.Receives) / float64(rep.Rounds)
	}
	if m.expectedSet && m.weightSeen > 0 {
		s.Conservation.Drift = m.latestWeight - m.expected
		s.Conservation.Exact = math.Float64bits(m.latestWeight) == math.Float64bits(m.expected)
	}

	if cr := rep.Causal; cr != nil {
		cs := &CausalStatus{
			MaxClock:  cr.MaxClock,
			MinClock:  cr.MaxClock - cr.ClockSkew,
			ClockSkew: cr.ClockSkew,
			MaxDepth:  cr.MaxDepth,
		}
		var depthSum, nodes int
		for _, b := range cr.DepthHistogram {
			depthSum += b.Depth * b.Count
			nodes += b.Count
		}
		if nodes > 0 {
			cs.MeanDepth = float64(depthSum) / float64(nodes)
		}
		s.Causal = cs
	}

	// Diverged right now: the window completed, but the latest sample
	// is back at or above the threshold (the detector's own test,
	// negated, so a NaN sample counts as divergent as it does there).
	divergedNow := c.Converged && !(c.FinalSpread < c.Threshold)
	switch {
	case m.violations > 0 || divergedNow:
		s.Health = HealthDiverged
	case len(rep.Anomalies.StalledNodes) > 0:
		s.Health = HealthStalled
	case c.Converged:
		s.Health = HealthConverged
	default:
		s.Health = HealthConverging
	}
	return s
}

// Healthy reports whether the run is in a ready state: converged with
// no divergence, stall or conservation violation. /health maps it to
// 200 vs 503.
func (m *Monitor) Healthy() (string, bool) {
	s := m.Status()
	return s.Health, s.Health == HealthConverged
}
