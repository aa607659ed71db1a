// Package monitor is the live half of the observability story: an
// in-process observer that watches a *running* cluster instead of
// autopsying its trace after the fact. It attaches to any engine
// backend as a tee trace.Sink (trace.Tee) and keeps its run state
// under one mutex:
//
//   - the run analysis itself — convergence detection, per-node health
//     with the stall rule, message accounting and event-kind tallies —
//     is a replay.Analyzer, the same incremental state distclass-analyze
//     streams a trace file into, so /status and an offline report of
//     the same events cannot disagree;
//   - a continuous weight-conservation audit fed by the engine
//     (ObserveWeight), with crash/recover events adjusting the
//     expected total by the weight they destroy or add;
//   - the causal clock and dissemination-depth estimate of schema-2
//     runs;
//   - a ring of recent events for /events.
//
// Status() renders the whole state as one deterministic snapshot —
// no wall-clock fields, all slices sorted — so a fixed-seed
// deterministic run produces byte-identical /status JSON. The HTTP
// handlers in http.go expose Status, a readiness-style health check
// and a filtered JSONL tail of recent events.
package monitor

import (
	"math"
	"sync"

	"distclass/internal/replay"
	"distclass/internal/trace"
)

const (
	// eventBuffer caps the ring of recent events served by /events.
	eventBuffer = 4096
	// curveCap caps each retained spread/error curve; the oldest half
	// is dropped beyond it. A capped analyzer also keeps no per-round
	// table (Status renders none), so the monitor's memory stays
	// O(nodes + curveCap) on long-lived deployments.
	curveCap = 65536
)

// Monitor is the online observer. All methods are safe for concurrent
// use; Record never returns an error (the tee therefore never fails a
// run on the monitor's account).
type Monitor struct {
	mu sync.Mutex

	run     *replay.Analyzer // guarded by mu
	backend string           // guarded by mu; SetBackend's name, until a run header names one

	// Conservation audit. expectedSet gates the audit: until the
	// engine (or a caller) declares the expected total, weight samples
	// are recorded but never judged.
	expected     float64 // guarded by mu
	expectedSet  bool    // guarded by mu
	latestWeight float64 // guarded by mu
	weightSeen   int     // guarded by mu
	maxAbsDrift  float64 // guarded by mu
	violations   int     // guarded by mu; samples above expected

	// Causal (schema-2) tracking, active once a causal run header or a
	// clocked event arrives. nodeClock is each node's latest Lamport
	// timestamp; nodeDepth is the online dissemination-depth estimate
	// (a receive extends the sender's chain by one, as of the sender's
	// depth when the receive is processed — the exact value is the
	// offline analyzer's job, internal/causal).
	causalSeen bool           // guarded by mu
	nodeClock  map[int]uint64 // guarded by mu
	nodeDepth  map[int]int    // guarded by mu

	ring     []trace.Event // guarded by mu
	ringNext int           // guarded by mu; next write; len(ring) == cap once wrapped
}

var _ trace.Sink = (*Monitor)(nil)

// New builds a monitor with the default convergence detection
// (converge.DefaultThreshold and DefaultWindow); SetDetection changes
// it.
func New() *Monitor {
	return &Monitor{
		run:       replay.NewAnalyzer(replay.Options{}, curveCap),
		nodeClock: make(map[int]uint64),
		nodeDepth: make(map[int]int),
		ring:      make([]trace.Event, 0, eventBuffer),
	}
}

// SetDetection replaces the convergence detector's parameters. The
// engine calls it at attach time, before any event flows, with its
// resolved Tolerance/Window. Changing the parameters mid-run would
// retroactively change what "converged" meant, so the run analysis
// starts over from an empty state.
func (m *Monitor) SetDetection(threshold float64, window int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.run = replay.NewAnalyzer(replay.Options{Threshold: threshold, Window: window}, curveCap)
}

// SetBackend names the substrate the monitored run executes on. A
// run-header trace event, when one arrives, names it instead.
func (m *Monitor) SetBackend(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.backend = name
}

// SetExpectedWeight arms the conservation audit: the total weight the
// alive nodes are expected to hold (the node count, for a fresh run).
func (m *Monitor) SetExpectedWeight(w float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expected = w
	m.expectedSet = true
}

// AddExpectedWeight shifts the expected total, e.g. by -destroyed
// after an explicit kill the engine accounted itself. Crash and
// recover trace events adjust the expectation automatically via their
// Value field; this is for callers that bypass the trace.
func (m *Monitor) AddExpectedWeight(dw float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.expected += dw
}

// ObserveWeight feeds one conservation-audit sample: the weight
// currently held at alive nodes (plus whatever in-flight weight the
// backend can account). Weights are multiples of a power-of-two
// quantum on every backend, wire included, so sums are exact and any
// surplus over the expected total is a violation — weight must never
// appear from nowhere. A deficit is recorded but not judged here: on
// wire backends weight legitimately rides the queues between samples.
func (m *Monitor) ObserveWeight(total float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.latestWeight = total
	m.weightSeen++
	if !m.expectedSet {
		return
	}
	drift := total - m.expected
	if a := math.Abs(drift); a > m.maxAbsDrift {
		m.maxAbsDrift = a
	}
	if total > m.expected {
		m.violations++
	}
}

// Record implements trace.Sink: it folds the event into the shared run
// analysis, then applies the monitor's own audit, causal and ring
// bookkeeping. It never returns an error.
func (m *Monitor) Record(e trace.Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()

	m.run.Observe(e)
	if e.Clock > 0 && e.Node >= 0 {
		m.causalSeen = true
		if e.Clock > m.nodeClock[e.Node] {
			m.nodeClock[e.Node] = e.Clock
		}
		if e.Kind == trace.KindReceive && e.Seq > 0 && e.Peer >= 0 {
			if d := m.nodeDepth[e.Peer] + 1; d > m.nodeDepth[e.Node] {
				m.nodeDepth[e.Node] = d
			}
		}
	}
	switch e.Kind {
	case trace.KindRunHeader:
		if e.Schema >= trace.SchemaCausal {
			m.causalSeen = true
		}
	case trace.KindCrash:
		// The event's Value is the weight the crash destroyed (engine
		// kills report it; driver-internal crashes record 0 and the
		// audit surfaces the unmeasured loss as negative drift).
		if m.expectedSet {
			m.expected -= e.Value
		}
	case trace.KindRecover:
		if m.expectedSet {
			m.expected += e.Value
		}
	}

	// Ring buffer of recent events for /events.
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, e)
	} else {
		m.ring[m.ringNext] = e
		m.ringNext = (m.ringNext + 1) % cap(m.ring)
	}
	return nil
}

// Events returns up to n of the most recent buffered events, oldest
// first, keeping only the given kinds (nil or empty keeps every kind).
func (m *Monitor) Events(kinds map[trace.Kind]bool, n int) []trace.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	ordered := make([]trace.Event, 0, len(m.ring))
	if len(m.ring) == cap(m.ring) && m.ringNext > 0 {
		ordered = append(ordered, m.ring[m.ringNext:]...)
		ordered = append(ordered, m.ring[:m.ringNext]...)
	} else {
		ordered = append(ordered, m.ring...)
	}
	if len(kinds) > 0 {
		kept := ordered[:0]
		for _, e := range ordered {
			if kinds[e.Kind] {
				kept = append(kept, e)
			}
		}
		ordered = kept
	}
	if n > 0 && len(ordered) > n {
		ordered = ordered[len(ordered)-n:]
	}
	return ordered
}
