package causal

import (
	"testing"

	"distclass/internal/trace"
)

// TestStateStaysAtInFlightSize streams 10⁵ matched transfers among 4
// nodes, alternating send-first and receive-first order, through the
// stage with and without provenance: the message, pending and
// in-flight tables must never hold more than the one transfer in
// flight, duplicate detection must keep one run of sequence numbers
// per sender, and without provenance no ledger row may exist.
func TestStateStaysAtInFlightSize(t *testing.T) {
	const (
		nodes     = 4
		transfers = 100_000
	)
	for _, provenance := range []bool{true, false} {
		a := NewAnalyzer(trace.CausalRunHeader("test"), provenance)
		seq := make([]uint64, nodes)
		clock := uint64(0)
		largest := 0
		for i := 0; i < transfers; i++ {
			src, dst := i%nodes, (i+1)%nodes
			seq[src]++
			clock++
			s := trace.Event{Round: -1, Node: src, Kind: trace.KindSend, Seq: seq[src], Peer: dst, Clock: clock, Weight: 0.5}
			r := trace.Event{Round: -1, Node: dst, Kind: trace.KindReceive, Value: 1, Seq: seq[src], Peer: src, Clock: clock + 1, Weight: 0.5}
			first, second := s, r
			if i%2 == 1 {
				first, second = r, s
			}
			a.Observe(first)
			largest = max(largest, len(a.msgs)+len(a.pendingRecv), len(a.inflight))
			a.Observe(second)
			largest = max(largest, len(a.msgs)+len(a.pendingRecv), len(a.inflight))
		}
		rep := a.Report()
		if rep.Matched != transfers || len(rep.Anomalies) != 0 {
			t.Fatalf("provenance=%v: matched %d of %d, anomalies %v", provenance, rep.Matched, transfers, rep.Anomalies)
		}
		if largest > 1 {
			t.Errorf("provenance=%v: tables held %d unmatched messages, want at most 1", provenance, largest)
		}
		if len(a.msgs)+len(a.pendingRecv)+len(a.inflight) != 0 {
			t.Errorf("provenance=%v: %d/%d/%d entries left after every transfer matched",
				provenance, len(a.msgs), len(a.pendingRecv), len(a.inflight))
		}
		for id, n := range a.nodes {
			if len(n.sent) != 1 {
				t.Errorf("provenance=%v: node %d keeps %d sequence runs, want 1", provenance, id, len(n.sent))
			}
			if !provenance && (n.row != nil || n.last != nil) {
				t.Errorf("node %d keeps a ledger row or back-chain without provenance", id)
			}
		}
	}
}

// TestSeqRuns pins the run set: duplicates found in any order, runs
// merged when a gap fills, and a gap that never fills costs one run.
func TestSeqRuns(t *testing.T) {
	var s seqRuns
	for _, seq := range []uint64{1, 2, 5, 4, 9, 3} {
		if !s.add(seq) {
			t.Fatalf("add(%d) reported a duplicate", seq)
		}
	}
	if want := (seqRuns{{1, 5}, {9, 9}}); len(s) != len(want) || s[0] != want[0] || s[1] != want[1] {
		t.Fatalf("runs = %v, want %v", s, want)
	}
	for _, seq := range []uint64{1, 3, 5, 9} {
		if s.add(seq) || !s.has(seq) {
			t.Errorf("seq %d not recognized as seen", seq)
		}
	}
	for _, seq := range []uint64{6, 8, 10} {
		if s.has(seq) {
			t.Errorf("seq %d reported seen", seq)
		}
	}
}
