package causal_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"distclass/internal/causal"
	"distclass/internal/replay"
	"distclass/internal/trace"
)

// stream renders events as a JSONL trace for replay.Analyze.
func stream(t *testing.T, events ...trace.Event) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return bytes.NewReader(buf.Bytes())
}

// analyzeWith replays the given events and returns the causal section
// of the report.
func analyzeWith(t *testing.T, opts replay.Options, events ...trace.Event) *causal.Report {
	t.Helper()
	rep, err := replay.Analyze(stream(t, events...), opts)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Causal == nil {
		t.Fatal("no causal section")
	}
	return rep.Causal
}

// analyze runs analyzeWith with default options.
func analyze(t *testing.T, events ...trace.Event) *causal.Report {
	t.Helper()
	return analyzeWith(t, replay.Options{}, events...)
}

// send and recv build causal transfer events.
func send(src, dst int, seq, clock uint64, w float64) trace.Event {
	return trace.Event{Round: -1, Node: src, Kind: trace.KindSend, Seq: seq, Peer: dst, Clock: clock, Weight: w}
}

func recv(dst, src int, seq, clock uint64, w float64) trace.Event {
	return trace.Event{Round: -1, Node: dst, Kind: trace.KindReceive, Value: 1, Seq: seq, Peer: src, Clock: clock, Weight: w}
}

func header() trace.Event { return trace.CausalRunHeader("test") }

func anomalyTypes(rep *causal.Report) []string {
	out := make([]string, len(rep.Anomalies))
	for i, a := range rep.Anomalies {
		out[i] = a.Type
	}
	return out
}

// TestAnalyzeRequiresCausalHeader pins the switch: only a schema-2 run
// header starts the causal stage, so a trace without one gets no
// causal section.
func TestAnalyzeRequiresCausalHeader(t *testing.T) {
	transfer := []trace.Event{send(0, 1, 1, 1, 0.5), recv(1, 0, 1, 2, 0.5)}
	cases := []struct {
		name   string
		events []trace.Event
		want   bool
	}{
		{"empty", nil, false},
		{"no header", transfer, false},
		{"schema base", append([]trace.Event{trace.RunHeader("round")}, transfer...), false},
		{"schema causal", append([]trace.Event{header()}, transfer...), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := replay.Analyze(stream(t, tc.events...), replay.Options{})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if got := rep.Causal != nil; got != tc.want {
				t.Errorf("causal section present = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestMatchedTransfer(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.5),
		recv(1, 0, 1, 2, 0.5),
	)
	if rep.Sends != 1 || rep.Receives != 1 || rep.Matched != 1 {
		t.Errorf("sends/receives/matched = %d/%d/%d, want 1/1/1", rep.Sends, rep.Receives, rep.Matched)
	}
	if len(rep.Anomalies) != 0 {
		t.Errorf("anomalies = %v, want none", anomalyTypes(rep))
	}
	if rep.MaxClock != 2 || rep.ClockSkew != 1 {
		t.Errorf("clock max/skew = %d/%d, want 2/1", rep.MaxClock, rep.ClockSkew)
	}
	if rep.MaxDepth != 1 {
		t.Errorf("max depth = %d, want 1", rep.MaxDepth)
	}
	lr := rep.Ledger
	if lr.ExpectedTotal != 2 || lr.MaxColumnDrift != 0 {
		t.Errorf("ledger expected %v drift %v, want 2 and 0", lr.ExpectedTotal, lr.MaxColumnDrift)
	}
	// Node 1 now holds half of origin 0's weight: reach 2 for origin 0.
	if lr.Origins[0].Reach != 2 || lr.Origins[1].Reach != 1 {
		t.Errorf("reach = %d/%d, want 2/1", lr.Origins[0].Reach, lr.Origins[1].Reach)
	}
}

func TestReceiveBeforeSendInStream(t *testing.T) {
	rep := analyze(t,
		header(),
		recv(1, 0, 1, 2, 0.5),
		send(0, 1, 1, 1, 0.5),
	)
	if rep.Matched != 1 || len(rep.Anomalies) != 0 {
		t.Errorf("matched = %d anomalies = %v, want 1 match and none", rep.Matched, anomalyTypes(rep))
	}
	if rep.Ledger.MaxColumnDrift != 0 {
		t.Errorf("drift = %v, want 0", rep.Ledger.MaxColumnDrift)
	}
}

func TestOrphanSend(t *testing.T) {
	rep := analyze(t, header(), send(0, 1, 1, 1, 0.5))
	if rep.OrphanSends != 1 {
		t.Fatalf("orphan sends = %d, want 1", rep.OrphanSends)
	}
	types := anomalyTypes(rep)
	if len(types) != 1 || types[0] != "orphan-send" {
		t.Errorf("anomalies = %v, want one orphan-send", types)
	}
	// The undelivered weight is in flight, so the books still balance.
	if math.Abs(rep.Ledger.InFlight-0.5) > 1e-15 {
		t.Errorf("in-flight = %v, want 0.5", rep.Ledger.InFlight)
	}
	if math.Abs(rep.Ledger.ActualTotal-rep.Ledger.ExpectedTotal) > 1e-12 {
		t.Errorf("actual %v vs expected %v", rep.Ledger.ActualTotal, rep.Ledger.ExpectedTotal)
	}
}

func TestOrphanSendExplainedByCrash(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.5),
		trace.Event{Round: -1, Node: 1, Kind: trace.KindCrash, Value: 1},
	)
	if rep.OrphanSends != 1 || rep.Crashes != 1 {
		t.Fatalf("orphans/crashes = %d/%d, want 1/1", rep.OrphanSends, rep.Crashes)
	}
	if len(rep.Anomalies) != 0 {
		t.Errorf("anomalies = %v, want none (crash explains the loss)", anomalyTypes(rep))
	}
	// Node 1's held weight is destroyed; origin 1's expectation drops.
	if rep.Ledger.Origins[1].Expected != 0 {
		t.Errorf("origin 1 expected = %v, want 0 after crash", rep.Ledger.Origins[1].Expected)
	}
	if rep.Ledger.Destroyed != 1 {
		t.Errorf("destroyed = %v, want 1", rep.Ledger.Destroyed)
	}
}

func TestUnmatchedReceive(t *testing.T) {
	rep := analyze(t, header(), recv(1, 0, 7, 3, 0.25))
	if rep.UnmatchedReceives != 1 {
		t.Fatalf("unmatched receives = %d, want 1", rep.UnmatchedReceives)
	}
	types := anomalyTypes(rep)
	if len(types) != 1 || types[0] != "unmatched-receive" {
		t.Errorf("anomalies = %v, want one unmatched-receive", types)
	}
}

func TestDuplicateReceive(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.5),
		recv(1, 0, 1, 2, 0.5),
		recv(1, 0, 1, 3, 0.5),
	)
	if rep.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", rep.Duplicates)
	}
	types := anomalyTypes(rep)
	if len(types) != 1 || types[0] != "duplicate-receive" {
		t.Errorf("anomalies = %v, want one duplicate-receive", types)
	}
	// The duplicate must not double-credit the ledger.
	if rep.Ledger.MaxColumnDrift != 0 {
		t.Errorf("drift = %v, want 0", rep.Ledger.MaxColumnDrift)
	}
}

func TestDuplicateSend(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.25),
		send(0, 1, 1, 2, 0.25),
		recv(1, 0, 1, 3, 0.25),
	)
	if rep.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", rep.Duplicates)
	}
	if got := anomalyTypes(rep); got[0] != "duplicate-send" {
		t.Errorf("anomalies = %v, want duplicate-send first", got)
	}
}

func TestClockRegression(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 5, 0.5),
		recv(1, 0, 1, 5, 0.5),
	)
	types := anomalyTypes(rep)
	if len(types) != 1 || types[0] != "clock-regression" {
		t.Errorf("anomalies = %v, want one clock-regression", types)
	}
}

func TestWeightMismatch(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.5),
		recv(1, 0, 1, 2, 0.25),
	)
	types := anomalyTypes(rep)
	if len(types) != 1 || types[0] != "weight-mismatch" {
		t.Errorf("anomalies = %v, want one weight-mismatch", types)
	}
}

func TestMisrouted(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.5),
		recv(2, 0, 1, 2, 0.5),
	)
	types := anomalyTypes(rep)
	if len(types) != 1 || types[0] != "misrouted" {
		t.Errorf("anomalies = %v, want one misrouted", types)
	}
}

func TestRecoverCreatesWeight(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.5),
		recv(1, 0, 1, 2, 0.5),
		trace.Event{Round: -1, Node: 0, Kind: trace.KindCrash, Value: 0.5},
		trace.Event{Round: -1, Node: 0, Kind: trace.KindRecover, Value: 1},
	)
	// After the crash node 0's half-unit of origin-0 weight is gone;
	// recover re-creates a fresh unit at origin 0.
	if got := rep.Ledger.Origins[0].Expected; math.Abs(got-1.5) > 1e-15 {
		t.Errorf("origin 0 expected = %v, want 1.5", got)
	}
	if math.Abs(rep.Ledger.ActualTotal-rep.Ledger.ExpectedTotal) > 1e-12 {
		t.Errorf("actual %v vs expected %v", rep.Ledger.ActualTotal, rep.Ledger.ExpectedTotal)
	}
}

func TestCriticalPathSnapshotAtConvergence(t *testing.T) {
	spread := func(round int, v float64) trace.Event {
		return trace.Event{Round: round, Node: -1, Kind: trace.KindSpread, Value: v}
	}
	rep := analyzeWith(t, replay.Options{Threshold: 0.05, Window: 3},
		header(),
		send(0, 1, 1, 1, 0.5),
		recv(1, 0, 1, 2, 0.5),
		send(1, 2, 1, 3, 0.75),
		recv(2, 1, 1, 4, 0.75),
		spread(0, 0.01), spread(1, 0.01), spread(2, 0.01),
		// After convergence another hop extends the chain; the critical
		// path must stay the convergence-time snapshot.
		send(2, 0, 1, 5, 0.5),
		recv(0, 2, 1, 6, 0.5),
	)
	if !rep.Converged || rep.ConvergedRound != 2 {
		t.Fatalf("converged=%v round=%d, want true at round 2", rep.Converged, rep.ConvergedRound)
	}
	if len(rep.CriticalPath) != 2 {
		t.Fatalf("critical path = %d hops, want the 2-hop convergence-time chain", len(rep.CriticalPath))
	}
	if rep.CriticalPath[0].Src != 0 || rep.CriticalPath[1].Dst != 2 {
		t.Errorf("path = %+v, want 0->1 then 1->2", rep.CriticalPath)
	}
	// The post-convergence hop still deepens the final histogram.
	if rep.MaxDepth != 3 {
		t.Errorf("max depth = %d, want 3", rep.MaxDepth)
	}
}

func TestPullEventsIgnored(t *testing.T) {
	// Pull requests carry Seq 0 — no weight moves, nothing to match.
	rep := analyze(t,
		header(),
		trace.Event{Round: -1, Node: 0, Kind: trace.KindSend, Value: 0},
		trace.Event{Round: -1, Node: 1, Kind: trace.KindReceive, Value: 2},
	)
	if rep.Sends != 0 || rep.Receives != 0 || len(rep.Anomalies) != 0 {
		t.Errorf("sends/receives/anomalies = %d/%d/%v, want all zero", rep.Sends, rep.Receives, anomalyTypes(rep))
	}
}

func TestRendersAreDeterministic(t *testing.T) {
	rep := analyze(t,
		header(),
		send(0, 1, 1, 1, 0.5),
		recv(1, 0, 1, 2, 0.5),
		send(1, 0, 1, 3, 0.75),
	)
	var t1, t2, j1, j2 bytes.Buffer
	if err := rep.WriteText(&t1); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := rep.WriteText(&t2); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if err := rep.WriteJSON(&j1); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := rep.WriteJSON(&j2); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) || !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Errorf("renders of the same report differ")
	}
}
