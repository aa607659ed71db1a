package causal

import (
	"os"
	"path/filepath"
	"testing"

	"distclass/internal/trace"
)

// rescanReach is the reach count from first principles: every ledger
// share above reachEpsilon, counted by a full scan.
func rescanReach(a *Analyzer) int {
	total := 0
	for _, n := range a.nodes {
		for _, s := range n.row {
			total += reached(s.w)
		}
	}
	return total
}

// TestReachCountMatchesRescan streams the committed fixture through the
// stage and checks the incremental reach count against a full ledger
// rescan after every event, then after the row changes the fixture run
// does not make: debits at frac 3/4 and 1/2 that push a share below
// reachEpsilon, a credit that lifts it back, a crash and a recover.
func TestReachCountMatchesRescan(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "fixture.trace"))
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	var a *Analyzer
	check := func(what string) {
		t.Helper()
		if want := rescanReach(a); a.reach != want {
			t.Fatalf("after %s: reach count %d, rescan %d", what, a.reach, want)
		}
	}
	events := 0
	err = trace.Stream(f, func(e trace.Event) error {
		if a == nil {
			a = NewAnalyzer(e, true)
		}
		a.Observe(e)
		events++
		check(string(e.Kind))
		return nil
	})
	if err != nil {
		t.Fatalf("stream fixture: %v", err)
	}
	if a == nil || a.reach <= len(a.nodes) {
		t.Fatalf("fixture too small to mix: %d events", events)
	}
	// Node 1 hands node 0 a share of 2e-12; node 0 then sends on 3/4 of
	// its row, which leaves that share at 5e-13, below reachEpsilon, and
	// node 2 sends back 3/4 of its row, which lifts it above again.
	seq := uint64(1 << 32)
	transfer := func(src, dst int, w float64) {
		seq++
		a.Observe(trace.Event{Round: -1, Node: src, Kind: trace.KindSend, Seq: seq, Peer: dst, Clock: seq, Weight: w})
		check("send")
		a.Observe(trace.Event{Round: -1, Node: dst, Kind: trace.KindReceive, Seq: seq, Peer: src, Clock: seq + 1, Weight: w})
		check("receive")
	}
	a = NewAnalyzer(trace.CausalRunHeader("test"), true)
	transfer(1, 0, 2e-12)
	transfer(0, 2, 0.75*(1+2e-12))
	if s := a.nodes[0].row[1]; s.origin != 1 || reached(s.w) != 0 {
		t.Fatalf("node 0 holds %+v of origin 1, want a share below reachEpsilon", s)
	}
	transfer(2, 0, 0.75*(1.75+1.5e-12))
	if s := a.nodes[0].row[1]; reached(s.w) != 1 {
		t.Fatalf("node 0 holds %+v of origin 1, want a share above reachEpsilon", s)
	}
	// Node 0 now holds 1.625e-12 of origin 1, under 2·reachEpsilon, so
	// sending on half its row drops that share below reachEpsilon.
	transfer(0, 3, 0.5*(1.5625+1.625e-12))
	if s := a.nodes[0].row[1]; reached(s.w) != 0 {
		t.Fatalf("node 0 holds %+v of origin 1, want a share below reachEpsilon", s)
	}
	a.Observe(trace.Event{Round: -1, Node: 3, Kind: trace.KindCrash})
	check("crash")
	a.Observe(trace.Event{Round: -1, Node: 3, Kind: trace.KindRecover})
	check("recover")
}
