package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"distclass/internal/metrics"
	"distclass/internal/monitor"
	"distclass/internal/trace"
)

// monitoredRun feeds a small deterministic round run into a fresh
// monitor: a header, per-round sends/receives and a spread curve that
// converges, plus one stalled node and an exact conservation audit.
func monitoredRun() *monitor.Monitor {
	m := monitor.New()
	m.SetDetection(1e-3, 3)
	m.SetExpectedWeight(3)
	m.Record(trace.Event{Round: -1, Node: -1, Kind: trace.KindRunHeader, Backend: "round"})
	spreads := []float64{1.5, 0.4, 1e-4, 1e-5, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6}
	for round, s := range spreads {
		m.Record(trace.Event{Round: round, Node: 0, Kind: trace.KindSend, Value: 64})
		m.Record(trace.Event{Round: round, Node: 1, Kind: trace.KindReceive, Value: 1})
		// Node 2 goes silent after round 1: staleness 12 > the default
		// stall slack of 10 rounds.
		if round < 2 {
			m.Record(trace.Event{Round: round, Node: 2, Kind: trace.KindSend, Value: 64})
		}
		m.Record(trace.Event{Round: round, Node: -1, Kind: trace.KindSpread, Value: s})
		m.ObserveWeight(3)
	}
	return m
}

func TestRenderFrame(t *testing.T) {
	st := monitoredRun().Status()
	frame, err := render(&st, topConfig{width: 60, height: 10, nodeRows: -1})
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	for _, want := range []string{
		"round backend",
		"health: stalled",
		"converged at round 4 (5 rounds)",
		"(1.00/round)",
		"weight 3.0000 / 3.0000  EXACT",
		"o spread",
		"STALLED",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
	// The stalled node sorts first, before the busier healthy ones.
	stalled := strings.Index(frame, "STALLED")
	healthy := strings.Index(frame, "ok")
	if stalled > healthy {
		t.Errorf("stalled node not ranked first:\n%s", frame)
	}
}

func TestRenderNodeRowCap(t *testing.T) {
	st := monitoredRun().Status()
	frame, err := render(&st, topConfig{width: 60, height: 10, nodeRows: 1})
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(frame, "(1 of 3 nodes; raise -node-rows for more)") {
		t.Errorf("missing truncation note:\n%s", frame)
	}
	frame, err = render(&st, topConfig{width: 60, height: 10, nodeRows: 0})
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	if strings.Contains(frame, "STALLED") {
		t.Errorf("node table rendered with nodeRows=0:\n%s", frame)
	}
}

// TestRunOnceAgainstLiveEndpoint drives the full path: a monitor
// served over real HTTP, polled by run in -once mode.
func TestRunOnceAgainstLiveEndpoint(t *testing.T) {
	mux := http.NewServeMux()
	monitoredRun().Attach(mux)
	srv, err := metrics.ServeMux("127.0.0.1:0", mux)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	var out strings.Builder
	cfg := topConfig{addr: srv.Addr(), once: true, interval: time.Millisecond,
		width: 60, height: 10, nodeRows: -1}
	if err := run(&out, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "health: stalled") {
		t.Errorf("frame missing health line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "\033[") {
		t.Errorf("-once frame contains ANSI clear sequences:\n%q", out.String())
	}
}

func TestRunOnceUnreachable(t *testing.T) {
	var out strings.Builder
	cfg := topConfig{addr: "127.0.0.1:1", once: true, interval: time.Millisecond}
	if err := run(&out, cfg); err == nil {
		t.Fatal("run against a closed port succeeded")
	}
}
