package main

import (
	"os"
	"strings"
	"testing"

	"distclass/internal/trace"
)

func TestRunValidation(t *testing.T) {
	tests := []struct {
		name string
		call func() error
		want string
	}{
		{
			"unknown method",
			func() error {
				return run(10, 2, "bogus", "full", "round", "push", "push", 1, 5, 10, 0, 2, 1, false, "", false, "", "", "v2", 0)
			},
			"unknown method",
		},
		{
			"unknown policy",
			func() error {
				return run(10, 2, "gm", "full", "round", "bogus", "push", 1, 5, 10, 0, 2, 1, false, "", false, "", "", "v2", 0)
			},
			"unknown policy",
		},
		{
			"unknown mode",
			func() error {
				return run(10, 2, "gm", "full", "round", "push", "bogus", 1, 5, 10, 0, 2, 1, false, "", false, "", "", "v2", 0)
			},
			"unknown mode",
		},
		{
			"bad clusters",
			func() error {
				return run(10, 2, "gm", "full", "round", "push", "push", 1, 5, 10, 0, 0, 1, false, "", false, "", "", "v2", 0)
			},
			"clusters",
		},
		{
			"bad topology",
			func() error {
				return run(10, 2, "gm", "nope", "round", "push", "push", 1, 5, 10, 0, 2, 1, false, "", false, "", "", "v2", 0)
			},
			"unknown kind",
		},
		{
			"unknown backend",
			func() error {
				return run(10, 2, "gm", "full", "bogus", "push", "push", 1, 5, 10, 0, 2, 1, false, "", false, "", "", "v2", 0)
			},
			"unknown backend",
		},
		{
			"live backend rejected",
			func() error {
				return run(10, 2, "gm", "full", "pipe", "push", "push", 1, 5, 10, 0, 2, 1, false, "", false, "", "", "v2", 0)
			},
			"StartLive",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.call()
			if err == nil {
				t.Fatalf("expected error containing %q", tt.want)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error = %v, want containing %q", err, tt.want)
			}
		})
	}
}

func TestRunFixedRounds(t *testing.T) {
	if err := run(12, 2, "centroids", "ring", "round", "roundrobin", "pushpull", 3, 8, 10, 0, 2, 0.5, false, "", false, "", "", "v2", 0); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunUntilConverged(t *testing.T) {
	if err := run(16, 2, "gm", "full", "round", "push", "pull", 5, 0, 120, 0, 2, 0.5, true, "", false, "", "", "v2", 0); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithCrashes(t *testing.T) {
	if err := run(20, 2, "gm", "full", "round", "push", "push", 7, 10, 10, 0.1, 2, 1, false, "", false, "", "", "v2", 0); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunAsyncBackend(t *testing.T) {
	if err := run(12, 2, "gm", "full", "async", "push", "push", 11, 0, 200, 0, 2, 0.5, false, "", false, "", "", "v2", 0); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunWithTraceAndPlot(t *testing.T) {
	dir := t.TempDir()
	traceFile := dir + "/trace.jsonl"
	metricsFile := dir + "/metrics.json"
	if err := run(10, 2, "gm", "full", "round", "push", "push", 9, 6, 10, 0, 2, 0.5, true, traceFile, false, metricsFile, "", "v2", 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !strings.Contains(string(data), "\"kind\":\"classification\"") {
		t.Errorf("trace missing classification events:\n%s", data)
	}
	if !strings.Contains(string(data), "\"kind\":\"spread\"") {
		t.Errorf("trace missing spread events")
	}
	if !strings.Contains(string(data), "\"kind\":\"split\"") {
		t.Errorf("trace missing split events")
	}
	snap, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	for _, name := range []string{"core.splits", "sim.messages_sent", "sim.spread"} {
		if !strings.Contains(string(snap), name) {
			t.Errorf("metrics snapshot missing %s:\n%s", name, snap)
		}
	}
}

func TestRunWithMonitor(t *testing.T) {
	// Batch sims serve the monitor only while run executes, so assert
	// on the final state through the monitor it leaves behind is not
	// possible from outside; the run succeeding with the endpoint bound
	// (any free port) is the CLI contract, and the monitor internals
	// are covered in internal/monitor and cmd/experiments.
	if err := run(12, 2, "gm", "full", "round", "push", "push", 3, 0, 120, 0, 2, 0.5, false, "", false, "", "127.0.0.1:0", "v2", 0); err != nil {
		t.Fatalf("run with -monitor: %v", err)
	}
}

// TestRunWithCausalTrace runs -causal -trace end to end and checks the
// written file is a valid schema-2 causal trace: causal header first,
// stamped send/receive events throughout.
func TestRunWithCausalTrace(t *testing.T) {
	traceFile := t.TempDir() + "/causal.jsonl"
	if err := run(12, 2, "gm", "full", "round", "push", "push", 9, 6, 10, 0, 2, 0.5, false, traceFile, true, "", "", "v2", 0); err != nil {
		t.Fatalf("run with -causal: %v", err)
	}
	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatalf("trace.Read: %v", err)
	}
	if len(events) == 0 || events[0].Kind != trace.KindRunHeader || events[0].Schema != trace.SchemaCausal {
		t.Fatalf("trace does not start with a schema-%d run header", trace.SchemaCausal)
	}
	stamped := 0
	for _, e := range events {
		if e.Kind == trace.KindSend || e.Kind == trace.KindReceive {
			if e.Seq == 0 || e.Clock == 0 {
				t.Fatalf("unstamped causal %s event: %+v", e.Kind, e)
			}
			stamped++
		}
	}
	if stamped == 0 {
		t.Error("no causal send/receive events recorded")
	}
}

// TestRunCausalRequiresTrace pins the flag contract: -causal without
// -trace has nowhere to record and must be refused.
func TestRunCausalRequiresTrace(t *testing.T) {
	err := run(8, 2, "gm", "full", "round", "push", "push", 1, 3, 10, 0, 2, 1, false, "", true, "", "", "v2", 0)
	if err == nil || !strings.Contains(err.Error(), "-causal requires -trace") {
		t.Errorf("error = %v, want -causal requires -trace", err)
	}
}

func TestRunPlotRequiresGM(t *testing.T) {
	err := run(8, 2, "centroids", "full", "round", "push", "push", 1, 3, 10, 0, 2, 1, true, "", false, "", "", "v2", 0)
	if err == nil || !strings.Contains(err.Error(), "-plot requires") {
		t.Errorf("error = %v", err)
	}
}
