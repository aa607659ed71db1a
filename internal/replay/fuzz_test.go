package replay

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// oversizedRound is a single well-formed event with a huge round
// number; a dense per-round table would allocate 400M rows for it.
const oversizedRound = `{"round":400000000,"node":0,"kind":"send","value":1}`

// causalHeader opens a schema-2 trace, switching on the causal stage.
const causalHeader = `{"round":-1,"node":-1,"kind":"run-header","value":0,"backend":"round","schema":2}` + "\n"

// negativeSender is a causal send from node -1.
const negativeSender = causalHeader + `{"round":0,"node":-1,"kind":"send","value":0,"seq":1,"peer":2,"clock":1,"weight":0.5}`

// oversizedNode is a causal trace whose only node id is 1,000,000;
// per-node state sized by the largest id would take hundreds of MiB.
const oversizedNode = causalHeader + `{"round":-1,"node":1000000,"kind":"recover","value":1}`

// FuzzAnalyze feeds arbitrary bytes to Analyze: it must return an error
// or a report that renders in every format, never panic or allocate
// without bound. Run with `go test -fuzz FuzzAnalyze ./internal/replay`;
// without -fuzz the seeds below run as a regular test.
func FuzzAnalyze(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "fixture.trace"))
	if err != nil {
		f.Fatal(err)
	}
	causalFixture, err := os.ReadFile(filepath.Join("..", "causal", "testdata", "fixture.trace"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add(causalFixture)
	f.Add([]byte(oversizedRound))
	f.Add([]byte(negativeSender))
	f.Add([]byte(oversizedNode))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := Analyze(bytes.NewReader(data), Options{})
		if err != nil {
			return
		}
		if len(rep.PerRound) > rep.Events {
			t.Fatalf("%d per-round rows from %d events", len(rep.PerRound), rep.Events)
		}
		kinds := 0
		for _, kc := range rep.Kinds {
			kinds += kc.Count
		}
		if kinds != rep.Events || len(rep.NodeHealth) != rep.Nodes {
			t.Fatalf("tallies disagree: %d kind counts, %d events, %d health rows, %d nodes",
				kinds, rep.Events, len(rep.NodeHealth), rep.Nodes)
		}
		if err := rep.WriteText(io.Discard); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := rep.WriteCSV(io.Discard, true); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		if err := rep.WriteJSON(io.Discard); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
	})
}

// TestOversizedRoundAnalyzed pins the sparse per-round table: an
// event with a huge round number costs one row, not one per round
// below it.
func TestOversizedRoundAnalyzed(t *testing.T) {
	rep, err := Analyze(strings.NewReader(oversizedRound+"\n"), Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.Rounds != 400000001 || len(rep.PerRound) != 1 || rep.PerRound[0].Sends != 1 {
		t.Fatalf("rounds = %d, per-round rows = %+v; want 400000001 rounds and one row with one send", rep.Rounds, rep.PerRound)
	}
}

// TestHostileCausalInput pins the causal stage on malformed ids: a
// negative endpoint is skipped as an anomaly instead of indexing out
// of range, and a huge id costs one node, not a table up to it.
func TestHostileCausalInput(t *testing.T) {
	rep, err := Analyze(strings.NewReader(negativeSender), Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if c := rep.Causal; c == nil || c.Sends != 0 || len(c.Anomalies) != 1 || c.Anomalies[0].Type != "bad-endpoint" {
		t.Errorf("negative sender: causal section %+v, want one bad-endpoint anomaly and no send", c)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err = Analyze(strings.NewReader(oversizedNode), Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a single node id 1000000 allocated %d bytes, want under 1 MiB", got)
	}
	if c := rep.Causal; c == nil || c.Nodes != 1 || c.Ledger.ExpectedTotal != 2 {
		t.Errorf("oversized node: causal section %+v, want one node holding weight 2", c)
	}
}
