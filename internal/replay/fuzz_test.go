package replay

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// oversizedRound is a single well-formed event with a huge round
// number; a dense per-round table would allocate 400M rows for it.
const oversizedRound = `{"round":400000000,"node":0,"kind":"send","value":1}`

// FuzzAnalyze feeds arbitrary bytes to Analyze: it must return an error
// or a report that renders in every format, never panic or allocate
// without bound. Run with `go test -fuzz FuzzAnalyze ./internal/replay`;
// without -fuzz the seeds below run as a regular test.
func FuzzAnalyze(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "fixture.trace"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte(oversizedRound))
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
