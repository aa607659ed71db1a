package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distclass/internal/replay"
)

const fixture = "../../internal/replay/testdata/fixture.trace"

func runString(t *testing.T, format string, diff bool, paths ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	anomalies, err := run(&buf, format, diff, replay.Options{}, paths)
	if err != nil {
		t.Fatalf("run(%s, diff=%v): %v", format, diff, err)
	}
	return buf.String(), anomalies
}

func TestFormatsAndDeterminism(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		out1, anomalies := runString(t, format, false, fixture)
		out2, _ := runString(t, format, false, fixture)
		if out1 != out2 {
			t.Errorf("%s output differs between two invocations", format)
		}
		if out1 == "" {
			t.Errorf("%s output is empty", format)
		}
		if anomalies != 0 {
			t.Errorf("%s: fixture reports %d anomalies, want 0", format, anomalies)
		}
	}
}

func TestMultiFileCSVSharesOneHeader(t *testing.T) {
	out, _ := runString(t, "csv", false, fixture, fixture)
	if got := strings.Count(out, replay.CSVHeader); got != 1 {
		t.Errorf("concatenated CSV has %d header lines, want 1", got)
	}
	// One row per round per file.
	if lines := strings.Count(out, "\n"); lines != 1+2*30 {
		t.Errorf("concatenated CSV has %d lines, want %d", lines, 1+2*30)
	}
}

func TestDiffOfIdenticalRunsIsAllZero(t *testing.T) {
	out, _ := runString(t, "text", true, fixture, fixture)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n")[2:] {
		fields := strings.Fields(line)
		if delta := fields[len(fields)-1]; delta != "0" {
			t.Errorf("self-diff metric %q has delta %s, want 0", fields[0], delta)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := run(&buf, "xml", false, replay.Options{}, []string{fixture}); err == nil {
		t.Errorf("unknown format accepted")
	}
	if _, err := run(&buf, "text", true, replay.Options{}, []string{fixture}); err == nil {
		t.Errorf("diff with one file accepted")
	}
	if _, err := run(&buf, "csv", true, replay.Options{}, []string{fixture, fixture}); err == nil {
		t.Errorf("diff with csv format accepted")
	}
	if _, err := run(&buf, "text", false, replay.Options{}, []string{"does-not-exist.trace"}); err == nil {
		t.Errorf("missing file accepted")
	}
}

// TestCausalSectionAndAnomalyCount runs the CLI on causal traces: the
// committed fixture reports its causal section with no anomaly, and a
// causal orphan send counts toward the -fail-anomalies total although
// the replay report alone is clean.
func TestCausalSectionAndAnomalyCount(t *testing.T) {
	out, anomalies := runString(t, "text", false, "../../internal/causal/testdata/fixture.trace")
	if !strings.Contains(out, "causal analysis: backend=round schema=2") || anomalies != 0 {
		t.Errorf("fixture: causal section present = %v, anomalies = %d; want present and 0",
			strings.Contains(out, "causal analysis:"), anomalies)
	}
	orphan := filepath.Join(t.TempDir(), "orphan.trace")
	trace := `{"round":-1,"node":-1,"kind":"run-header","value":0,"backend":"round","schema":2}
{"round":0,"node":0,"kind":"send","value":0,"seq":1,"peer":1,"clock":1,"weight":0.5}
`
	if err := os.WriteFile(orphan, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, anomalies := runString(t, "json", false, orphan); anomalies != 1 {
		t.Errorf("orphan send: %d anomalies, want 1 (causal)", anomalies)
	}
}
