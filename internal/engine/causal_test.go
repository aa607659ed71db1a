// Causal tracing contract: every backend, simulator and concurrent
// alike, must emit a schema-2 trace whose happens-before reconstruction
// is clean — every send matched to exactly one receive, Lamport clocks
// strictly increasing across each matched pair, and the provenance
// ledger exactly conserving the initial weight, and the replay report
// of the same trace must be anomaly-free. This is the engine-side
// acceptance bar of the causal tracing plane; the CLI half is exercised
// by the experiments causal-smoke.
package engine_test

import (
	"bytes"
	"testing"
	"time"

	"distclass"
	"distclass/internal/engine"
	"distclass/internal/replay"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

func TestCausalTraceOnEveryBackend(t *testing.T) {
	const (
		n   = 16
		tol = 0.05
	)
	for _, b := range engine.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			var buf bytes.Buffer
			rec := trace.NewRecorder(&buf)
			cfg := engine.Config{
				Backend:   b,
				Method:    distclass.GaussianMixture(),
				Values:    monitorWorkload(n, 7),
				Topology:  topology.KindFull,
				Seed:      13,
				Tolerance: tol,
				Interval:  time.Millisecond,
				Trace:     rec,
				Causal:    true,
			}
			eng, err := engine.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			_, converged, err := eng.RunUntilConverged(20 * time.Second)
			eng.Stop()
			if err == nil {
				err = eng.Err()
			}
			if err != nil {
				t.Fatalf("RunUntilConverged: %v", err)
			}
			if !converged {
				t.Fatal("did not converge")
			}

			run, err := replay.Analyze(bytes.NewReader(buf.Bytes()), replay.Options{Threshold: tol})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			// One round axis per trace: on async, spread probes carry
			// the driver's step index like every other event.
			if run.Anomalies.Count != 0 {
				t.Errorf("replay anomalies: %+v", run.Anomalies)
			}
			rep := run.Causal
			if rep == nil {
				t.Fatal("no causal section")
			}
			if rep.Backend != b.String() || rep.Schema != trace.SchemaCausal {
				t.Errorf("header = %s/%d, want %s/%d", rep.Backend, rep.Schema, b, trace.SchemaCausal)
			}
			if rep.Sends == 0 {
				t.Fatal("no causal sends traced")
			}
			// The async driver legitimately stops with messages still
			// queued — their weight is in flight, not lost. Every other
			// backend drains on Stop, so every send must match.
			if b == engine.BackendAsync {
				if rep.Matched != rep.Receives {
					t.Errorf("receives/matched = %d/%d, want equal", rep.Receives, rep.Matched)
				}
				if rep.Sends-rep.Matched != rep.OrphanSends {
					t.Errorf("sends-matched = %d, orphans = %d, want equal",
						rep.Sends-rep.Matched, rep.OrphanSends)
				}
			} else if rep.Matched != rep.Sends || rep.Receives != rep.Sends {
				t.Errorf("sends/receives/matched = %d/%d/%d, want all equal",
					rep.Sends, rep.Receives, rep.Matched)
			}
			if len(rep.Anomalies) != 0 {
				t.Errorf("anomalies: %+v", rep.Anomalies)
			}
			if rep.MaxClock == 0 {
				t.Error("no Lamport clock advanced")
			}
			if rep.MaxDepth == 0 {
				t.Error("no causal chain recorded")
			}
			lr := rep.Ledger
			if lr.ExpectedTotal != float64(n) {
				t.Errorf("ledger expected total = %v, want exactly %d", lr.ExpectedTotal, n)
			}
			for _, o := range lr.Origins {
				if o.Expected != 1 {
					t.Errorf("origin %d expected = %v, want exactly 1", o.Origin, o.Expected)
				}
			}
			if lr.MaxColumnDrift > 1e-9 {
				t.Errorf("max column drift = %v, want <= 1e-9", lr.MaxColumnDrift)
			}
			if lr.Destroyed != 0 {
				t.Errorf("destroyed = %v, want zero on a lossless run", lr.Destroyed)
			}
			// Queued async weight shows up as in-flight; everywhere else
			// a drained Stop leaves nothing on the wire.
			if b != engine.BackendAsync && lr.InFlight != 0 {
				t.Errorf("in-flight = %v, want zero after a drained Stop", lr.InFlight)
			}
			// ActualTotal counts held and in-flight weight alike, so the
			// books balance even while async messages sit queued.
			if got := lr.ActualTotal; got < lr.ExpectedTotal-1e-9 || got > lr.ExpectedTotal+1e-9 {
				t.Errorf("actual total %v drifts beyond 1e-9 from expected %v", got, lr.ExpectedTotal)
			}
		})
	}
}
