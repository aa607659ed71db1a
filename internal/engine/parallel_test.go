// The round backend emits (push mode), scatters and delivers on
// GOMAXPROCS workers, or on one with everything inline when a trace
// sink is attached. Each Emit and Receive touches only its own node,
// so neither the worker count nor emitting ahead may show in the
// outcome: these tests pin every node's classification, bit for bit,
// and the driver counters across worker counts and against the traced
// run, whose emits stay inline in the route order.
package engine_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"distclass/internal/centroids"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/gm"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// stateBits appends every float64 (as its bits), int and length
// reachable from v, unexported fields included, so two
// classifications compare bit for bit: -0 against 0 and NaN payloads
// differ here where == would not. A kind it does not walk panics, so a
// new field cannot drop out of the comparison unnoticed.
func stateBits(out []uint64, v reflect.Value) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Int:
		return append(out, uint64(v.Int()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(out, math.MaxUint64)
		}
		return stateBits(out, v.Elem())
	case reflect.Slice:
		out = append(out, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			out = stateBits(out, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = stateBits(out, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("stateBits: unhandled kind %s", v.Kind()))
	}
	return out
}

// roundOutcome runs cfg for the given rounds under GOMAXPROCS procs,
// traced into a buffer when traced is set, and returns every node's
// classification bits, the driver counters and the trace.
func roundOutcome(t *testing.T, cfg engine.Config, rounds, procs int, traced bool) ([][]uint64, engine.Stats, []byte) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var buf bytes.Buffer
	if traced {
		cfg.Trace = trace.NewRecorder(&buf)
	}
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := eng.Run(rounds); err != nil {
		t.Fatalf("Run: %v", err)
	}
	states := make([][]uint64, eng.N())
	for i := range states {
		states[i] = stateBits(nil, reflect.ValueOf(eng.Classification(i)))
	}
	return states, eng.Stats(), buf.Bytes()
}

// TestRoundParallelMatchesSerial runs each workload serially, on four
// workers, and traced (which emits inline and delivers on one worker
// whatever GOMAXPROCS is): classifications and counters must match bit
// for bit, and the trace must not depend on GOMAXPROCS. The networks
// span several worker chunks, so the workers really share them, and
// the cases cover every send path: push (emitted ahead untraced),
// pull and push-pull (emitted inline), round-robin, message loss and
// crashes.
func TestRoundParallelMatchesSerial(t *testing.T) {
	fig2, err := experiments.Figure2Dataset(300, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		cfg    engine.Config
		rounds int
	}{
		{"gm-fig2-full", engine.Config{
			Backend: engine.BackendRound, Method: gm.Method{}, Values: fig2,
			K: 7, Topology: topology.KindFull, Seed: 11,
		}, 12},
		{"centroids-regular", engine.Config{
			Backend: engine.BackendRound, Method: centroids.Method{}, Values: fig1Values(1000, 5),
			K: 2, Topology: topology.KindRegular, Seed: 5,
		}, 20},
		{"centroids-pull", engine.Config{
			Backend: engine.BackendRound, Method: centroids.Method{}, Values: fig1Values(600, 6),
			K: 2, Topology: topology.KindRegular, Seed: 6, Mode: engine.ModePull,
		}, 15},
		{"centroids-push-pull", engine.Config{
			Backend: engine.BackendRound, Method: centroids.Method{}, Values: fig1Values(600, 7),
			K: 2, Topology: topology.KindRegular, Seed: 7, Mode: engine.ModePushPull,
		}, 15},
		{"centroids-round-robin", engine.Config{
			Backend: engine.BackendRound, Method: centroids.Method{}, Values: fig1Values(600, 8),
			K: 2, Topology: topology.KindRegular, Seed: 8, Policy: engine.RoundRobin,
		}, 15},
		{"centroids-drop", engine.Config{
			Backend: engine.BackendRound, Method: centroids.Method{}, Values: fig1Values(600, 9),
			K: 2, Topology: topology.KindRegular, Seed: 9, DropProb: 0.05,
		}, 15},
		{"centroids-crash", engine.Config{
			Backend: engine.BackendRound, Method: centroids.Method{}, Values: fig1Values(600, 10),
			K: 2, Topology: topology.KindRegular, Seed: 10, CrashProb: 0.01,
		}, 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, serialStats, _ := roundOutcome(t, tc.cfg, tc.rounds, 1, false)
			_, _, serialTrace := roundOutcome(t, tc.cfg, tc.rounds, 1, true)
			for _, traced := range []bool{false, true} {
				states, stats, tr := roundOutcome(t, tc.cfg, tc.rounds, 4, traced)
				if stats != serialStats {
					t.Errorf("traced=%v: stats %+v, serial %+v", traced, stats, serialStats)
				}
				for i := range serial {
					if !reflect.DeepEqual(states[i], serial[i]) {
						t.Fatalf("traced=%v: node %d classification differs from the serial run", traced, i)
					}
				}
				if traced && !bytes.Equal(tr, serialTrace) {
					t.Errorf("trace under GOMAXPROCS=4 differs from GOMAXPROCS=1")
				}
			}
		})
	}
}
