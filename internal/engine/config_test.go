// Option validation: the engine must reject any option the chosen
// backend cannot honor — silently dropping a fault-injection or wire
// setting would invalidate an experiment without a trace of it.
package engine_test

import (
	"strings"
	"testing"
	"time"

	"distclass"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/topology"
	"distclass/internal/wire"
)

func baseConfig(b engine.Backend) engine.Config {
	return engine.Config{
		Backend:  b,
		Method:   distclass.GaussianMixture(),
		Values:   []core.Value{{-1, 0}, {1, 0}},
		Topology: topology.KindFull,
	}
}

func TestConfigRejectsUnsupportedOptions(t *testing.T) {
	cases := []struct {
		name string
		cfg  engine.Config
		want string
	}{
		{
			name: "missing method",
			cfg:  engine.Config{Values: []core.Value{{0}}},
			want: "Method is required",
		},
		{
			name: "no values",
			cfg:  engine.Config{Method: distclass.GaussianMixture()},
			want: "no input values",
		},
		{
			name: "async drop prob",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendAsync)
				c.DropProb = 0.1
				return c
			}(),
			want: "does not support DropProb",
		},
		{
			name: "shard crash prob",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendShard)
				c.CrashProb = 0.1
				return c
			}(),
			want: "does not support CrashProb",
		},
		{
			name: "pipe drop prob",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendPipe)
				c.DropProb = 0.1
				return c
			}(),
			want: "does not support DropProb",
		},
		{
			name: "round decode threshold",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendRound)
				c.FailOnDecodeErrors = 1
				return c
			}(),
			want: "no wire decoding",
		},
		{
			name: "shard decode threshold",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendShard)
				c.FailOnDecodeErrors = 1
				return c
			}(),
			want: "no wire decoding",
		},
		{
			name: "pipe shard count",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendPipe)
				c.Shards = 4
				return c
			}(),
			want: "Shards does not apply",
		},
		{
			name: "negative shard count",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendShard)
				c.Shards = -1
				return c
			}(),
			want: "must be positive",
		},
		{
			name: "round codec",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendRound)
				c.Codec = wire.CodecV2F32
				return c
			}(),
			want: "no wire encoding",
		},
		{
			name: "shard codec",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendShard)
				c.Codec = wire.CodecV2F32
				return c
			}(),
			want: "no wire encoding",
		},
		{
			name: "shard frame batch",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendShard)
				c.FrameBatch = 8
				return c
			}(),
			want: "FrameBatch does not apply",
		},
		{
			name: "negative frame batch",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendPipe)
				c.FrameBatch = -1
				return c
			}(),
			want: "must not be negative",
		},
		{
			name: "unknown codec",
			cfg: func() engine.Config {
				c := baseConfig(engine.BackendPipe)
				c.Codec = wire.Codec(42)
				return c
			}(),
			want: "unknown codec",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.New(tc.cfg)
			if eng != nil {
				defer eng.Stop()
			}
			if err == nil {
				t.Fatalf("New accepted an invalid config, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestConfigAcceptsSupportedOptions is the positive counterpart: the
// same settings pass on backends whose capability matrix includes them.
func TestConfigAcceptsSupportedOptions(t *testing.T) {
	round := baseConfig(engine.BackendRound)
	round.CrashProb = 0.01
	round.DropProb = 0.01
	async := baseConfig(engine.BackendAsync)
	async.CrashProb = 0.01
	pipe := baseConfig(engine.BackendPipe)
	pipe.FailOnDecodeErrors = 3
	pipe.Codec = wire.CodecV2
	pipe.FrameBatch = 8
	tcp := baseConfig(engine.BackendTCP)
	tcp.Codec = wire.CodecV2F32
	tcp.FrameBatch = 4
	shard := baseConfig(engine.BackendShard)
	shard.Shards = 2
	for _, cfg := range []engine.Config{round, async, pipe, tcp, shard} {
		eng, err := engine.New(cfg)
		if err != nil {
			t.Errorf("%s: New rejected a supported config: %v", cfg.Backend, err)
			continue
		}
		eng.Stop()
	}
}

func TestParseBackendRoundTrip(t *testing.T) {
	for _, b := range engine.Backends() {
		got, err := engine.ParseBackend(b.String())
		if err != nil {
			t.Errorf("ParseBackend(%q): %v", b.String(), err)
		} else if got != b {
			t.Errorf("ParseBackend(%q) = %s", b.String(), got)
		}
	}
	// "chan" named a deleted backend: it must fail, not alias another.
	for _, name := range []string{"bogus", "chan"} {
		if _, err := engine.ParseBackend(name); err == nil {
			t.Errorf("ParseBackend accepted the unknown backend name %q", name)
		}
	}
}

// TestCapsMatrix pins the capability matrix the documentation and the
// validation rules are written against.
func TestCapsMatrix(t *testing.T) {
	for _, tc := range []struct {
		b    engine.Backend
		want engine.Caps
	}{
		{engine.BackendRound, engine.Caps{Deterministic: true, Rounds: true, CrashProb: true, DropProb: true}},
		{engine.BackendAsync, engine.Caps{Deterministic: true, Rounds: true, CrashProb: true}},
		{engine.BackendPipe, engine.Caps{Restart: true, Wire: true}},
		{engine.BackendTCP, engine.Caps{Restart: true, Wire: true}},
		{engine.BackendShard, engine.Caps{Restart: true}},
	} {
		if got := tc.b.Caps(); got != tc.want {
			t.Errorf("%s caps = %+v, want %+v", tc.b, got, tc.want)
		}
	}
}

// TestNewRejectsMixedDimensions: values whose coordinate counts differ
// are rejected on every backend. Accepted, they crash the process on
// the first absorb that merges collections of different dimension.
func TestNewRejectsMixedDimensions(t *testing.T) {
	for _, b := range engine.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			cfg := baseConfig(b)
			cfg.Values = []core.Value{{1, 2}, {1, 2, 3}, {0, 0}}
			eng, err := engine.New(cfg)
			if err == nil {
				_, _, runErr := eng.RunUntilConverged(time.Second)
				eng.Stop()
				t.Fatalf("New accepted values of mixed dimension (run error: %v)", runErr)
			}
			if !strings.Contains(err.Error(), "coordinates") {
				t.Errorf("error = %q, want it to name the coordinate counts", err)
			}
		})
	}
}

// TestRestartRejectsDimensionMismatch: restarting a node with a value
// of another dimension than the cluster's is an error, the node stays
// dead, and the cluster keeps running. Backends without Caps.Restart
// refuse every restart.
func TestRestartRejectsDimensionMismatch(t *testing.T) {
	for _, b := range engine.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			cfg := baseConfig(b)
			cfg.Values = monitorWorkload(8, 3)
			cfg.Interval = time.Millisecond
			eng, err := engine.New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer eng.Stop()
			if _, err := eng.Kill(1); err != nil {
				t.Fatalf("Kill: %v", err)
			}
			err = eng.Restart(1, core.Value{1, 2, 3, 4, 5})
			if err == nil {
				runErr := eng.Run(50)
				t.Fatalf("Restart accepted a 5-coordinate value on a 2-coordinate cluster (run error: %v)", runErr)
			}
			if b.Caps().Restart && !strings.Contains(err.Error(), "coordinates") {
				t.Errorf("error = %q, want it to name the coordinate counts", err)
			}
			if eng.Alive(1) {
				t.Error("node 1 is alive after a refused restart")
			}
			if err := eng.Run(20); err != nil {
				t.Fatalf("Run after the refused restart: %v", err)
			}
		})
	}
}
