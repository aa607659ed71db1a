package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"distclass/internal/trace"
)

func shortCfg(n int, method, topo, backend string, seed uint64) runConfig {
	return runConfig{
		n: n, k: 2, method: method, topo: topo, backend: backend, seed: seed,
		policy: "push", mode: "push",
		duration: 400 * time.Millisecond, interval: time.Millisecond, tol: 0.3,
	}
}

func TestRunBackendValidation(t *testing.T) {
	cfg := shortCfg(8, "gm", "full", "bogus", 1)
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Errorf("unknown backend error = %v", err)
	}
	// Simulator backends parse but belong to distclass-sim.
	cfg = shortCfg(8, "gm", "full", "round", 1)
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "StartLive") {
		t.Errorf("simulator backend error = %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := shortCfg(8, "bogus", "full", "pipe", 1)
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("unknown method error = %v", err)
	}
	cfg = shortCfg(8, "gm", "bogus", "pipe", 1)
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Errorf("unknown topology error = %v", err)
	}
	cfg = shortCfg(8, "gm", "full", "pipe", 1)
	cfg.policy = "bogus"
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy error = %v", err)
	}
	cfg = shortCfg(8, "gm", "full", "pipe", 1)
	cfg.mode = "bogus"
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "unknown mode") {
		t.Errorf("unknown mode error = %v", err)
	}
	cfg = shortCfg(8, "gm", "full", "pipe", 1)
	cfg.duration = 0
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "-duration must be positive") {
		t.Errorf("zero duration error = %v", err)
	}
}

func TestRunShortLive(t *testing.T) {
	if err := run(shortCfg(8, "gm", "full", "pipe", 3)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunCentroidsLive(t *testing.T) {
	if err := run(shortCfg(6, "centroids", "ring", "tcp", 5)); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunShardPushPull(t *testing.T) {
	cfg := shortCfg(12, "gm", "full", "shard", 9)
	cfg.mode = "pushpull"
	cfg.policy = "roundrobin"
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunObservabilityEndpoints runs the command with -metrics :0 and
// -trace, probes /metrics, /manifest and /debug/pprof/ while the
// cluster is live, and checks the trace file afterwards.
func TestRunObservabilityEndpoints(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "events.jsonl")
	cfg := shortCfg(8, "gm", "full", "pipe", 7)
	cfg.tol = 0 // never stop early; keep the server up for probing
	cfg.traceFile = traceFile
	cfg.metricsAddr = "127.0.0.1:0"

	get := func(url string) (string, error) {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
		}
		return string(body), nil
	}

	probed := false
	cfg.onServe = func(addr string) error {
		probed = true
		base := "http://" + addr
		text, err := get(base + "/metrics")
		if err != nil {
			return err
		}
		if !strings.Contains(text, "livenet.sent") {
			return fmt.Errorf("/metrics text missing livenet.sent:\n%s", text)
		}
		jsonBody, err := get(base + "/metrics?format=json")
		if err != nil {
			return err
		}
		var snap struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
			return fmt.Errorf("/metrics?format=json: %w", err)
		}
		if _, ok := snap.Counters["livenet.sent"]; !ok {
			return fmt.Errorf("/metrics json missing livenet.sent counter")
		}
		manBody, err := get(base + "/manifest")
		if err != nil {
			return err
		}
		var man struct {
			Command string            `json:"command"`
			Config  map[string]string `json:"config"`
			Seed    uint64            `json:"seed"`
		}
		if err := json.Unmarshal([]byte(manBody), &man); err != nil {
			return fmt.Errorf("/manifest: %w", err)
		}
		if man.Command != "distclass-live" || man.Seed != 7 || man.Config["n"] != "8" {
			return fmt.Errorf("manifest wrong: %s", manBody)
		}
		idx, err := get(base + "/debug/pprof/")
		if err != nil {
			return err
		}
		if !strings.Contains(idx, "goroutine") {
			return fmt.Errorf("/debug/pprof/ index missing goroutine profile")
		}
		return nil
	}

	if err := run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !probed {
		t.Fatalf("onServe never called: metrics endpoint not started")
	}

	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatalf("trace.Read: %v", err)
	}
	if trace.CountKind(events, trace.KindSend) == 0 {
		t.Errorf("trace has no send events")
	}
	if trace.CountKind(events, trace.KindSplit) == 0 {
		t.Errorf("trace has no split events")
	}
}
