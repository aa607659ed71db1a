// Command distclass-live runs the classification protocol as a live
// in-process deployment over a genuinely concurrent backend —
// synchronous pipes, loopback TCP, or in-process handover (-backend
// shard, which scales to 100k+ nodes), all ticked by one fixed worker
// pool — in contrast to
// distclass-sim's deterministic simulator. It prints the spread as the
// cluster converges, then the final classification.
//
// With -metrics it serves the run's counters, latency histograms, run
// manifest and pprof profiles over HTTP while the cluster runs; with
// -monitor it additionally attaches the online monitor and serves
// /status, /health and /events for dashboards (distclass-top) and
// readiness probes; with -trace it writes every protocol event (split,
// merge, send, receive, decode error) as JSONL, prefixed with a run
// header naming the backend.
//
// Example:
//
//	distclass-live -n 32 -k 2 -topology geometric -duration 10s -monitor :8080
//	distclass-top -addr 127.0.0.1:8080    # in another terminal
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"distclass"
	"distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distclass-live: ")

	var cfg runConfig
	flag.IntVar(&cfg.n, "n", 32, "number of nodes")
	flag.IntVar(&cfg.k, "k", 2, "max collections per classification")
	flag.StringVar(&cfg.method, "method", "gm", "classification method: gm or centroids")
	flag.StringVar(&cfg.topo, "topology", "full", "topology kind")
	flag.StringVar(&cfg.policy, "policy", "push", "gossip policy: push or roundrobin")
	flag.StringVar(&cfg.mode, "mode", "push", "gossip mode: push, pull or pushpull")
	flag.Uint64Var(&cfg.seed, "seed", 1, "random seed (data and neighbor choice)")
	flag.DurationVar(&cfg.duration, "duration", 2*time.Second, "how long to run")
	flag.DurationVar(&cfg.interval, "interval", 2*time.Millisecond, "per-node gossip tick")
	flag.Float64Var(&cfg.tol, "tol", 0.05, "spread below which the run stops early")
	flag.StringVar(&cfg.backend, "backend", "pipe", "concurrent backend: pipe, tcp or shard")
	flag.IntVar(&cfg.shards, "shards", 0, "worker-pool size for -backend shard (default GOMAXPROCS)")
	flag.StringVar(&cfg.codec, "codec", "v2", "wire codec for -backend pipe/tcp: v2 or v2f32")
	flag.IntVar(&cfg.frameBatch, "frame-batch", 0, "coalesce up to this many queued messages per wire frame on -backend pipe/tcp (0 or 1 disables)")
	flag.StringVar(&cfg.traceFile, "trace", "", "write a JSONL protocol event trace to this file")
	flag.BoolVar(&cfg.causal, "causal", false, "stamp trace events with causal metadata (per-sender seq, peer, Lamport clock, moved weight) for distclass-analyze -causal; requires -trace")
	flag.StringVar(&cfg.metricsAddr, "metrics", "", "serve /metrics, /manifest and /debug/pprof on this address (\":0\" picks a port)")
	flag.StringVar(&cfg.monitorAddr, "monitor", "", "attach the online monitor and serve /status, /health and /events (plus the -metrics endpoints) on this address; distclass-top points here")
	flag.Parse()

	if err := run(cfg); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// runConfig carries the command's flags into run.
type runConfig struct {
	n, k        int
	shards      int
	frameBatch  int
	codec       string
	method      string
	topo        string
	policy      string
	mode        string
	backend     string
	seed        uint64
	duration    time.Duration
	interval    time.Duration
	tol         float64
	traceFile   string
	causal      bool
	metricsAddr string
	monitorAddr string

	// onServe, when set, is called with the bound metrics address once
	// the endpoint is up and the cluster is running. Tests use it to
	// probe the endpoints mid-run.
	onServe func(addr string) error
}

// manifestConfig renders the effective flag values for the run manifest.
func (c runConfig) manifestConfig() map[string]string {
	return map[string]string{
		"n":           strconv.Itoa(c.n),
		"k":           strconv.Itoa(c.k),
		"method":      c.method,
		"topology":    c.topo,
		"policy":      c.policy,
		"mode":        c.mode,
		"backend":     c.backend,
		"codec":       c.codec,
		"frame-batch": strconv.Itoa(c.frameBatch),
		"duration":    c.duration.String(),
		"interval":    c.interval.String(),
		"tol":         strconv.FormatFloat(c.tol, 'g', -1, 64),
	}
}

func run(cfg runConfig) error {
	backend, err := distclass.ParseBackend(cfg.backend)
	if err != nil {
		return err
	}
	var m distclass.Method
	switch cfg.method {
	case "gm":
		m = distclass.GaussianMixture()
	case "centroids":
		m = distclass.Centroids()
	default:
		return fmt.Errorf("unknown method %q", cfg.method)
	}
	var policy distclass.Policy
	switch cfg.policy {
	case "push":
		policy = distclass.PushRandom
	case "roundrobin":
		policy = distclass.RoundRobin
	default:
		return fmt.Errorf("unknown policy %q", cfg.policy)
	}
	var mode distclass.Mode
	switch cfg.mode {
	case "push":
		mode = distclass.ModePush
	case "pull":
		mode = distclass.ModePull
	case "pushpull":
		mode = distclass.ModePushPull
	default:
		return fmt.Errorf("unknown mode %q", cfg.mode)
	}

	// Synthetic input: two well-separated 2-D blobs.
	r := rng.New(cfg.seed)
	values := make([]distclass.Value, cfg.n)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c = 4
		}
		values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}

	if cfg.causal && cfg.traceFile == "" {
		return fmt.Errorf("-causal requires -trace")
	}
	reg := distclass.NewRegistry()
	var sink trace.Sink
	if cfg.traceFile != "" {
		f, err := os.Create(cfg.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rec := trace.NewBufferedRecorder(f)
		// Flush buffered events after cluster.Stop's deferred teardown
		// has recorded the last of them (defers run LIFO).
		defer rec.Close()
		sink = rec
	}

	opts := []distclass.Option{
		distclass.WithK(cfg.k),
		distclass.WithSeed(cfg.seed),
		distclass.WithTopology(distclass.Topology(cfg.topo)),
		distclass.WithPolicy(policy),
		distclass.WithMode(mode),
		distclass.WithBackend(backend),
		distclass.WithInterval(cfg.interval),
		distclass.WithTolerance(cfg.tol),
		distclass.WithMetrics(reg),
		distclass.WithRunHeader(),
	}
	if cfg.shards != 0 {
		opts = append(opts, distclass.WithShards(cfg.shards))
	}
	if cfg.codec != "" {
		codec, err := distclass.ParseCodec(cfg.codec)
		if err != nil {
			return err
		}
		if codec != distclass.CodecV2 {
			opts = append(opts, distclass.WithCodec(codec))
		}
	}
	if cfg.frameBatch != 0 {
		opts = append(opts, distclass.WithFrameBatch(cfg.frameBatch))
	}
	if sink != nil {
		opts = append(opts, distclass.WithTrace(sink))
		if cfg.causal {
			opts = append(opts, distclass.WithCausal())
		}
	}
	var mon *distclass.Monitor
	if cfg.monitorAddr != "" {
		mon = distclass.NewMonitor()
		opts = append(opts, distclass.WithMonitor(mon))
	}
	cluster, err := distclass.StartLive(values, m, opts...)
	if err != nil {
		return err
	}
	defer cluster.Stop()

	// One observability mux serves every endpoint; -metrics and
	// -monitor each bind it to an address (the same mux on both when
	// both are given, deduplicated when equal).
	if cfg.metricsAddr != "" || cfg.monitorAddr != "" {
		man := metrics.NewManifest("distclass-live", cfg.seed, cfg.manifestConfig())
		mux := metrics.NewMux(reg, man)
		if mon != nil {
			mon.Attach(mux)
		}
		addrs := []string{cfg.metricsAddr}
		if cfg.monitorAddr != cfg.metricsAddr {
			addrs = append(addrs, cfg.monitorAddr)
		}
		first := ""
		for _, addr := range addrs {
			if addr == "" {
				continue
			}
			srv, err := metrics.ServeMux(addr, mux)
			if err != nil {
				return err
			}
			defer srv.Close()
			if first == "" {
				first = srv.Addr()
			}
			fmt.Printf("observability: http://%s/metrics (also /manifest, /debug/pprof/", srv.Addr())
			if mon != nil {
				fmt.Printf(", /status, /health, /events")
			}
			fmt.Println(")")
		}
		if cfg.onServe != nil {
			if err := cfg.onServe(first); err != nil {
				return err
			}
		}
	}

	start := time.Now()
	deadline := time.After(cfg.duration)
	tick := time.NewTicker(cfg.duration / 10)
	defer tick.Stop()
	fmt.Printf("live cluster: %d nodes on %s topology (%s backend)\n",
		cfg.n, cfg.topo, cluster.Backend())
loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-tick.C:
		}
		if err := cluster.Err(); err != nil {
			return err
		}
		spread, err := cluster.Spread()
		if err != nil {
			return err
		}
		fmt.Printf("t=%-8s spread=%.4g messages=%d\n",
			time.Since(start).Round(time.Millisecond), spread, cluster.MessagesSent())
		if spread < cfg.tol {
			fmt.Println("converged")
			break loop
		}
	}
	cluster.Stop()
	if err := cluster.Err(); err != nil {
		return err
	}
	fmt.Printf("\nnode 0 classification:\n%s\n", cluster.Classification(0))
	fmt.Printf("\nmessages sent: %d received: %d decode errors: %d   weight at nodes: %.4f/%d\n",
		cluster.MessagesSent(), reg.Counter("livenet.received").Value(),
		reg.Counter("livenet.decode_errors").Value(), cluster.TotalWeight(), cfg.n)
	return nil
}
