// Command distclass-sim runs one distributed-classification simulation
// from command-line flags and prints the resulting classification, the
// convergence round and traffic statistics.
//
// Example:
//
//	distclass-sim -n 200 -method gm -k 3 -topology geometric -seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"distclass"
	"distclass/internal/metrics"
	"distclass/internal/plot"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/trace"
	"distclass/internal/vec"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distclass-sim: ")

	var (
		n          = flag.Int("n", 100, "number of nodes")
		k          = flag.Int("k", 2, "max collections per classification")
		method     = flag.String("method", "gm", "classification method: gm or centroids")
		topo       = flag.String("topology", "full", "topology: full, ring, grid, torus, star, tree, er, geometric, regular")
		backend    = flag.String("backend", "round", "simulation backend: round or async")
		codec      = flag.String("codec", "v2", "wire codec: v2 or v2f32 (wire backends only; the simulator backends reject non-default values)")
		frameBatch = flag.Int("frame-batch", 0, "coalesce up to this many queued messages per wire frame (wire backends only; 0 or 1 disables)")
		policy     = flag.String("policy", "push", "gossip policy: push or roundrobin")
		mode       = flag.String("mode", "push", "gossip mode: push, pull or pushpull")
		seed       = flag.Uint64("seed", 1, "random seed")
		rounds     = flag.Int("rounds", 0, "fixed number of rounds (0 = run until converged)")
		maxRounds  = flag.Int("max-rounds", 500, "round budget for convergence detection")
		crash      = flag.Float64("crash", 0, "per-round node crash probability")
		clusters   = flag.Int("clusters", 2, "number of synthetic data clusters")
		spreadStd  = flag.Float64("std", 1.0, "cluster standard deviation")
		plotOut    = flag.Bool("plot", false, "render an ASCII scatter of values and the final mixture (gm method, 2-D data)")
		traceFile  = flag.String("trace", "", "write a JSONL event trace (splits, merges, sends, per-round spread, node 0's classification) to this file")
		causal     = flag.Bool("causal", false, "stamp trace events with causal metadata (per-sender seq, peer, Lamport clock, moved weight) for distclass-analyze -causal; requires -trace")
		metricsOut = flag.String("metrics", "", "write a JSON metrics snapshot after the run to this file (\"-\" for stdout)")
		monitor    = flag.String("monitor", "", "attach the online monitor and serve /status, /health, /events and /metrics on this address while the simulation runs")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof; phases are labeled)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file after the run")
		traceOut   = flag.String("traceout", "", "write a runtime execution trace to this file (inspect with go tool trace)")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	err = run(*n, *k, *method, *topo, *backend, *policy, *mode, *seed, *rounds, *maxRounds, *crash, *clusters, *spreadStd, *plotOut, *traceFile, *causal, *metricsOut, *monitor, *codec, *frameBatch)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(n, k int, method, topo, backend, policy, mode string, seed uint64, rounds, maxRounds int, crash float64, clusters int, std float64, plotOut bool, traceFile string, causal bool, metricsOut, monitorAddr, codec string, frameBatch int) error {
	var m distclass.Method
	switch method {
	case "gm":
		m = distclass.GaussianMixture()
	case "centroids":
		m = distclass.Centroids()
	default:
		return fmt.Errorf("unknown method %q", method)
	}
	b, err := distclass.ParseBackend(backend)
	if err != nil {
		return err
	}
	var p distclass.Policy
	switch policy {
	case "push":
		p = distclass.PushRandom
	case "roundrobin":
		p = distclass.RoundRobin
	default:
		return fmt.Errorf("unknown policy %q", policy)
	}
	var gmode distclass.Mode
	switch mode {
	case "push":
		gmode = distclass.ModePush
	case "pull":
		gmode = distclass.ModePull
	case "pushpull":
		gmode = distclass.ModePushPull
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
	if clusters < 1 {
		return fmt.Errorf("clusters = %d must be positive", clusters)
	}
	wireCodec, err := distclass.ParseCodec(codec)
	if err != nil {
		return err
	}

	// Synthetic input: `clusters` well-separated 2-D blobs.
	r := rng.New(seed)
	values := make([]distclass.Value, n)
	for i := range values {
		c := i % clusters
		cx := float64(c) * 10
		values[i] = distclass.Value{cx + r.Normal(0, std), r.Normal(0, std)}
	}

	reg := distclass.NewRegistry()
	opts := []distclass.Option{
		distclass.WithK(k),
		distclass.WithSeed(seed),
		distclass.WithBackend(b),
		distclass.WithTopology(distclass.Topology(topo)),
		distclass.WithPolicy(p),
		distclass.WithMode(gmode),
		distclass.WithCrashProb(crash),
		distclass.WithMaxRounds(maxRounds),
		distclass.WithMetrics(reg),
	}
	// Pass wire options through only when set: the engine rejects them
	// on backends without a wire format, and this command's simulator
	// backends have none.
	if wireCodec != distclass.CodecV2 {
		opts = append(opts, distclass.WithCodec(wireCodec))
	}
	if frameBatch != 0 {
		opts = append(opts, distclass.WithFrameBatch(frameBatch))
	}
	if causal && traceFile == "" {
		return fmt.Errorf("-causal requires -trace")
	}
	var rec *trace.BufferedRecorder
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rec = trace.NewBufferedRecorder(f)
		// The system itself records protocol events and per-round
		// spread through the sink; the observe callback below only adds
		// node 0's classification snapshots.
		opts = append(opts, distclass.WithTrace(rec))
		// Name the backend in the trace when it isn't the default, so
		// replay reports and diffs identify the substrate. Default round
		// traces stay byte-compatible with pre-engine recordings.
		if b != distclass.BackendRound {
			opts = append(opts, distclass.WithRunHeader())
		}
		if causal {
			opts = append(opts, distclass.WithCausal())
		}
	}
	var mon *distclass.Monitor
	if monitorAddr != "" {
		mon = distclass.NewMonitor()
		opts = append(opts, distclass.WithMonitor(mon))
	}
	sys, err := distclass.New(values, m, opts...)
	if err != nil {
		return err
	}
	if mon != nil {
		man := metrics.NewManifest("distclass-sim", seed, map[string]string{
			"n": fmt.Sprint(n), "k": fmt.Sprint(k), "method": method,
			"topology": topo, "backend": backend, "policy": policy, "mode": mode,
		})
		mux := metrics.NewMux(reg, man)
		mon.Attach(mux)
		srv, err := metrics.ServeMux(monitorAddr, mux)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("monitoring: http://%s/status (also /health, /events, /metrics)\n", srv.Addr())
	}

	observe := func(round int) error {
		if rec == nil {
			return nil
		}
		records, err := distclass.TraceRecords(sys.Classification(0))
		if err != nil {
			return err
		}
		return rec.Classification(round, 0, records)
	}
	if rounds > 0 {
		if err := sys.RunObserved(rounds, observe); err != nil {
			return err
		}
		fmt.Printf("ran %d rounds\n", rounds)
	} else {
		ran, converged, err := sys.RunUntilConverged()
		if err != nil {
			return err
		}
		fmt.Printf("ran %d rounds, converged=%v\n", ran, converged)
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			return fmt.Errorf("flush trace: %w", err)
		}
		fmt.Printf("trace: %d events -> %s\n", rec.Count(), traceFile)
	}

	// Report the first alive node's classification.
	reporter := -1
	for i := 0; i < sys.N(); i++ {
		if sys.Alive(i) {
			reporter = i
			break
		}
	}
	if reporter < 0 {
		return fmt.Errorf("all nodes crashed")
	}
	fmt.Printf("\nnode %d classification:\n%s\n", reporter, sys.Classification(reporter))

	st := sys.Stats()
	fmt.Printf("\nalive nodes:    %d/%d\n", sys.AliveCount(), sys.N())
	fmt.Printf("messages sent:  %d (dropped %d)\n", st.MessagesSent, st.MessagesDropped)
	if st.MessagesSent > 0 {
		fmt.Printf("avg collections/message: %.2f\n", float64(st.PayloadSize)/float64(st.MessagesSent))
	}
	snap := reg.Snapshot()
	fmt.Printf("protocol:       %d splits, %d merges, %d quantize drops\n",
		snap.Counters["core.splits"], snap.Counters["core.merges"], snap.Counters["core.quantize_drops"])
	spread, err := sys.Spread()
	if err != nil {
		return err
	}
	fmt.Printf("final spread:   %.3g\n", spread)
	if metricsOut != "" {
		w := os.Stdout
		if metricsOut != "-" {
			f, err := os.Create(metricsOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteJSON(w); err != nil {
			return err
		}
	}
	if plotOut {
		if method != "gm" {
			return fmt.Errorf("-plot requires the gm method")
		}
		mix, err := distclass.ToMixture(sys.Classification(reporter))
		if err != nil {
			return err
		}
		pts := make([]vec.Vector, 0, sys.N())
		for _, v := range sys.Values() {
			pts = append(pts, vec.Vector(v))
		}
		scene, err := plot.MixtureScene(78, 24, pts, mix)
		if err != nil {
			return err
		}
		fmt.Println("\nvalues (.) and node's mixture (o ellipses, x slivers):")
		fmt.Println(scene)
	}
	return nil
}
