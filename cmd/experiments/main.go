// Command experiments regenerates the paper's evaluation: Figures 1-4
// of "Distributed Data Classification in Sensor Networks" (PODC 2010)
// plus the ablation studies listed in DESIGN.md. It prints the same
// series the paper plots, as aligned text tables.
//
// Usage:
//
//	experiments -fig 1            # Figure 1 association example
//	experiments -fig 2            # Figure 2 GM classification (n=1000, k=7)
//	experiments -fig 3            # Figure 3 outlier sweep (delta 0..25)
//	experiments -fig 4            # Figure 4 crash/convergence traces
//	experiments -ablation topology|k|q|policy|methods|histogram
//	experiments -live-churn       # live Figure 4: kill real cluster nodes mid-run
//	experiments -engine-smoke     # tiny workload on every engine backend
//	experiments -monitor-smoke    # online monitor + HTTP plane on every backend
//	experiments -wire-smoke       # v2 codec + frame batching on the wire backends
//	experiments -all              # everything (long)
//
// Use -quick for reduced network sizes (fast smoke runs). The live
// churn ablation takes -churn-fracs (comma-separated kill fractions)
// and -strict (fail on non-convergence or conservation violations).
// -backend moves the Figure 4 crash runs and the churn ablation onto
// another engine substrate (round, async, pipe, tcp, shard); -codec and
// -frame-batch move the churn clusters onto the v2 wire stack.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"distclass"
	"distclass/internal/causal"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/experiments/live"
	"distclass/internal/metrics"
	"distclass/internal/monitor"
	"distclass/internal/plot"
	"distclass/internal/prof"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/trace"
)

// writeCSVFile writes one CSV artifact under dir.
func writeCSVFile(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	var (
		fig         = flag.Int("fig", 0, "figure to reproduce (1-4)")
		ablation    = flag.String("ablation", "", "ablation to run: topology, k, q, policy, mode, methods, reducer, relatedwork, histogram")
		all         = flag.Bool("all", false, "run every figure and ablation")
		quick       = flag.Bool("quick", false, "smaller networks for a fast smoke run")
		seed        = flag.Uint64("seed", 1, "random seed")
		csvDir      = flag.String("csv", "", "also write figure data as CSV files into this directory")
		traceFile   = flag.String("trace", "", "write a JSONL trace of protocol events and per-round probes to this file")
		metricsAddr = flag.String("metrics", "", "serve /metrics, /manifest and /debug/pprof on this address while the experiments run (\":0\" picks a port)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof; phases are labeled)")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file after the run")
		traceOut    = flag.String("traceout", "", "write a runtime execution trace to this file (inspect with go tool trace)")
		liveChurn   = flag.Bool("live-churn", false, "run the live churn ablation: kill a fraction of real cluster nodes mid-run")
		churnFracs  = flag.String("churn-fracs", "0,0.1,0.2,0.3", "comma-separated kill fractions for -live-churn")
		strict      = flag.Bool("strict", false, "with -live-churn: fail on non-convergence, cluster errors or broken weight conservation")
		backendFlag = flag.String("backend", "", "engine backend for -fig 4, -ablation crash and -live-churn: round, async, pipe, tcp or shard (default: round for the sim figures, pipe for -live-churn)")
		engineSmoke = flag.Bool("engine-smoke", false, "run a tiny two-cluster workload on every engine backend and audit convergence and weight conservation")
		shardSmoke  = flag.Bool("shard-smoke", false, "run a 512-node two-cluster workload on the sharded scheduler, audit convergence and exact conservation through a kill/restart cycle")
		monitorAddr = flag.String("monitor", "", "attach a passive online monitor to the event stream and serve /status, /health and /events (plus the -metrics endpoints) on this address; state aggregates across every experiment of the invocation")
		monSmoke    = flag.Bool("monitor-smoke", false, "run the engine-smoke workload on every backend with the online monitor attached and assert /health converged and /status conservation exact over HTTP")
		causSmoke   = flag.Bool("causal-smoke", false, "run the engine-smoke workload on every backend with causal tracing and assert clean happens-before matching and an exact provenance ledger")
		causalOut   = flag.String("causal-out", "", "with -causal-smoke: also write each backend's causal trace to <prefix>.<backend>.trace")
		wireSmoke   = flag.Bool("wire-smoke", false, "run the two-cluster workload on both wire backends under the v2 codec with frame batching, audit conservation and the causal ledger, and assert v2+batching cuts wire bytes per message by at least 40% vs v1")
		wireOut     = flag.String("wire-out", "", "with -wire-smoke: also write each wire backend's batched causal trace to <prefix>.<backend>.trace")
		codecFlag   = flag.String("codec", "", "wire codec for the -live-churn clusters on wire backends: v1, v2 or v2f32")
		frameBatch  = flag.Int("frame-batch", 0, "coalesce up to this many queued messages per wire frame in the -live-churn clusters (wire backends; 0 or 1 disables)")
	)
	flag.Parse()

	if *causalOut != "" && !*causSmoke {
		log.Print("-causal-out needs -causal-smoke")
		os.Exit(2)
	}
	if *wireOut != "" && !*wireSmoke {
		log.Print("-wire-out needs -wire-smoke")
		os.Exit(2)
	}
	if !*all && *fig == 0 && *ablation == "" && !*liveChurn && !*engineSmoke && !*shardSmoke && !*monSmoke && !*causSmoke && !*wireSmoke {
		flag.Usage()
		os.Exit(2)
	}
	var churnCodec distclass.Codec
	if *codecFlag != "" {
		c, err := distclass.ParseCodec(*codecFlag)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		churnCodec = c
	}
	backends := backendChoice{fig: engine.BackendRound, churn: engine.BackendPipe}
	if *backendFlag != "" {
		b, err := engine.ParseBackend(*backendFlag)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		backends.fig, backends.churn = b, b
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	churn := churnOpts{
		enabled: *liveChurn, fracs: *churnFracs, strict: *strict,
		backend: backends.churn, codec: churnCodec, frameBatch: *frameBatch,
	}
	err = realMain(mainOpts{
		fig: *fig, ablation: *ablation, all: *all, quick: *quick,
		seed: *seed, csvDir: *csvDir, traceFile: *traceFile,
		metricsAddr: *metricsAddr, churn: churn, figBackend: backends.fig,
		engineSmoke: *engineSmoke, shardSmoke: *shardSmoke,
		monitorAddr: *monitorAddr, monitorSmoke: *monSmoke,
		causalSmoke: *causSmoke, causalOut: *causalOut,
		wireSmoke: *wireSmoke, wireOut: *wireOut,
	})
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// obs bundles the shared observability backends threaded through every
// experiment of one invocation.
type obs struct {
	reg  *metrics.Registry
	sink trace.Sink
}

// churnOpts carries the -live-churn flag group.
type churnOpts struct {
	enabled    bool
	fracs      string // comma-separated kill fractions
	strict     bool
	backend    engine.Backend
	codec      distclass.Codec
	frameBatch int
}

// backendChoice resolves the -backend flag: the sim figures default to
// the round driver, the churn ablation to the pipe deployment.
type backendChoice struct {
	fig, churn engine.Backend
}

// mainOpts bundles the parsed flags for realMain.
type mainOpts struct {
	fig         int
	ablation    string
	all         bool
	quick       bool
	seed        uint64
	csvDir      string
	traceFile   string
	metricsAddr string
	churn       churnOpts
	figBackend  engine.Backend
	engineSmoke bool
	shardSmoke  bool

	monitorAddr  string
	monitorSmoke bool

	causalSmoke bool
	causalOut   string

	wireSmoke bool
	wireOut   string
}

// realMain sets up the trace recorder and metrics endpoint (so their
// cleanup runs before os.Exit) and dispatches to run.
func realMain(m mainOpts) error {
	o := obs{reg: metrics.NewRegistry()}
	if m.traceFile != "" {
		f, err := os.Create(m.traceFile)
		if err != nil {
			return err
		}
		defer f.Close()
		rec := trace.NewBufferedRecorder(f)
		defer rec.Close()
		o.sink = rec
	}
	// With -monitor a passive observer rides the trace tee: every
	// experiment's events flow through it, so /status and /events show
	// the whole invocation's aggregate (across sequential runs the
	// convergence verdict describes the combined spread stream, not any
	// single run — use distclass-sim/-live -monitor for per-run health).
	var mon *distclass.Monitor
	if m.monitorAddr != "" {
		mon = distclass.NewMonitor()
		o.sink = trace.Tee(mon, o.sink)
	}
	if m.metricsAddr != "" || m.monitorAddr != "" {
		man := metrics.NewManifest("experiments", m.seed, map[string]string{
			"fig":      strconv.Itoa(m.fig),
			"ablation": m.ablation,
			"all":      strconv.FormatBool(m.all),
			"quick":    strconv.FormatBool(m.quick),
			"backend":  m.figBackend.String(),
		})
		mux := metrics.NewMux(o.reg, man)
		if mon != nil {
			mon.Attach(mux)
		}
		addrs := []string{m.metricsAddr}
		if m.monitorAddr != m.metricsAddr {
			addrs = append(addrs, m.monitorAddr)
		}
		for _, addr := range addrs {
			if addr == "" {
				continue
			}
			srv, err := metrics.ServeMux(addr, mux)
			if err != nil {
				return err
			}
			defer srv.Close()
			fmt.Printf("observability: http://%s/metrics (also /manifest, /debug/pprof/", srv.Addr())
			if mon != nil {
				fmt.Printf(", /status, /health, /events")
			}
			fmt.Println(")")
		}
	}
	return run(m, o)
}

func run(m mainOpts, o obs) error {
	figs := []int{m.fig}
	ablations := []string{m.ablation}
	if m.all {
		figs = []int{1, 2, 3, 4}
		ablations = []string{"topology", "k", "q", "policy", "mode", "methods", "reducer", "crash", "loss", "outliermethods", "scalability", "dimension", "relatedwork", "histogram"}
		m.churn.enabled = true
		m.engineSmoke = true
		m.shardSmoke = true
		m.monitorSmoke = true
		m.causalSmoke = true
		m.wireSmoke = true
	}
	for _, f := range figs {
		if f == 0 {
			continue
		}
		if err := runFigure(f, m.quick, m.seed, m.csvDir, m.figBackend, o); err != nil {
			return err
		}
	}
	for _, a := range ablations {
		if a == "" {
			continue
		}
		if err := runAblation(a, m.quick, m.seed, m.figBackend, o); err != nil {
			return err
		}
	}
	if m.churn.enabled {
		if err := runLiveChurn(m.churn, m.quick, m.seed, o); err != nil {
			return err
		}
	}
	if m.engineSmoke {
		if err := runEngineSmoke(m.seed, o); err != nil {
			return err
		}
	}
	if m.shardSmoke {
		if err := runShardSmoke(m.seed, o); err != nil {
			return err
		}
	}
	if m.monitorSmoke {
		if err := runMonitorSmoke(m.seed, o); err != nil {
			return err
		}
	}
	if m.causalSmoke {
		if err := runCausalSmoke(m.seed, m.causalOut, o); err != nil {
			return err
		}
	}
	if m.wireSmoke {
		if err := runWireSmoke(m.seed, m.wireOut, o); err != nil {
			return err
		}
	}
	return nil
}

// runEngineSmoke is the engine-smoke CI gate: the same tiny two-cluster
// workload on every backend, each audited for convergence and exact
// weight conservation. One protocol, five substrates, one readout.
func runEngineSmoke(seed uint64, o obs) error {
	fmt.Println("=== Engine smoke: tiny two-cluster workload on every backend ===")
	const n = 16
	out := make([][]string, 0, len(engine.Backends()))
	for _, b := range engine.Backends() {
		r := rng.New(seed)
		values := make([]distclass.Value, n)
		for i := range values {
			c := -4.0
			if i%2 == 1 {
				c = 4
			}
			values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
		}
		opts := []distclass.Option{
			distclass.WithK(2),
			distclass.WithSeed(seed),
			distclass.WithBackend(b),
			distclass.WithTolerance(0.05),
			distclass.WithMetrics(o.reg),
		}
		if o.sink != nil {
			opts = append(opts, distclass.WithTrace(o.sink), distclass.WithRunHeader())
		}
		var (
			converged bool
			rounds    string
			weight    float64
		)
		switch b {
		case engine.BackendRound, engine.BackendAsync:
			sys, err := distclass.New(values, distclass.GaussianMixture(), opts...)
			if err != nil {
				return fmt.Errorf("engine-smoke %s: %w", b, err)
			}
			ran, ok, err := sys.RunUntilConverged()
			if err != nil {
				return fmt.Errorf("engine-smoke %s: %w", b, err)
			}
			converged, rounds = ok, strconv.Itoa(ran)
			weight = sys.TotalWeight()
		default:
			opts = append(opts, distclass.WithInterval(time.Millisecond))
			cl, err := distclass.StartLive(values, distclass.GaussianMixture(), opts...)
			if err != nil {
				return fmt.Errorf("engine-smoke %s: %w", b, err)
			}
			ok, err := cl.WaitConverged(10*time.Second, 0.05)
			cl.Stop()
			if err == nil {
				err = cl.Err()
			}
			if err != nil {
				return fmt.Errorf("engine-smoke %s: %w", b, err)
			}
			converged, rounds = ok, "-"
			weight = cl.TotalWeight()
		}
		if !converged {
			return fmt.Errorf("engine-smoke %s: did not converge", b)
		}
		if drift := weight - n; drift > 1e-6 || drift < -1e-6 {
			return fmt.Errorf("engine-smoke %s: weight not conserved: %v vs %d (drift %v)", b, weight, n, drift)
		}
		out = append(out, []string{b.String(), "yes", rounds, experiments.F(weight)})
	}
	fmt.Println(experiments.FormatTable([]string{"backend", "converged", "rounds", "weight"}, out))
	return nil
}

// runShardSmoke is the shard-smoke CI gate: a 512-node two-cluster
// workload on the sharded scheduler — a scale the per-goroutine
// backends make painful in CI — audited for convergence, then for
// exact weight accounting through a kill/restart cycle: weight after
// the churn must equal n minus what the kills destroyed plus one unit
// per restarted node.
func runShardSmoke(seed uint64, o obs) error {
	fmt.Println("=== Shard smoke: 512-node workload on the sharded scheduler, with churn ===")
	const (
		n        = 512
		kills    = 16
		restarts = 8
		tol      = 0.05
	)
	r := rng.New(seed)
	values := make([]distclass.Value, n)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c = 4
		}
		values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}
	cl, err := distclass.StartLive(values, distclass.GaussianMixture(),
		distclass.WithK(2),
		distclass.WithSeed(seed),
		distclass.WithBackend(distclass.BackendShard),
		distclass.WithInterval(time.Millisecond),
		distclass.WithTolerance(tol),
		distclass.WithMetrics(o.reg),
	)
	if err != nil {
		return fmt.Errorf("shard-smoke: %w", err)
	}
	defer cl.Stop()
	ok, err := cl.WaitConverged(30*time.Second, tol)
	if err != nil {
		return fmt.Errorf("shard-smoke: %w", err)
	}
	if !ok {
		return fmt.Errorf("shard-smoke: did not converge")
	}
	expected := float64(n)
	var destroyed float64
	for k := 0; k < kills; k++ {
		w, err := cl.Kill(k * (n / kills))
		if err != nil {
			return fmt.Errorf("shard-smoke: %w", err)
		}
		destroyed += w
	}
	expected -= destroyed
	for k := 0; k < restarts; k++ {
		i := k * (n / kills)
		if err := cl.Restart(i, values[i]); err != nil {
			return fmt.Errorf("shard-smoke: %w", err)
		}
		expected++
	}
	if _, err := cl.WaitConverged(30*time.Second, tol); err != nil {
		return fmt.Errorf("shard-smoke: %w", err)
	}
	cl.Stop() // drain the shard mailboxes so the audit is exact
	if err := cl.Err(); err != nil {
		return fmt.Errorf("shard-smoke: %w", err)
	}
	weight := cl.TotalWeight()
	if drift := weight - expected; drift > 1e-6 || drift < -1e-6 {
		return fmt.Errorf("shard-smoke: weight not conserved through churn: %v vs %v (drift %v)", weight, expected, drift)
	}
	fmt.Println(experiments.FormatTable(
		[]string{"nodes", "converged", "killed", "restarted", "destroyed", "weight"},
		[][]string{{strconv.Itoa(n), "yes", strconv.Itoa(kills), strconv.Itoa(restarts),
			experiments.F(destroyed), experiments.F(weight)}}))
	return nil
}

// runCausalSmoke is the causal-smoke CI gate: the engine-smoke workload
// on every backend with causal tracing on, each trace analyzed for a
// clean happens-before reconstruction — zero anomalies, every receive
// matched, and a provenance ledger that conserves the initial weight
// exactly. With outPrefix != "" each backend's trace is also written to
// <prefix>.<backend>.trace so the distclass-analyze CLI can re-audit
// the same bytes.
func runCausalSmoke(seed uint64, outPrefix string, o obs) error {
	fmt.Println("=== Causal smoke: happens-before + provenance audit on every backend ===")
	const n = 16
	out := make([][]string, 0, len(engine.Backends()))
	for _, b := range engine.Backends() {
		rep, err := causalSmokeBackend(b, seed, outPrefix, o)
		if err != nil {
			return err
		}
		out = append(out, []string{
			b.String(),
			fmt.Sprintf("%d/%d", rep.Matched, rep.Sends),
			strconv.FormatUint(rep.MaxClock, 10),
			strconv.Itoa(rep.MaxDepth),
			experiments.F(rep.Ledger.ActualTotal),
		})
	}
	fmt.Println(experiments.FormatTable(
		[]string{"backend", "matched", "clock", "depth", "weight"}, out))
	return nil
}

// causalSmokeBackend runs one causally traced workload on backend b
// and audits the resulting trace. Extra options (a non-default codec,
// frame batching) ride along so the wire-smoke gate can rerun the same
// audit over the batched v2 transport.
func causalSmokeBackend(b engine.Backend, seed uint64, outPrefix string, o obs, extra ...distclass.Option) (*causal.Report, error) {
	const n = 16
	r := rng.New(seed)
	values := make([]distclass.Value, n)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c = 4
		}
		values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}
	const tol = 0.05
	var buf bytes.Buffer
	opts := []distclass.Option{
		distclass.WithK(2),
		distclass.WithSeed(seed),
		distclass.WithBackend(b),
		distclass.WithTolerance(tol),
		distclass.WithMetrics(o.reg),
		distclass.WithTrace(trace.NewRecorder(&buf)),
		distclass.WithCausal(),
	}
	opts = append(opts, extra...)
	switch b {
	case engine.BackendRound, engine.BackendAsync:
		sys, err := distclass.New(values, distclass.GaussianMixture(), opts...)
		if err != nil {
			return nil, fmt.Errorf("causal-smoke %s: %w", b, err)
		}
		_, ok, err := sys.RunUntilConverged()
		if err != nil {
			return nil, fmt.Errorf("causal-smoke %s: %w", b, err)
		}
		if !ok {
			return nil, fmt.Errorf("causal-smoke %s: did not converge", b)
		}
	default:
		opts = append(opts, distclass.WithInterval(time.Millisecond))
		cl, err := distclass.StartLive(values, distclass.GaussianMixture(), opts...)
		if err != nil {
			return nil, fmt.Errorf("causal-smoke %s: %w", b, err)
		}
		ok, err := cl.WaitConverged(10*time.Second, tol)
		cl.Stop()
		if err == nil {
			err = cl.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("causal-smoke %s: %w", b, err)
		}
		if !ok {
			return nil, fmt.Errorf("causal-smoke %s: did not converge", b)
		}
	}
	if outPrefix != "" {
		path := outPrefix + "." + b.String() + ".trace"
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("causal-smoke %s: %w", b, err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	rep, err := causal.Analyze(bytes.NewReader(buf.Bytes()), causal.Options{Tolerance: tol})
	if err != nil {
		return nil, fmt.Errorf("causal-smoke %s: analyze: %w", b, err)
	}
	if len(rep.Anomalies) != 0 {
		return nil, fmt.Errorf("causal-smoke %s: %d anomalies (first: %s)", b, len(rep.Anomalies), rep.Anomalies[0].Detail)
	}
	if rep.Sends == 0 || rep.Matched != rep.Receives || rep.Duplicates != 0 || rep.UnmatchedReceives != 0 {
		return nil, fmt.Errorf("causal-smoke %s: dirty matching: sends %d receives %d matched %d duplicates %d unmatched %d",
			b, rep.Sends, rep.Receives, rep.Matched, rep.Duplicates, rep.UnmatchedReceives)
	}
	// Only the async driver may stop with messages still queued; every
	// other backend drains on Stop, so each send must have matched.
	if b != engine.BackendAsync && rep.Matched != rep.Sends {
		return nil, fmt.Errorf("causal-smoke %s: %d of %d sends unmatched", b, rep.Sends-rep.Matched, rep.Sends)
	}
	lr := rep.Ledger
	if math.Float64bits(lr.ExpectedTotal) != math.Float64bits(float64(n)) {
		return nil, fmt.Errorf("causal-smoke %s: ledger expected %v, want exactly %d", b, lr.ExpectedTotal, n)
	}
	if lr.MaxColumnDrift > 1e-9 {
		return nil, fmt.Errorf("causal-smoke %s: ledger column drift %v beyond 1e-9", b, lr.MaxColumnDrift)
	}
	if drift := lr.ActualTotal - lr.ExpectedTotal; drift > 1e-9 || drift < -1e-9 {
		return nil, fmt.Errorf("causal-smoke %s: ledger total %v drifts from %v", b, lr.ActualTotal, lr.ExpectedTotal)
	}
	if lr.Destroyed > 0 {
		return nil, fmt.Errorf("causal-smoke %s: %v weight destroyed on a crash-free run", b, lr.Destroyed)
	}
	return rep, nil
}

// runWireSmoke is the wire-smoke CI gate for the v2 transport stack.
// Phase one reruns the causal-smoke audit on both wire backends under
// the v2 codec with frame batching: batching and quantization must not
// disturb convergence, the exact weight-conservation audit, or the
// happens-before/provenance reconstruction (with outPrefix != "" the
// batched traces are written to <prefix>.<backend>.trace so
// distclass-analyze can re-audit the same bytes). Phase two measures
// the deployment claim on uninstrumented traffic: the same two-cluster
// workload per codec config, compared by wire bytes per logical
// message, asserting the batched v2 stack spends at least 40% less
// than v1 on tcp.
func runWireSmoke(seed uint64, outPrefix string, o obs) error {
	fmt.Println("=== Wire smoke: v2 codec + frame batching on the wire backends ===")
	wireBackends := []engine.Backend{engine.BackendPipe, engine.BackendTCP}
	for _, b := range wireBackends {
		if _, err := causalSmokeBackend(b, seed, outPrefix, o,
			distclass.WithCodec(distclass.CodecV2),
			distclass.WithFrameBatch(8),
		); err != nil {
			return fmt.Errorf("wire-smoke batched causal audit: %w", err)
		}
	}

	configs := []struct {
		name  string
		codec distclass.Codec
		batch int
	}{
		{"v1", distclass.CodecV1, 0},
		{"v2+batch8", distclass.CodecV2, 8},
		{"v2f32+batch8", distclass.CodecV2F32, 8},
	}
	const dropWant = 0.40
	out := make([][]string, 0, len(wireBackends)*len(configs))
	perMsg := map[engine.Backend]map[string]float64{}
	for _, b := range wireBackends {
		perMsg[b] = map[string]float64{}
		for _, c := range configs {
			bytesPerMsg, msgs, frames, err := wireSmokeBytes(b, seed, c.codec, c.batch)
			if err != nil {
				return fmt.Errorf("wire-smoke %s %s: %w", b, c.name, err)
			}
			perMsg[b][c.name] = bytesPerMsg
			drop := "-"
			if base := perMsg[b]["v1"]; c.codec != distclass.CodecV1 && base > 0 {
				drop = fmt.Sprintf("%.1f%%", 100*(1-bytesPerMsg/base))
			}
			out = append(out, []string{
				b.String(), c.name, fmt.Sprintf("%.1f", bytesPerMsg),
				strconv.FormatInt(msgs, 10), strconv.FormatInt(frames, 10), drop,
			})
		}
	}
	fmt.Println(experiments.FormatTable(
		[]string{"backend", "config", "bytes/msg", "messages", "frames", "drop"}, out))
	base := perMsg[engine.BackendTCP]["v1"]
	best := perMsg[engine.BackendTCP]["v2f32+batch8"]
	if base <= 0 || best <= 0 {
		return fmt.Errorf("wire-smoke: missing byte measurements (v1 %.1f, v2f32+batch8 %.1f)", base, best)
	}
	if drop := 1 - best/base; drop < dropWant {
		return fmt.Errorf("wire-smoke: tcp bytes/message dropped only %.1f%% (v1 %.1f -> v2f32+batch8 %.1f), want >= %.0f%%",
			100*drop, base, best, 100*dropWant)
	}
	fmt.Printf("wire-smoke: tcp bytes/message %.1f -> %.1f (-%.1f%%)\n", base, best, 100*(1-best/base))
	return nil
}

// wireSmokeBytes runs one uninstrumented (no causal stamps) workload
// on wire backend b under the given codec and batch bound, audits
// convergence and conservation, and returns the measured wire bytes
// per logical message plus the raw message and frame counts.
func wireSmokeBytes(b engine.Backend, seed uint64, codec distclass.Codec, batch int) (float64, int64, int64, error) {
	const n = 16
	const tol = 0.05
	r := rng.New(seed)
	values := make([]distclass.Value, n)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c = 4
		}
		values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}
	// A fresh registry per run: the byte and message counters must
	// describe exactly this cluster, not the invocation's aggregate.
	// The tick is deliberately aggressive — deployment-grade load makes
	// send queues actually build, so the coalescing path is exercised
	// rather than degenerating to one message per frame.
	reg := distclass.NewRegistry()
	opts := []distclass.Option{
		distclass.WithK(2),
		distclass.WithSeed(seed),
		distclass.WithBackend(b),
		distclass.WithTolerance(tol),
		distclass.WithInterval(200 * time.Microsecond),
		distclass.WithMetrics(reg),
	}
	if codec != distclass.CodecV1 {
		opts = append(opts, distclass.WithCodec(codec))
	}
	if batch != 0 {
		opts = append(opts, distclass.WithFrameBatch(batch))
	}
	cl, err := distclass.StartLive(values, distclass.GaussianMixture(), opts...)
	if err != nil {
		return 0, 0, 0, err
	}
	ok, err := cl.WaitConverged(10*time.Second, tol)
	if err == nil && ok {
		// Hold the converged cluster at steady state so full-k traffic
		// dominates the byte average; a run stopped at the convergence
		// instant over-weights the small single-collection startup
		// frames and the measurement becomes trajectory noise.
		time.Sleep(time.Second)
	}
	cl.Stop()
	if err == nil {
		err = cl.Err()
	}
	if err != nil {
		return 0, 0, 0, err
	}
	if !ok {
		return 0, 0, 0, fmt.Errorf("did not converge")
	}
	if drift := cl.TotalWeight() - n; drift > 1e-6 || drift < -1e-6 {
		return 0, 0, 0, fmt.Errorf("weight not conserved: %v vs %d (drift %v)", cl.TotalWeight(), n, drift)
	}
	msgs := reg.Counter("livenet.sent").Value()
	wireBytes := reg.Counter("livenet.bytes_sent").Value()
	frames := reg.Counter("livenet.frames_sent").Value()
	if msgs == 0 || wireBytes == 0 {
		return 0, 0, 0, fmt.Errorf("no traffic measured (messages %d, bytes %d)", msgs, wireBytes)
	}
	return float64(wireBytes) / float64(msgs), msgs, frames, nil
}

// runMonitorSmoke runs the engine-smoke workload on every backend with
// the online monitor attached, serves the monitor over HTTP on a
// loopback port and asserts the plane end to end: /health answers 200
// converged, /status reports an exact conservation audit with zero
// violations, and /events streams the run's trace tail.
func runMonitorSmoke(seed uint64, o obs) error {
	fmt.Println("=== Monitor smoke: online watcher + HTTP plane on every backend ===")
	const n = 16
	out := make([][]string, 0, len(engine.Backends()))
	for _, b := range engine.Backends() {
		st, err := monitorSmokeBackend(b, seed, o)
		if err != nil {
			return err
		}
		out = append(out, []string{
			b.String(), st.Health,
			strconv.Itoa(st.Convergence.Samples),
			experiments.F(st.Conservation.Latest),
			strconv.FormatBool(st.Conservation.Exact),
		})
	}
	fmt.Println(experiments.FormatTable(
		[]string{"backend", "health", "samples", "weight", "exact"}, out))
	return nil
}

// monitorSmokeBackend runs one monitored workload on backend b and
// returns the /status snapshot after the HTTP assertions pass.
func monitorSmokeBackend(b engine.Backend, seed uint64, o obs) (*monitor.Status, error) {
	const n = 16
	r := rng.New(seed)
	values := make([]distclass.Value, n)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c = 4
		}
		values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}
	mon := distclass.NewMonitor()
	opts := []distclass.Option{
		distclass.WithK(2),
		distclass.WithSeed(seed),
		distclass.WithBackend(b),
		distclass.WithTolerance(0.05),
		distclass.WithMetrics(o.reg),
		distclass.WithMonitor(mon),
	}
	if o.sink != nil {
		opts = append(opts, distclass.WithTrace(o.sink), distclass.WithRunHeader())
	}
	switch b {
	case engine.BackendRound, engine.BackendAsync:
		sys, err := distclass.New(values, distclass.GaussianMixture(), opts...)
		if err != nil {
			return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
		}
		if _, _, err := sys.RunUntilConverged(); err != nil {
			return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
		}
	default:
		opts = append(opts, distclass.WithInterval(time.Millisecond),
			distclass.WithMonitorInterval(2*time.Millisecond))
		cl, err := distclass.StartLive(values, distclass.GaussianMixture(), opts...)
		if err != nil {
			return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
		}
		ok, err := cl.WaitConverged(10*time.Second, 0.05)
		if err == nil && ok {
			// The cluster's own spread probe saw convergence; give the
			// monitor's independent probe time to reach the same verdict
			// (converged AND currently below threshold) before tearing
			// the cluster down.
			deadline := time.Now().Add(10 * time.Second)
			for mon.Status().Health != monitor.HealthConverged && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
		}
		cl.Stop()
		if err == nil {
			err = cl.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
		}
		if !ok {
			return nil, fmt.Errorf("monitor-smoke %s: did not converge", b)
		}
	}

	// Serve the monitor on a loopback port and assert over real HTTP.
	mux := http.NewServeMux()
	mon.Attach(mux)
	srv, err := metrics.ServeMux("127.0.0.1:0", mux)
	if err != nil {
		return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body, code, err := httpGet(base + "/health")
	if err != nil {
		return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
	}
	if code != http.StatusOK || !strings.Contains(body, monitor.HealthConverged) {
		return nil, fmt.Errorf("monitor-smoke %s: /health = %d %q, want 200 converged", b, code, strings.TrimSpace(body))
	}
	body, code, err = httpGet(base + "/status")
	if err != nil {
		return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("monitor-smoke %s: /status = %d", b, code)
	}
	var st monitor.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return nil, fmt.Errorf("monitor-smoke %s: /status decode: %w", b, err)
	}
	if st.Backend != b.String() {
		return nil, fmt.Errorf("monitor-smoke %s: /status backend = %q", b, st.Backend)
	}
	if st.Nodes != n {
		return nil, fmt.Errorf("monitor-smoke %s: /status nodes = %d, want %d", b, st.Nodes, n)
	}
	if !st.Conservation.Audited || !st.Conservation.Exact || st.Conservation.Violations != 0 {
		return nil, fmt.Errorf("monitor-smoke %s: conservation audit failed: audited=%v exact=%v violations=%d drift=%v",
			b, st.Conservation.Audited, st.Conservation.Exact, st.Conservation.Violations, st.Conservation.Drift)
	}
	if len(st.SpreadCurve) == 0 {
		return nil, fmt.Errorf("monitor-smoke %s: empty spread curve", b)
	}
	body, code, err = httpGet(base + "/events?kind=spread&n=4")
	if err != nil {
		return nil, fmt.Errorf("monitor-smoke %s: %w", b, err)
	}
	if code != http.StatusOK || strings.TrimSpace(body) == "" {
		return nil, fmt.Errorf("monitor-smoke %s: /events = %d, want a non-empty JSONL tail", b, code)
	}
	return &st, nil
}

// httpGet fetches a URL and returns its body and status code.
func httpGet(url string) (string, int, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	return string(body), resp.StatusCode, nil
}

// parseFracs parses the -churn-fracs comma-separated list.
func parseFracs(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad kill fraction %q: %w", part, err)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no kill fractions in %q", s)
	}
	return out, nil
}

// runLiveChurn runs the live crash ablation: real clusters on the
// chosen backend, real kills, Figure 4's weight-destroyed vs. error
// readout.
func runLiveChurn(churn churnOpts, quick bool, seed uint64, o obs) error {
	fracs, err := parseFracs(churn.fracs)
	if err != nil {
		return err
	}
	fmt.Printf("=== Live churn: killing real cluster nodes mid-run (Figure 4, deployed; %s backend) ===\n", churn.backend)
	cfg := live.ChurnConfig{
		Backend:    churn.backend,
		KillFracs:  fracs,
		Seed:       seed,
		Strict:     churn.strict,
		Codec:      churn.codec,
		FrameBatch: churn.frameBatch,
		Metrics:    o.reg,
		Trace:      o.sink,
	}
	if quick {
		cfg.N = 20
	}
	rows, err := live.RunLiveChurn(cfg)
	if err != nil {
		return err
	}
	fmt.Println(live.ChurnTable(rows))
	return nil
}

func runFigure(fig int, quick bool, seed uint64, csvDir string, backend engine.Backend, o obs) error {
	switch fig {
	case 1:
		fmt.Println("=== Figure 1: value association, centroids vs Gaussians ===")
		res, err := experiments.RunFigure1()
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
	case 2:
		fmt.Println("=== Figure 2: GM classification of 3-Gaussian data ===")
		cfg := experiments.Fig2Config{Seed: seed}
		if quick {
			cfg.N = 200
			cfg.MaxRounds = 40
		}
		res, err := experiments.RunFigure2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Table())
		scene, err := plot.MixtureScene(78, 26, res.Values, res.Estimated)
		if err != nil {
			return err
		}
		fmt.Println("input values (.) with the estimated mixture's 2-sigma contours (o), x = singleton slivers:")
		fmt.Println(scene)
		if csvDir != "" {
			if err := writeCSVFile(csvDir, "fig2.csv", func(w io.Writer) error {
				return experiments.Fig2CSV(w, res)
			}); err != nil {
				return err
			}
		}
	case 3:
		fmt.Println("=== Figure 3: outlier-robust average vs delta ===")
		cfg := experiments.Fig3Config{Seed: seed}
		if quick {
			cfg.NGood, cfg.NOut = 190, 10
			cfg.Rounds = 30
			cfg.Deltas = []float64{0, 2, 4, 5, 6, 8, 10, 15, 20, 25}
		}
		rows, err := experiments.RunFigure3(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig3Table(rows))
		if csvDir != "" {
			if err := writeCSVFile(csvDir, "fig3.csv", func(w io.Writer) error {
				return experiments.Fig3CSV(w, rows)
			}); err != nil {
				return err
			}
		}
	case 4:
		fmt.Printf("=== Figure 4: crash robustness and convergence speed (%s backend) ===\n", backend)
		cfg := experiments.Fig4Config{Seed: seed, Backend: backend, Metrics: o.reg, Trace: o.sink}
		if quick {
			cfg.NGood, cfg.NOut = 190, 10
			cfg.Rounds = 30
		}
		rows, err := experiments.RunFigure4(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.Fig4Table(rows))
		if csvDir != "" {
			if err := writeCSVFile(csvDir, "fig4.csv", func(w io.Writer) error {
				return experiments.Fig4CSV(w, rows)
			}); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown figure %d (valid: 1-4)", fig)
	}
	return nil
}

func runAblation(name string, quick bool, seed uint64, backend engine.Backend, o obs) error {
	cfg := experiments.AblationConfig{Seed: seed, Metrics: o.reg, Trace: o.sink}
	if quick {
		cfg.N = 36
	}
	switch name {
	case "topology":
		fmt.Println("=== Ablation A: rounds to convergence by topology ===")
		kinds := []topology.Kind{
			topology.KindFull, topology.KindGrid, topology.KindTorus,
			topology.KindER, topology.KindGeometric, topology.KindTree,
			topology.KindStar,
		}
		cfg.MaxRounds = 400
		runs, err := experiments.RunTopologyAblation(kinds, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ConvergenceTable(runs))
		fmt.Println("(rings mix in Theta(n^2) rounds; run with a larger budget separately)")
	case "k":
		fmt.Println("=== Ablation B: classification quality by k (Figure 2 data) ===")
		n, rounds := 400, 60
		if quick {
			n, rounds = 120, 40
		}
		rows, err := experiments.RunKQuality([]int{2, 3, 4, 5, 7, 10}, n, rounds, seed)
		if err != nil {
			return err
		}
		out := make([][]string, len(rows))
		for i, r := range rows {
			out[i] = []string{
				fmt.Sprintf("%d", r.K),
				experiments.F(r.MeanCoverError),
				fmt.Sprintf("%d", r.Components),
			}
		}
		fmt.Println(experiments.FormatTable([]string{"k", "mean cover error", "components"}, out))
	case "q":
		fmt.Println("=== Ablation C: weight quantum q (Zeno guard) ===")
		rows, err := experiments.RunQAblation([]float64{0.25, 1.0 / 64, 1.0 / 4096, 1.0 / (1 << 30)}, cfg)
		if err != nil {
			return err
		}
		out := make([][]string, len(rows))
		for i, r := range rows {
			out[i] = []string{
				experiments.F(r.Q),
				fmt.Sprintf("%d", r.Rounds),
				experiments.F(r.WeightDrift),
			}
		}
		fmt.Println(experiments.FormatTable([]string{"q", "rounds", "weight drift"}, out))
	case "policy":
		fmt.Println("=== Ablation D: gossip policy ===")
		runs, err := experiments.RunPolicyAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ConvergenceTable(runs))
	case "mode":
		fmt.Println("=== Ablation D': gossip mode (push / pull / push-pull) ===")
		runs, err := experiments.RunModeAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ConvergenceTable(runs))
	case "methods":
		fmt.Println("=== Methods: centroids vs GM on bimodal data ===")
		rows, err := experiments.RunMethodComparison(cfg)
		if err != nil {
			return err
		}
		out := make([][]string, len(rows))
		for i, r := range rows {
			out[i] = []string{r.Method, fmt.Sprintf("%d", r.Rounds), experiments.F(r.FinalSpread)}
		}
		fmt.Println(experiments.FormatTable([]string{"method", "rounds", "spread"}, out))
	case "reducer":
		fmt.Println("=== Reducer: EM vs greedy Runnalls merging (Figure 2 data, k=7) ===")
		rows, err := experiments.RunReducerAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ReducerTable(rows))
	case "crash":
		fmt.Println("=== Crash sweep: final error vs per-round crash probability ===")
		n := 1000
		if quick {
			n = 200
		}
		rows, err := experiments.RunCrashSweep(
			[]float64{0, 0.01, 0.02, 0.05, 0.1, 0.15},
			experiments.Fig4Config{NGood: n * 19 / 20, NOut: n / 20, Seed: seed, Backend: backend, Metrics: o.reg, Trace: o.sink},
		)
		if err != nil {
			return err
		}
		fmt.Println(experiments.CrashSweepTable(rows))
	case "loss":
		fmt.Println("=== Message loss: degrading the reliable-channel assumption ===")
		rows, err := experiments.RunLossAblation([]float64{0, 0.05, 0.1, 0.2, 0.3}, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.LossTable(rows))
	case "outliermethods":
		fmt.Println("=== Outlier removal: centroids vs GM on the Figure 3 workload ===")
		n := 1000
		rounds := 50
		if quick {
			n, rounds = 200, 30
		}
		rows, err := experiments.RunOutlierMethodComparison(10, n*19/20, n/20, rounds, seed)
		if err != nil {
			return err
		}
		out := make([][]string, len(rows))
		for i, r := range rows {
			out[i] = []string{r.Method, experiments.F(r.RobustErr)}
		}
		fmt.Println(experiments.FormatTable([]string{"method", "robust err"}, out))
	case "relatedwork":
		fmt.Println("=== Related work: one-shot classification vs iterative gossip baselines ===")
		cfg.MaxRounds = 300
		rows, err := experiments.RunRelatedWorkComparison(cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RelatedWorkTable(rows))
	case "scalability":
		fmt.Println("=== Scalability: rounds and payload vs n ===")
		sizes := []int{32, 64, 128, 256}
		if quick {
			sizes = []int{16, 32, 64}
		}
		cfg.MaxRounds = 300
		rows, err := experiments.RunScalabilityAblation(sizes, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.ScalabilityTable(rows))
	case "dimension":
		fmt.Println("=== Dimension sweep: two clusters in R^d ===")
		dims := []int{1, 2, 3, 5, 8}
		cfg.MaxRounds = 200
		rows, err := experiments.RunDimensionAblation(dims, cfg)
		if err != nil {
			return err
		}
		fmt.Println(experiments.DimensionTable(rows))
	case "histogram":
		fmt.Println("=== Related work: GM robust mean vs gossip histogram ===")
		n, rounds := 500, 40
		if quick {
			n, rounds = 200, 30
		}
		res, err := experiments.RunHistogramComparison(n, 15, rounds, seed)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatTable(
			[]string{"estimator", "mean error"},
			[][]string{
				{"gm robust (k=2)", experiments.F(res.RobustErr)},
				{"gossip histogram", experiments.F(res.HistogramErr)},
			}))
	default:
		return fmt.Errorf("unknown ablation %q", name)
	}
	return nil
}
