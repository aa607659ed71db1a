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
//	experiments -ablation NAME    # one ablation study (names below)
//	experiments -live-churn       # live Figure 4: kill real cluster nodes mid-run
//	experiments -smoke NAME,...   # smoke gates (names below, or all)
//	experiments -all              # everything (long)
//
// The ablations, in the order -all runs them, are topology, k, q,
// policy, mode, methods, reducer, crash, loss, outliermethods,
// scalability, dimension, relatedwork and histogram.
//
// The smoke gates run a two-cluster workload to convergence and audit
// its final weight; they are engine (every backend), shard
// (512 nodes through kill/restart churn), monitor (the HTTP monitoring
// plane on every backend), causal (happens-before and provenance on
// every backend) and wire (v2 codec and frame batching on pipe and
// tcp). -smoke-out DIR keeps the traced gates' traces as
// DIR/<gate>.<backend>.trace.
//
// Use -quick for reduced network sizes (fast smoke runs). The live
// churn ablation takes -churn-fracs (comma-separated kill fractions)
// and -strict (fail on non-convergence or conservation violations).
// -backend moves the Figure 4 crash runs and the churn ablation onto
// another engine substrate (round, async, pipe, tcp, shard); -codec
// (v2 or v2f32) and -frame-batch set the churn clusters' wire
// encoding and frame batching.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"distclass"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/experiments/live"
	"distclass/internal/metrics"
	"distclass/internal/plot"
	"distclass/internal/prof"
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
		ablation    = flag.String("ablation", "", "ablation to run: "+strings.Join(ablationNames(), ", "))
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
		smokeList   = flag.String("smoke", "", "comma-separated smoke gates to run ("+strings.Join(smokeNames(), ", ")+") or all: a two-cluster workload per backend, audited for convergence and weight conservation")
		smokeOut    = flag.String("smoke-out", "", "with -smoke: also write each traced gate's traces to DIR/<gate>.<backend>.trace")
		monitorAddr = flag.String("monitor", "", "attach a passive online monitor to the event stream and serve /status, /health and /events (plus the -metrics endpoints) on this address; state aggregates across every experiment of the invocation")
		codecFlag   = flag.String("codec", "v2", "wire codec for the -live-churn clusters on wire backends: v2 or v2f32")
		frameBatch  = flag.Int("frame-batch", 0, "coalesce up to this many queued messages per wire frame in the -live-churn clusters (wire backends; 0 or 1 disables)")
	)
	flag.Parse()

	smokeRows, err := parseSmokes(*smokeList, *smokeOut)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	if !*all && *fig == 0 && *ablation == "" && !*liveChurn && len(smokeRows) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	churnCodec, err := distclass.ParseCodec(*codecFlag)
	if err != nil {
		log.Print(err)
		os.Exit(2)
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
		monitorAddr: *monitorAddr, smokes: smokeRows, smokeOut: *smokeOut,
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
	monitorAddr string
	smokes      []smoke
	smokeOut    string // -smoke-out directory
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
	names := []string{m.ablation}
	if m.all {
		figs = []int{1, 2, 3, 4}
		names = ablationNames()
		m.churn.enabled = true
		m.smokes = smokes()
	}
	for _, f := range figs {
		if f == 0 {
			continue
		}
		if err := runFigure(f, m.quick, m.seed, m.csvDir, m.figBackend, o); err != nil {
			return err
		}
	}
	for _, a := range names {
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
	for _, s := range m.smokes {
		if err := runSmoke(s, m.seed, m.smokeOut, o); err != nil {
			return err
		}
	}
	return nil
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

// ablation is one study of the -ablation table. run gets the shared
// config (seed, observability, and N = 36 under -quick).
type ablation struct {
	name  string
	title string // the banner, between "=== " and " ==="
	run   func(cfg experiments.AblationConfig, quick bool, backend engine.Backend) error
}

// ablations is the -ablation table, in the order -all runs it.
func ablations() []ablation {
	return []ablation{
		{"topology", "Ablation A: rounds to convergence by topology", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
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
			return nil
		}},
		{"k", "Ablation B: classification quality by k (Figure 2 data)", func(cfg experiments.AblationConfig, quick bool, _ engine.Backend) error {
			n, rounds := 400, 60
			if quick {
				n, rounds = 120, 40
			}
			rows, err := experiments.RunKQuality([]int{2, 3, 4, 5, 7, 10}, n, rounds, cfg.Seed)
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
			return nil
		}},
		{"q", "Ablation C: weight quantum q (Zeno guard)", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
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
			return nil
		}},
		{"policy", "Ablation D: gossip policy", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
			runs, err := experiments.RunPolicyAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(experiments.ConvergenceTable(runs))
			return nil
		}},
		{"mode", "Ablation D': gossip mode (push / pull / push-pull)", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
			runs, err := experiments.RunModeAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(experiments.ConvergenceTable(runs))
			return nil
		}},
		{"methods", "Methods: centroids vs GM on bimodal data", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
			rows, err := experiments.RunMethodComparison(cfg)
			if err != nil {
				return err
			}
			out := make([][]string, len(rows))
			for i, r := range rows {
				out[i] = []string{r.Method, fmt.Sprintf("%d", r.Rounds), experiments.F(r.FinalSpread)}
			}
			fmt.Println(experiments.FormatTable([]string{"method", "rounds", "spread"}, out))
			return nil
		}},
		{"reducer", "Reducer: EM vs greedy Runnalls merging (Figure 2 data, k=7)", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
			rows, err := experiments.RunReducerAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println(experiments.ReducerTable(rows))
			return nil
		}},
		{"crash", "Crash sweep: final error vs per-round crash probability", func(cfg experiments.AblationConfig, quick bool, backend engine.Backend) error {
			n := 1000
			if quick {
				n = 200
			}
			rows, err := experiments.RunCrashSweep(
				[]float64{0, 0.01, 0.02, 0.05, 0.1, 0.15},
				experiments.Fig4Config{NGood: n * 19 / 20, NOut: n / 20, Seed: cfg.Seed, Backend: backend, Metrics: cfg.Metrics, Trace: cfg.Trace},
			)
			if err != nil {
				return err
			}
			fmt.Println(experiments.CrashSweepTable(rows))
			return nil
		}},
		{"loss", "Message loss: degrading the reliable-channel assumption", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
			rows, err := experiments.RunLossAblation([]float64{0, 0.05, 0.1, 0.2, 0.3}, cfg)
			if err != nil {
				return err
			}
			fmt.Println(experiments.LossTable(rows))
			return nil
		}},
		{"outliermethods", "Outlier removal: centroids vs GM on the Figure 3 workload", func(cfg experiments.AblationConfig, quick bool, _ engine.Backend) error {
			n := 1000
			rounds := 50
			if quick {
				n, rounds = 200, 30
			}
			rows, err := experiments.RunOutlierMethodComparison(10, n*19/20, n/20, rounds, cfg.Seed)
			if err != nil {
				return err
			}
			out := make([][]string, len(rows))
			for i, r := range rows {
				out[i] = []string{r.Method, experiments.F(r.RobustErr)}
			}
			fmt.Println(experiments.FormatTable([]string{"method", "robust err"}, out))
			return nil
		}},
		{"scalability", "Scalability: rounds and payload vs n", func(cfg experiments.AblationConfig, quick bool, _ engine.Backend) error {
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
			return nil
		}},
		{"dimension", "Dimension sweep: two clusters in R^d", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
			dims := []int{1, 2, 3, 5, 8}
			cfg.MaxRounds = 200
			rows, err := experiments.RunDimensionAblation(dims, cfg)
			if err != nil {
				return err
			}
			fmt.Println(experiments.DimensionTable(rows))
			return nil
		}},
		{"relatedwork", "Related work: one-shot classification vs iterative gossip baselines", func(cfg experiments.AblationConfig, _ bool, _ engine.Backend) error {
			cfg.MaxRounds = 300
			rows, err := experiments.RunRelatedWorkComparison(cfg)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RelatedWorkTable(rows))
			return nil
		}},
		{"histogram", "Related work: GM robust mean vs gossip histogram", func(cfg experiments.AblationConfig, quick bool, _ engine.Backend) error {
			n, rounds := 500, 40
			if quick {
				n, rounds = 200, 30
			}
			res, err := experiments.RunHistogramComparison(n, 15, rounds, cfg.Seed)
			if err != nil {
				return err
			}
			fmt.Println(experiments.FormatTable(
				[]string{"estimator", "mean error"},
				[][]string{
					{"gm robust (k=2)", experiments.F(res.RobustErr)},
					{"gossip histogram", experiments.F(res.HistogramErr)},
				}))
			return nil
		}},
	}
}

func ablationNames() []string {
	var names []string
	for _, a := range ablations() {
		names = append(names, a.name)
	}
	return names
}

func runAblation(name string, quick bool, seed uint64, backend engine.Backend, o obs) error {
	cfg := experiments.AblationConfig{Seed: seed, Metrics: o.reg, Trace: o.sink}
	if quick {
		cfg.N = 36
	}
	for _, a := range ablations() {
		if a.name == name {
			fmt.Printf("=== %s ===\n", a.title)
			return a.run(cfg, quick, backend)
		}
	}
	return fmt.Errorf("unknown ablation %q (valid: %s)", name, strings.Join(ablationNames(), ", "))
}
