// Command distclass-bench is the repository benchmark. It runs one
// workload per process, prints every end-to-end metric (or, traced,
// every per-layer metric) with its unit, checks that each run's output
// is correct, and ends with a one-line JSON result:
//
//	bash cmd/distclass-bench/run.sh --workload fig2-round --seed 1 --seconds 20 --trace 0
//
// The workloads, the metrics and which layer each metric belongs to
// are described in README.md; BENCHMARK.json at the repository root
// lists them with their units, directions and regression bounds.
//
// The benchmark drives the system only through its public functions
// (engine.New, Step, Spread, RunUntilConverged, Kill, Restart, Stats,
// the core.Method interface, a trace.Sink, the metrics registry and the
// wire codec) and times each layer from outside, around the calls into
// it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"distclass/internal/rng"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	// plane marks a per-layer metric that needs the trace plane: in a
	// traced run it is read from the traced rep of each pair, and every
	// other metric from that rep's untraced twin, which the trace plane
	// (causal stamps on the wire, the method wrapper) cannot perturb.
	plane bool
	// hostExp says how an end-to-end metric depends on host speed: a
	// duration (1) is multiplied by the run's host scale, a rate (-1)
	// divided by it, a count (0) left alone.
	hostExp int
}

// endToEnd lists the metrics an untraced run prints, in BENCHMARK.json
// order.
func endToEnd() []metricDef {
	return []metricDef{
		{name: "setup_s", unit: "s", hostExp: 1},
		{name: "msgs_per_s", unit: "msg/s", hostExp: -1},
		{name: "cpu_us_per_msg", unit: "us/msg", hostExp: 1},
		{name: "allocs_per_msg", unit: "allocs/msg"},
		{name: "max_rss_mb", unit: "MiB"},
	}
}

// perLayer lists the metrics a traced run prints, in BENCHMARK.json
// order. A workload that does not exercise a layer reports 0 for it.
func perLayer() []metricDef {
	return []metricDef{
		{name: "method.partition.calls", unit: "count", plane: true},
		{name: "method.partition.busy_s", unit: "s", plane: true},
		{name: "method.partition.us_p50", unit: "us", plane: true},
		{name: "method.partition.us_p99", unit: "us", plane: true},
		{name: "method.partition.in_colls_mean", unit: "count", plane: true},
		{name: "method.merge.calls", unit: "count", plane: true},
		{name: "method.merge.busy_s", unit: "s", plane: true},
		{name: "method.merge.us_p50", unit: "us", plane: true},
		{name: "method.distance.calls", unit: "count", plane: true},
		{name: "method.distance.busy_s", unit: "s", plane: true},
		{name: "engine.converge_s", unit: "s"},
		{name: "engine.msgs_per_node", unit: "msg/node"},
		{name: "engine.rounds", unit: "count"},
		{name: "engine.step_s", unit: "s", plane: true},
		{name: "engine.step_ms_p50", unit: "ms", plane: true},
		{name: "engine.step_ms_p99", unit: "ms", plane: true},
		{name: "engine.step_self_s", unit: "s", plane: true},
		{name: "engine.probe_s", unit: "s", plane: true},
		{name: "engine.probe_us_p50", unit: "us", plane: true},
		{name: "engine.kill_ms_p50", unit: "ms"},
		{name: "engine.kill_ms_max", unit: "ms"},
		{name: "engine.restart_ms_p50", unit: "ms"},
		{name: "shard.deliver_us_mean", unit: "us", plane: true},
		{name: "shard.deliver_us_p99", unit: "us", plane: true},
		{name: "wire.encode_ns_per_msg", unit: "ns/msg", plane: true},
		{name: "wire.decode_ns_per_msg", unit: "ns/msg", plane: true},
		{name: "wire.encode_allocs_per_msg", unit: "allocs/msg", plane: true},
		{name: "wire.decode_allocs_per_msg", unit: "allocs/msg", plane: true},
		{name: "wire.payload_bytes", unit: "B", plane: true},
		{name: "wire.busy_s", unit: "s", plane: true},
		{name: "livenet.bytes_per_msg", unit: "B/msg"},
		{name: "livenet.frames_per_msg", unit: "frames/msg"},
		{name: "livenet.drop_frac", unit: "frac"},
		{name: "livenet.send_us_p50", unit: "us"},
		{name: "livenet.send_us_p99", unit: "us"},
		{name: "livenet.absorb_us_p50", unit: "us"},
		{name: "livenet.absorb_us_p99", unit: "us"},
		{name: "livenet.deliver_us_mean", unit: "us", plane: true},
		{name: "livenet.deliver_us_p99", unit: "us", plane: true},
		{name: "setup.dataset_s", unit: "s"},
		{name: "setup.topology_s", unit: "s"},
		{name: "setup.engine_new_s", unit: "s"},
		{name: "runtime.gc_cycles", unit: "count"},
		{name: "runtime.gc_pause_s", unit: "s"},
		{name: "runtime.gc_cpu_frac", unit: "frac"},
		{name: "runtime.heap_peak_mb", unit: "MiB", plane: true},
		{name: "runtime.goroutines_peak", unit: "count", plane: true},
		{name: "trace.overhead_frac", unit: "frac", plane: true},
		{name: "trace.stage_sum_err", unit: "frac", plane: true},
	}
}

// minSetups is the fewest set-up samples a run reports setup_s over;
// runs with fewer reps than this build extra engines just to time them.
const minSetups = 5

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
}

// runResult is one run's outcome: attempts, failures, and the samples
// of every metric it printed.
type runResult struct {
	attempted, failed int
	failures          []string
	reps              int
	samples           map[string][]float64
	spans             []span
	// hostScale is the calibrator's factor: reference-host time over
	// this host's, below 1 when this host ran slow.
	hostScale float64
}

// run measures workload w: reps from seeds drawn from o.seed until
// o.seconds have passed. A traced run measures pairs of reps on the
// same seed, one untraced and one traced, and checks that the trace
// plane left the deterministic backends' protocol untouched.
func run(w workload, o options) runResult {
	out := runResult{samples: make(map[string][]float64)}
	base := make(map[string][]float64)
	plane := make(map[string][]float64)
	seeds := rng.New(o.seed)
	var tr *tracer
	var peaks *peakSampler
	if o.traced {
		tr = &tracer{t0: time.Now()}
		peaks = startPeakSampler()
		defer peaks.close()
	}
	fail := func(seed uint64, traced bool, err error) {
		out.failed++
		out.failures = append(out.failures, fmt.Sprintf("seed %d traced %v: %v", seed, traced, err))
	}
	measure := func(seed uint64) {
		out.attempted++
		res, err := runRep(w, seed, nil, peaks)
		if err != nil {
			fail(seed, false, err)
		} else {
			merge(base, res.samples)
		}
		if !o.traced {
			return
		}
		runtime.GC()
		out.attempted++
		tres, terr := runRep(w, seed, tr, peaks)
		if terr != nil {
			fail(seed, true, terr)
			return
		}
		merge(plane, tres.samples)
		if err != nil {
			return
		}
		if w.backend.Caps().Deterministic {
			if tres.rounds != res.rounds || tres.msgs != res.msgs ||
				math.Float64bits(tres.coverErr) != math.Float64bits(res.coverErr) {
				fail(seed, true, fmt.Errorf("tracing perturbed the protocol: rounds %d/%d, msgs %d/%d, cover error %v/%v",
					res.rounds, tres.rounds, res.msgs, tres.msgs, res.coverErr, tres.coverErr))
			}
		}
		u, t := summarize(res.samples["cpu_us_per_msg"]), summarize(tres.samples["cpu_us_per_msg"])
		plane["trace.overhead_frac"] = append(plane["trace.overhead_frac"], t.Median/u.Median-1)
	}
	cal := newCalibrator()
	budget := time.Duration(o.seconds * float64(time.Second))
	if err := warmUp(w, seeds.Uint64(), min(maxWarmUp, budget/10)); err != nil {
		out.attempted++
		fail(0, false, fmt.Errorf("warm-up: %w", err))
	}
	// A rep starts only while one more rep as long as the last one
	// still ends within the budget. The reference loop runs between
	// reps, while no engine is running.
	start, last := time.Now(), time.Duration(0)
	for out.reps == 0 || time.Since(start)+last <= budget {
		repStart := time.Now()
		out.reps++
		runtime.GC()
		cal.sample(calSamples)
		measure(seeds.Uint64())
		last = time.Since(repStart)
	}
	cal.sample(calSamples)
	out.hostScale = cal.scale()
	for i := 0; len(base["setup_s"]) < minSetups && i < 2*minSetups; i++ {
		runtime.GC()
		s, err := setUp(w, seeds.Uint64(), false)
		if err != nil {
			out.attempted++
			fail(0, false, err)
			continue
		}
		s.eng.Stop()
		res := repResult{samples: make(map[string][]float64)}
		s.record(nil, -1, &res)
		merge(base, res.samples)
	}
	if o.traced {
		for _, m := range perLayer() {
			if m.plane {
				out.samples[m.name] = plane[m.name]
			} else {
				out.samples[m.name] = base[m.name]
			}
		}
		out.spans = tr.spans
	} else {
		base["max_rss_mb"] = []float64{maxRSSMB()}
		for _, m := range endToEnd() {
			f := math.Pow(out.hostScale, float64(m.hostExp))
			for _, v := range base[m.name] {
				out.samples[m.name] = append(out.samples[m.name], v*f)
			}
		}
	}
	return out
}

func merge(dst, src map[string][]float64) {
	for name, xs := range src {
		//lint:allow mapiter each name's samples go to that name's own slice, so iteration order cannot reach them
		dst[name] = append(dst[name], xs...)
	}
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env describes where and how a run was measured.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       uint64  `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
	// HostScale is the factor the end-to-end timings were multiplied by
	// (rates divided by) to express them on the reference host; the raw
	// measurement is the reported value divided by it (rates: times).
	HostScale float64 `json:"host_scale"`
}

// reportMetric is one metric's distribution in the report file.
type reportMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	summary
}

// report is the JSON file every run writes beside its printed result.
type report struct {
	Workload  string         `json:"workload"`
	Trace     int            `json:"trace"`
	Env       env            `json:"env"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
	Notes     []string       `json:"notes,omitempty"`
	Metrics   []reportMetric `json:"metrics"`
	Spans     []span         `json:"spans,omitempty"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("distclass-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	secs := fs.Float64("seconds", 30, "measure reps until this many seconds have passed")
	traceFlag := fs.Int("trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end metrics")
	outPath := fs.String("out", "", "report file (default .bench_build/reports/<workload>-seed<seed>-trace<trace>.json)")
	summarizeFlag := fs.Bool("summarize", false, "print the medians and quartiles, across runs, of the report files named as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summarizeFlag {
		if err := summarizeReports(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "distclass-bench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "distclass-bench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "distclass-bench: -trace must be 0 or 1")
		return 2
	}
	if !(*secs > 0) {
		fmt.Fprintln(stderr, "distclass-bench: -seconds must be positive")
		return 2
	}
	if *outPath == "" {
		*outPath = filepath.Join(".bench_build", "reports", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traceFlag))
	}
	o := options{seed: *seed, seconds: *secs, traced: *traceFlag == 1}
	res := run(w, o)
	rep := buildReport(w, o, res)
	if err := writeReport(*outPath, rep); err != nil {
		fmt.Fprintln(stderr, "distclass-bench:", err)
		return 1
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(stderr, "FAIL", w.name, f)
	}
	fmt.Fprintln(stderr, "report:", *outPath)
	if err := printResult(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "distclass-bench:", err)
		return 1
	}
	return 0
}

// printResult prints a header line, one line per metric (median,
// quartiles, sample count), and then the result line.
func printResult(w io.Writer, rep report) error {
	fmt.Fprintf(w, "%s seed=%d trace=%d reps=%d attempted=%d failed=%d\n",
		rep.Workload, rep.Env.Seed, rep.Trace, rep.Env.Reps, rep.Attempted, rep.Failed)
	last := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricValue)}
	for _, m := range rep.Metrics {
		fmt.Fprintf(w, "  %-32s %14.6g %-10s p25 %-12.6g p75 %-12.6g n %d\n", m.Name, m.Median, m.Unit, m.P25, m.P75, m.N)
		last.Metrics[m.Name] = metricValue{Value: m.Median, Unit: m.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// buildReport summarizes a run's samples. A run is correct when no rep
// failed a check and every end-to-end metric has a finite, nonzero
// value.
func buildReport(w workload, o options, res runResult) report {
	trace, defs := 0, endToEnd()
	if o.traced {
		trace, defs = 1, perLayer()
	}
	rep := report{
		Workload: w.name,
		Trace:    trace,
		Env: env{
			Commit:     commit(),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NProc:      runtime.NumCPU(),
			Seed:       o.seed,
			Reps:       res.reps,
			Seconds:    o.seconds,
			HostScale:  res.hostScale,
		},
		Attempted: res.attempted,
		Failed:    res.failed,
		Failures:  res.failures,
		Spans:     res.spans,
	}
	if o.traced && !w.backend.Caps().Rounds {
		rep.Notes = append(rep.Notes, "method.*.busy_s is calls x p50 on this concurrent backend: a call's wall time includes descheduled time")
	}
	for _, m := range defs {
		s := summarize(res.samples[m.name])
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("metric %s is not finite", m.name))
			s = summary{}
		}
		if !o.traced && !(s.Median > 0) {
			rep.Failures = append(rep.Failures, fmt.Sprintf("metric %s has no positive value", m.name))
		}
		rep.Metrics = append(rep.Metrics, reportMetric{Name: m.name, Unit: m.unit, summary: s})
	}
	rep.Correct = res.failed == 0 && len(rep.Failures) == 0
	return rep
}

func writeReport(path string, rep report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// baselineGroup is the summary of several runs of one workload in one
// trace mode: for each metric, the median and quartiles of the runs'
// medians.
type baselineGroup struct {
	Workload string         `json:"workload"`
	Trace    int            `json:"trace"`
	Runs     int            `json:"runs"`
	Env      env            `json:"env"`
	Failed   int            `json:"failed"`
	Metrics  []reportMetric `json:"metrics"`
}

// summarizeReports prints, for each workload and trace mode among the
// report files, the distribution of every metric's per-run median.
func summarizeReports(paths []string, w io.Writer) error {
	if len(paths) == 0 {
		return errors.New("-summarize needs report files")
	}
	var groups []*baselineGroup
	medians := make(map[*baselineGroup]map[string][]float64)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("summarize: %w", err)
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("summarize %s: %w", p, err)
		}
		var g *baselineGroup
		for _, c := range groups {
			if c.Workload == rep.Workload && c.Trace == rep.Trace {
				g = c
			}
		}
		if g == nil {
			g = &baselineGroup{Workload: rep.Workload, Trace: rep.Trace, Env: rep.Env}
			for _, m := range rep.Metrics {
				g.Metrics = append(g.Metrics, reportMetric{Name: m.Name, Unit: m.Unit})
			}
			groups = append(groups, g)
			medians[g] = make(map[string][]float64)
		}
		g.Runs++
		g.Failed += rep.Failed
		for _, m := range rep.Metrics {
			medians[g][m.Name] = append(medians[g][m.Name], m.Median)
		}
	}
	for _, g := range groups {
		for i := range g.Metrics {
			g.Metrics[i].summary = summarize(medians[g][g.Metrics[i].Name])
		}
	}
	data, err := json.MarshalIndent(groups, "", "  ")
	if err != nil {
		return fmt.Errorf("summarize: %w", err)
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
