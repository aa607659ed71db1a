package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	runtimemetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"

	"distclass/internal/centroids"
	"distclass/internal/converge"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/gm"
	"distclass/internal/metrics"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/vec"
	"distclass/internal/wire"
)

// workload is one benchmark configuration. Every rep builds a fresh
// engine from its own seed, runs it until the spread detector fires,
// churns it or holds it at steady state where the workload says so,
// stops it and checks the outcome.
type workload struct {
	name string

	backend engine.Backend
	gm      bool // Gaussian-mixture method; centroids otherwise
	fig2    bool // Figure 2 dataset; two clusters otherwise
	n, k    int
	topo    topology.Kind
	tol     float64

	// Concurrent backends only: gossip tick, convergence budget, and
	// the pinned wire options of the pipe workload.
	interval   time.Duration
	budget     time.Duration
	codec      wire.Codec
	frameBatch int

	// Churn after convergence: kills, then restarts of the first killed
	// nodes, then convergence again.
	kills, restarts int

	// Steady state after convergence: a settle pause, then windows in
	// which throughput, CPU and allocations are measured. Without
	// windows they are measured over convergence and churn.
	settle  time.Duration
	windows int
	window  time.Duration
}

const (
	// maxRounds bounds convergence on the round backend.
	maxRounds = 500
	// maxMeanError bounds the distance between a converged node's
	// classification mean and the data mean. The clusters lie several
	// units apart, so a summary that drops or double-counts a cluster
	// lands far outside; lost weight is the weight audit's job.
	maxMeanError = 0.25
)

// workloads returns the benchmark's workloads in report order. Each
// stresses a different layer; README.md gives the reasons in full.
func workloads() []workload {
	return []workload{
		// The paper's Figure 2 run: EM partition does most of the work.
		{
			name:    "fig2-round",
			backend: engine.BackendRound, gm: true, fig2: true,
			n: 1000, k: 7, topo: topology.KindFull, tol: 1e-3,
		},
		// No EM, and state far beyond the cache: core split/absorb and
		// the round driver show here, EM changes do not.
		{
			name:    "centroids-round-100k",
			backend: engine.BackendRound,
			n:       100_000, k: 2, topo: topology.KindRegular, tol: 1e-3,
		},
		// The only workload on the concurrent scheduler, with its
		// stop-the-world churn.
		{
			name:    "gm-shard-10k",
			backend: engine.BackendShard, gm: true,
			n: 10_000, k: 2, topo: topology.KindRegular, tol: 0.05,
			interval: time.Millisecond, budget: 60 * time.Second,
			kills: 30, restarts: 15,
		},
		// The only workload on the wire stack, saturated on purpose:
		// every node ticks each millisecond, more than the pipes carry.
		// Centroids keep the method cheap so the transport dominates;
		// its convergence time spreads over an order of magnitude, so
		// its rates come from steady-state windows.
		{
			name:    "centroids-pipe-256",
			backend: engine.BackendPipe,
			n:       256, k: 2, topo: topology.KindRegular, tol: 1e-3,
			interval: time.Millisecond, budget: 30 * time.Second,
			codec: wire.CodecV2, frameBatch: 8,
			settle: 500 * time.Millisecond, windows: 4, window: 500 * time.Millisecond,
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w workload) method() core.Method {
	if w.gm {
		return gm.Method{}
	}
	return centroids.Method{}
}

// dataset draws the workload's input values: the Figure 2 mixture, or
// two unit-variance clusters around (-4, 0) and (4, 0) with node i in
// cluster i%2.
func (w workload) dataset(r *rng.RNG) ([]core.Value, error) {
	if w.fig2 {
		vs, err := experiments.Figure2Dataset(w.n, r)
		if err != nil {
			return nil, err
		}
		values := make([]core.Value, len(vs))
		for i, v := range vs {
			values[i] = core.Value(v)
		}
		return values, nil
	}
	values := make([]core.Value, w.n)
	for i := range values {
		values[i] = core.Value{8*float64(i%2) - 4 + r.Normal(0, 1), r.Normal(0, 1)}
	}
	return values, nil
}

// meanError is the distance between the weighted mean of a
// classification's collections and the mean of the input values. Every
// merge preserves the weighted mean, so once the nodes agree each one
// reports the data's mean; a wrong summary or a dropped cluster moves
// it.
func meanError(cls core.Classification, values []core.Value) (float64, error) {
	want := vec.New(len(values[0]))
	for _, v := range values {
		vec.AddInPlace(want, v)
	}
	got := vec.New(len(want))
	var weight float64
	for _, c := range cls {
		var mean vec.Vector
		switch s := c.Summary.(type) {
		case gm.Summary:
			mean = s.G.Mean
		case centroids.Centroid:
			mean = s.Point
		default:
			return 0, fmt.Errorf("mean error: unexpected summary %T", c.Summary)
		}
		vec.AddInPlace(got, vec.Scale(c.Weight, mean))
		weight += c.Weight
	}
	if !(weight > 0) {
		return 0, errors.New("mean error: classification holds no weight")
	}
	return vec.Dist(vec.Scale(1/weight, got), vec.Scale(1/float64(len(values)), want))
}

// fig2CoverError is the Figure 2 experiment's quality measure: the
// weight-averaged distance from each true component mean to the
// nearest estimated one.
func fig2CoverError(cls core.Classification) (float64, error) {
	mix, err := gm.ToMixture(cls)
	if err != nil {
		return 0, err
	}
	return experiments.MeanCoverError(experiments.Figure2TrueMixture(), mix)
}

// usage is a point-in-time reading of the process's CPU time, heap
// allocation count, GC counters and GC CPU share.
type usage struct {
	cpu      time.Duration
	mallocs  uint64
	numGC    uint32
	pauseNs  uint64
	gcCPU    float64
	totalCPU float64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := []runtimemetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	runtimemetrics.Read(cpu)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		numGC:    ms.NumGC,
		pauseNs:  ms.PauseTotalNs,
		gcCPU:    cpu[0].Value.Float64(),
		totalCPU: cpu[1].Value.Float64(),
	}
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// repResult is what one rep measured: metric samples by name, and the
// protocol outcome the determinism cross-check compares.
type repResult struct {
	samples  map[string][]float64
	rounds   int
	msgs     int
	coverErr float64
}

func (r *repResult) add(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// engineSetup is a freshly built engine with its inputs, its
// instruments, and the boundaries of the set-up stages.
type engineSetup struct {
	eng      engine.Engine
	values   []core.Value
	reg      *metrics.Registry
	tm       *timedMethod // traced runs only
	sink     *deliverSink // traced runs on concurrent backends only
	churnRNG *rng.RNG

	start, dataset, topology, configured, end time.Time
}

// setUp builds the rep's dataset, topology and engine from seed. The
// graph is built here and passed through Config.Graph so that its cost
// is a stage of its own.
func setUp(w workload, seed uint64, traced bool) (*engineSetup, error) {
	s := &engineSetup{start: time.Now()}
	root := rng.New(seed)
	var err error
	s.values, err = w.dataset(root.Split())
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	s.dataset = time.Now()
	graph, err := topology.Build(w.topo, w.n, root.Split())
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	s.topology = time.Now()
	s.churnRNG = root.Split()
	method := w.method()
	if traced {
		s.tm = &timedMethod{Method: method}
		method = s.tm
	}
	s.reg = metrics.NewRegistry()
	cfg := engine.Config{
		Backend:    w.backend,
		Method:     method,
		Values:     s.values,
		Graph:      graph,
		K:          w.k,
		Seed:       seed,
		Tolerance:  w.tol,
		Interval:   w.interval,
		Codec:      w.codec,
		FrameBatch: w.frameBatch,
		Metrics:    s.reg,
	}
	if traced && !w.backend.Caps().Rounds {
		s.sink = newDeliverSink()
		cfg.Trace = s.sink
		cfg.Causal = true
	}
	s.configured = time.Now()
	s.eng, err = engine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	s.end = time.Now()
	return s, nil
}

// record adds the set-up samples and spans.
func (s *engineSetup) record(tr *tracer, parent int, res *repResult) {
	span := tr.add("setup", parent, s.start, s.end)
	tr.add("setup.dataset", span, s.start, s.dataset)
	tr.add("setup.topology", span, s.dataset, s.topology)
	tr.add("setup.engine_new", span, s.configured, s.end)
	res.add("setup_s", s.end.Sub(s.start).Seconds())
	res.add("setup.dataset_s", s.dataset.Sub(s.start).Seconds())
	res.add("setup.topology_s", s.topology.Sub(s.dataset).Seconds())
	res.add("setup.engine_new_s", s.end.Sub(s.configured).Seconds())
}

// stageSumErr is the share of set-up time the three stages leave
// unattributed.
func (s *engineSetup) stageSumErr() float64 {
	total := s.end.Sub(s.start)
	stages := s.dataset.Sub(s.start) + s.topology.Sub(s.dataset) + s.end.Sub(s.configured)
	return math.Abs((total - stages).Seconds()) / total.Seconds()
}

// runRep executes one rep from seed. Given a tracer it times the
// method, the engine's steps and probes, message delivery (concurrent
// backends), and the wire codec, and records spans into tr; the
// protocol itself runs exactly as untraced.
func runRep(w workload, seed uint64, tr *tracer, peaks *peakSampler) (res repResult, err error) {
	res.samples = make(map[string][]float64)
	traced := tr != nil
	repSpan := tr.begin("rep", -1)
	defer tr.end(repSpan)
	if peaks != nil {
		peaks.reset()
	}
	startUse := readUsage()
	s, err := setUp(w, seed, traced)
	if err != nil {
		return res, err
	}
	eng, reg, tm := s.eng, s.reg, s.tm
	defer eng.Stop()
	s.record(tr, repSpan, &res)
	concurrent := !w.backend.Caps().Rounds

	// Convergence.
	convSpan := tr.begin("converge", repSpan)
	before, d0 := readUsage(), delivered(eng, reg)
	start := time.Now()
	converged := false
	if concurrent {
		_, converged, err = eng.RunUntilConverged(w.budget)
		if err != nil {
			return res, fmt.Errorf("converge: %w", err)
		}
	} else {
		converged, err = stepUntilConverged(eng, w, tm, tr, convSpan, &res)
		if err != nil {
			return res, err
		}
	}
	convergeDur := time.Since(start)
	tr.end(convSpan)
	if !converged {
		return res, errors.New("did not converge within budget")
	}
	res.msgs = eng.Stats().MessagesSent
	res.add("engine.converge_s", convergeDur.Seconds())
	res.add("engine.msgs_per_node", float64(res.msgs)/float64(w.n))
	if !concurrent {
		res.add("engine.rounds", float64(res.rounds))
	}
	expected := float64(w.n)
	if w.kills > 0 {
		destroyed, err := churn(eng, w, s.values, s.churnRNG, tr, repSpan, &res)
		if err != nil {
			return res, err
		}
		expected += float64(w.restarts) - destroyed
	}
	// Without steady-state windows the end-to-end rates cover the
	// measured phase: convergence, and the churn that follows it.
	if w.windows == 0 {
		phase, after, d1 := time.Since(start), readUsage(), delivered(eng, reg)
		msgs := float64(d1 - d0)
		res.add("msgs_per_s", msgs/phase.Seconds())
		res.add("cpu_us_per_msg", float64(after.cpu-before.cpu)/1e3/msgs)
		res.add("allocs_per_msg", float64(after.mallocs-before.mallocs)/msgs)
	} else if err := steadyState(eng, w, reg, tr, repSpan, &res); err != nil {
		return res, err
	}

	// Stop drains every queue, so the weight audit below is exact.
	stopSpan := tr.begin("stop", repSpan)
	eng.Stop()
	tr.end(stopSpan)
	if err := eng.Err(); err != nil {
		return res, fmt.Errorf("engine error: %w", err)
	}
	if err := checkWeight(eng, w, expected); err != nil {
		return res, err
	}
	cls, err := firstAlive(eng)
	if err != nil {
		return res, err
	}
	meanErr, err := meanError(cls, s.values)
	if err != nil {
		return res, err
	}
	if !(meanErr <= maxMeanError) {
		return res, fmt.Errorf("classification mean is %.4g from the data mean, above %g", meanErr, maxMeanError)
	}
	if w.fig2 {
		if res.coverErr, err = fig2CoverError(cls); err != nil {
			return res, err
		}
	}

	endUse := readUsage()
	res.add("runtime.gc_cycles", float64(endUse.numGC-startUse.numGC))
	res.add("runtime.gc_pause_s", float64(endUse.pauseNs-startUse.pauseNs)/1e9)
	if d := endUse.totalCPU - startUse.totalCPU; d > 0 {
		res.add("runtime.gc_cpu_frac", (endUse.gcCPU-startUse.gcCPU)/d)
	}
	if peaks != nil {
		res.add("runtime.heap_peak_mb", float64(peaks.heapBytes.Load())/(1<<20))
		res.add("runtime.goroutines_peak", float64(peaks.goroutines.Load()))
	}
	if reg.Counter("livenet.bytes_sent").Value() > 0 {
		livenetLayer(reg.Snapshot(), &res)
	}
	if traced {
		methodLayer(tm, concurrent, &res)
		// The mean, not the median: on the shard backend about half the
		// messages stay inside their shard and are absorbed at once,
		// the rest wait a quantum in a mailbox, and the median falls on
		// whichever side of that gap the sample happens to tip.
		if s.sink != nil {
			prefix := "livenet"
			if w.backend == engine.BackendShard {
				prefix = "shard"
			}
			res.add(prefix+".deliver_us_mean", s.sink.hist.mean()/1e3)
			res.add(prefix+".deliver_us_p99", s.sink.hist.quantile(0.99)/1e3)
		}
		if err := wireLayer(eng, float64(delivered(eng, reg)), &res); err != nil {
			return res, err
		}
		stageErr := s.stageSumErr()
		if !concurrent {
			stages := res.samples["engine.step_s"][0] + res.samples["engine.probe_s"][0]
			stageErr = math.Max(stageErr, math.Abs(stages-convergeDur.Seconds())/convergeDur.Seconds())
		}
		res.add("trace.stage_sum_err", stageErr)
	}
	return res, nil
}

// stepUntilConverged drives a round backend through Step and Spread,
// feeding the same detector RunUntilConverged uses, so the rounds match
// it exactly; driving it from here lets the traced run time each step
// and probe.
func stepUntilConverged(eng engine.Engine, w workload, tm *timedMethod, tr *tracer, parent int, res *repResult) (bool, error) {
	det := converge.New(w.tol, 3)
	var steps, probes logHist
	var stepSelf time.Duration
	for res.rounds < maxRounds {
		a, busyA := time.Now(), tm.busy()
		if err := eng.Step(); err != nil {
			return false, fmt.Errorf("step: %w", err)
		}
		b, busyB := time.Now(), tm.busy()
		spread, err := eng.Spread()
		if err != nil {
			return false, fmt.Errorf("spread: %w", err)
		}
		c := time.Now()
		steps.observe(b.Sub(a))
		probes.observe(c.Sub(b))
		stepSelf += b.Sub(a) - (busyB - busyA)
		tr.add("step", parent, a, b)
		tr.add("probe", parent, b, c)
		res.rounds++
		if det.Observe(res.rounds-1, spread) {
			break
		}
	}
	if tm != nil {
		res.add("engine.step_s", steps.sum().Seconds())
		res.add("engine.step_ms_p50", steps.quantile(0.5)/1e6)
		res.add("engine.step_ms_p99", steps.quantile(0.99)/1e6)
		res.add("engine.step_self_s", stepSelf.Seconds())
		res.add("engine.probe_s", probes.sum().Seconds())
		res.add("engine.probe_us_p50", probes.quantile(0.5)/1e3)
	}
	return det.Converged(), nil
}

// churn kills w.kills distinct random nodes, restarts the first
// w.restarts of them with their original values, and waits for the
// cluster to converge again. It returns the weight the kills destroyed.
func churn(eng engine.Engine, w workload, values []core.Value, r *rng.RNG, tr *tracer, parent int, res *repResult) (float64, error) {
	victims := r.Perm(w.n)[:w.kills]
	var destroyed float64
	var kills, restarts []float64
	for _, i := range victims {
		start := time.Now()
		d, err := eng.Kill(i)
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("kill %d: %w", i, err)
		}
		tr.add("kill", parent, start, end)
		kills = append(kills, float64(end.Sub(start))/1e6)
		destroyed += d
	}
	for _, i := range victims[:w.restarts] {
		start := time.Now()
		err := eng.Restart(i, values[i])
		end := time.Now()
		if err != nil {
			return 0, fmt.Errorf("restart %d: %w", i, err)
		}
		tr.add("restart", parent, start, end)
		restarts = append(restarts, float64(end.Sub(start))/1e6)
	}
	res.add("engine.kill_ms_p50", summarize(kills).Median)
	res.add("engine.kill_ms_max", slices.Max(kills))
	res.add("engine.restart_ms_p50", summarize(restarts).Median)
	span := tr.begin("reconverge", parent)
	_, ok, err := eng.RunUntilConverged(w.budget)
	tr.end(span)
	if err != nil {
		return 0, fmt.Errorf("reconverge: %w", err)
	}
	if !ok {
		return 0, errors.New("did not reconverge after churn within budget")
	}
	return destroyed, nil
}

// maxWarmUp caps the untimed gossip before a run's first rep.
const maxWarmUp = 2 * time.Second

// warmUp builds an engine and lets it gossip, untimed, for d. A fresh
// process pays for heap growth, page faults and a GC pacer that has
// not yet seen the working set; measured on identical inputs, its
// first reps cost up to a third more CPU per message than later ones.
func warmUp(w workload, seed uint64, d time.Duration) error {
	s, err := setUp(w, seed, false)
	if err != nil {
		return err
	}
	defer s.eng.Stop()
	if !w.backend.Caps().Rounds {
		time.Sleep(d)
		return s.eng.Err()
	}
	for start := time.Now(); time.Since(start) < d; {
		if err := s.eng.Step(); err != nil {
			return err
		}
	}
	return nil
}

// delivered counts the messages the engine has delivered so far.
func delivered(eng engine.Engine, reg *metrics.Registry) int64 {
	if eng.Backend().Caps().Rounds {
		st := eng.Stats()
		return int64(st.MessagesSent - st.MessagesDropped)
	}
	return reg.Counter("livenet.received").Value()
}

// steadyState holds a converged concurrent cluster at load while the
// bench sleeps, and measures in each window the delivered messages per
// second, the CPU time and heap allocations per delivered message, and
// the share of send opportunities dropped at full queues.
func steadyState(eng engine.Engine, w workload, reg *metrics.Registry, tr *tracer, parent int, res *repResult) error {
	settle := tr.begin("settle", parent)
	time.Sleep(w.settle)
	tr.end(settle)
	for k := 0; k < w.windows; k++ {
		span := tr.begin("window", parent)
		st0, d0, u0, t0 := eng.Stats(), delivered(eng, reg), readUsage(), time.Now()
		time.Sleep(w.window)
		st1, d1, u1, t1 := eng.Stats(), delivered(eng, reg), readUsage(), time.Now()
		tr.end(span)
		if err := eng.Err(); err != nil {
			return fmt.Errorf("steady state: %w", err)
		}
		msgs := float64(d1 - d0)
		if msgs <= 0 {
			return errors.New("steady state: no messages delivered")
		}
		res.add("msgs_per_s", msgs/t1.Sub(t0).Seconds())
		res.add("cpu_us_per_msg", float64(u1.cpu-u0.cpu)/1e3/msgs)
		res.add("allocs_per_msg", float64(u1.mallocs-u0.mallocs)/msgs)
		sent, drops := st1.MessagesSent-st0.MessagesSent, st1.MessagesDropped-st0.MessagesDropped
		res.add("livenet.drop_frac", float64(drops)/float64(sent+drops))
	}
	return nil
}

// checkWeight audits conservation after Stop: the alive nodes must
// hold exactly the initial weight, less what kills destroyed, plus one
// unit per restart. The v2 codec quantizes weights on the wire and
// keeps only each message's total exact, so on wire backends the sum
// over nodes may round in its last bits.
func checkWeight(eng engine.Engine, w workload, expected float64) error {
	got := eng.TotalWeight()
	if w.backend.Caps().Wire {
		if math.Abs(got-expected) > 1e-9*expected {
			return fmt.Errorf("weight %.17g after stop, want %.17g within 1e-9", got, expected)
		}
		return nil
	}
	if math.Float64bits(got) != math.Float64bits(expected) {
		return fmt.Errorf("weight %.17g after stop, want exactly %.17g", got, expected)
	}
	return nil
}

func firstAlive(eng engine.Engine) (core.Classification, error) {
	for i := 0; i < eng.N(); i++ {
		if eng.Alive(i) {
			return eng.Classification(i), nil
		}
	}
	return nil, errors.New("no node alive")
}

// methodLayer reports the method wrapper's counts and times. On
// concurrent backends a call's wall time includes any time its
// goroutine was descheduled, so busy time there is calls × p50 rather
// than the summed durations.
func methodLayer(tm *timedMethod, concurrent bool, res *repResult) {
	busy := func(h *logHist) float64 {
		if concurrent {
			return float64(h.count.Load()) * h.quantile(0.5) / 1e9
		}
		return h.sum().Seconds()
	}
	calls := float64(tm.partition.count.Load())
	res.add("method.partition.calls", calls)
	res.add("method.partition.busy_s", busy(&tm.partition))
	res.add("method.partition.us_p50", tm.partition.quantile(0.5)/1e3)
	res.add("method.partition.us_p99", tm.partition.quantile(0.99)/1e3)
	if calls > 0 {
		res.add("method.partition.in_colls_mean", float64(tm.inColls.Load())/calls)
	}
	res.add("method.merge.calls", float64(tm.merge.count.Load()))
	res.add("method.merge.busy_s", busy(&tm.merge))
	res.add("method.merge.us_p50", tm.merge.quantile(0.5)/1e3)
	res.add("method.distance.calls", float64(tm.distance.count.Load()))
	res.add("method.distance.busy_s", busy(&tm.distance))
}

// livenetLayer reads the wire transport's counters and latency
// histograms from the registry snapshot.
func livenetLayer(s metrics.Snapshot, res *repResult) {
	sent := float64(s.Counters["livenet.sent"])
	res.add("livenet.bytes_per_msg", float64(s.Counters["livenet.bytes_sent"])/sent)
	res.add("livenet.frames_per_msg", float64(s.Counters["livenet.frames_sent"])/sent)
	res.add("livenet.send_us_p50", snapshotQuantile(s.Histograms["livenet.send_seconds"], 0.5)*1e6)
	res.add("livenet.send_us_p99", snapshotQuantile(s.Histograms["livenet.send_seconds"], 0.99)*1e6)
	res.add("livenet.absorb_us_p50", snapshotQuantile(s.Histograms["livenet.absorb_seconds"], 0.5)*1e6)
	res.add("livenet.absorb_us_p99", snapshotQuantile(s.Histograms["livenet.absorb_seconds"], 0.99)*1e6)
}

// wireSample is the number of node classifications the codec loop
// encodes and decodes, and wireOps the number of encodes it times.
const (
	wireSample = 64
	wireOps    = 20_000
)

// wireLayer times the pinned v2 codec on classifications taken from
// the stopped engine — what each message of this workload would cost
// to encode and decode — and charges it to the rep's messages.
func wireLayer(eng engine.Engine, msgs float64, res *repResult) error {
	var cls []core.Classification
	for i := 0; i < eng.N() && len(cls) < wireSample; i += max(1, eng.N()/wireSample) {
		if eng.Alive(i) {
			cls = append(cls, eng.Classification(i))
		}
	}
	if len(cls) == 0 {
		return errors.New("wire: no classification to encode")
	}
	encoded := make([][]byte, len(cls))
	var bytes int
	for i, c := range cls {
		b, err := wire.MarshalClassificationCodec(c, wire.CodecV2)
		if err != nil {
			return fmt.Errorf("wire: %w", err)
		}
		encoded[i] = b
		bytes += len(b)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, t0 := ms.Mallocs, time.Now()
	for op := 0; op < wireOps; op++ {
		if _, err := wire.MarshalClassificationCodec(cls[op%len(cls)], wire.CodecV2); err != nil {
			return fmt.Errorf("wire: %w", err)
		}
	}
	t1 := time.Now()
	runtime.ReadMemStats(&ms)
	m1 := ms.Mallocs
	for op := 0; op < wireOps; op++ {
		if _, err := wire.UnmarshalClassification(encoded[op%len(encoded)]); err != nil {
			return fmt.Errorf("wire: %w", err)
		}
	}
	t2 := time.Now()
	runtime.ReadMemStats(&ms)
	m2 := ms.Mallocs
	enc := float64(t1.Sub(t0)) / wireOps
	dec := float64(t2.Sub(t1)) / wireOps
	res.add("wire.encode_ns_per_msg", enc)
	res.add("wire.decode_ns_per_msg", dec)
	res.add("wire.encode_allocs_per_msg", float64(m1-m0)/wireOps)
	res.add("wire.decode_allocs_per_msg", float64(m2-m1)/wireOps)
	res.add("wire.payload_bytes", float64(bytes)/float64(len(cls)))
	res.add("wire.busy_s", msgs*(enc+dec)/1e9)
	return nil
}
