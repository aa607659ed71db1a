package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"distclass"
	"distclass/internal/causal"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/experiments"
	"distclass/internal/metrics"
	"distclass/internal/monitor"
	"distclass/internal/replay"
	"distclass/internal/rng"
	"distclass/internal/trace"
)

// The smoke gates. Each row of smokes() is one `make check` target
// (`experiments -smoke <name>`) and one subtest of TestSmoke. Every row
// runs the same two-cluster workload through smokeRun.run, which fails
// on non-convergence or a cluster error and ends with the weight audit.

const (
	smokeN      = 16               // nodes in the per-backend workload
	smokeK      = 2                // collections per classification
	smokeTol    = 0.05             // spread below which a run has converged
	smokeBudget = 10 * time.Second // default live convergence budget
)

// smoke is one gate of the smoke table.
type smoke struct {
	name     string
	title    string // the banner, between "=== " and " ==="
	backends []engine.Backend
	columns  []string
	// run runs the gate on one backend and returns its table rows.
	// With prefix set, a traced gate writes <prefix>.<backend>.trace.
	run func(b engine.Backend, seed uint64, o obs, prefix string) ([][]string, error)
}

// smokes is the smoke table, in the order -smoke all and -all run it.
func smokes() []smoke {
	all := engine.Backends()
	wire := []engine.Backend{engine.BackendPipe, engine.BackendTCP}
	return []smoke{
		{"engine", "Engine smoke: tiny two-cluster workload on every backend", all,
			[]string{"backend", "converged", "rounds", "weight"}, engineSmoke},
		{"shard", "Shard smoke: 512-node workload on the sharded scheduler, with churn", []engine.Backend{engine.BackendShard},
			[]string{"nodes", "converged", "killed", "restarted", "destroyed", "weight"}, shardSmoke},
		{"monitor", "Monitor smoke: online watcher + HTTP plane on every backend", all,
			[]string{"backend", "health", "samples", "weight", "exact"}, monitorSmoke},
		{"causal", "Causal smoke: happens-before + provenance audit on every backend", all,
			[]string{"backend", "matched", "clock", "depth", "weight"}, causalSmoke},
		{"wire", "Wire smoke: v2 codec + frame batching on the wire backends", wire,
			[]string{"backend", "config", "bytes/msg", "messages", "frames", "drop"}, wireSmoke},
	}
}

func smokeNames() []string {
	var names []string
	for _, s := range smokes() {
		names = append(names, s.name)
	}
	return names
}

// parseSmokes resolves the -smoke and -smoke-out flags: list is "all"
// or comma-separated table names, and out needs a list.
func parseSmokes(list, out string) ([]smoke, error) {
	if list == "" {
		if out != "" {
			return nil, errors.New("-smoke-out needs -smoke")
		}
		return nil, nil
	}
	all := smokes()
	if list == "all" {
		return all, nil
	}
	var picked []smoke
	for _, name := range strings.Split(list, ",") {
		i := slices.IndexFunc(all, func(s smoke) bool { return s.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown smoke %q (valid: %s, or all)", name, strings.Join(smokeNames(), ", "))
		}
		picked = append(picked, all[i])
	}
	return picked, nil
}

// runSmoke runs one gate on each of its backends and prints its table.
// With outDir set, traced gates write <outDir>/<name>.<backend>.trace.
func runSmoke(s smoke, seed uint64, outDir string, o obs) error {
	fmt.Printf("=== %s ===\n", s.title)
	prefix := ""
	if outDir != "" {
		prefix = filepath.Join(outDir, s.name)
	}
	var out [][]string
	for _, b := range s.backends {
		rows, err := s.run(b, seed, o, prefix)
		if err != nil {
			return fmt.Errorf("%s-smoke %s: %w", s.name, b, err)
		}
		out = append(out, rows...)
	}
	fmt.Println(experiments.FormatTable(s.columns, out))
	return nil
}

// twoClusterValues is the smoke dataset: n points in the plane,
// alternating between unit Gaussians centred at (-4, 0) and (4, 0).
func twoClusterValues(n int, seed uint64) []distclass.Value {
	r := rng.New(seed)
	values := make([]distclass.Value, n)
	for i := range values {
		c := -4.0
		if i%2 == 1 {
			c = 4
		}
		values[i] = distclass.Value{c + r.Normal(0, 1), r.Normal(0, 1)}
	}
	return values
}

// smokeRun is one run of the smoke workload: GM with k = 2 over
// twoClusterValues on one backend.
type smokeRun struct {
	backend engine.Backend
	n       int
	seed    uint64
	budget  time.Duration // live convergence budget (0: smokeBudget)
	opts    []distclass.Option
	// after, when set, runs on a converged live cluster before Stop.
	// It may move want, the weight the audit expects.
	after func(cl *distclass.LiveCluster, r *smokeRun) error

	// Set by run.
	values []distclass.Value
	want   float64
	rounds string // "-" on the live backends
	weight float64
}

// run drives the workload to convergence — the sim backends through
// RunUntilConverged, the live ones through WaitConverged, Stop and Err
// — and audits the final weight.
func (r *smokeRun) run() error {
	r.values = twoClusterValues(r.n, r.seed)
	r.want = float64(r.n)
	opts := append([]distclass.Option{
		distclass.WithK(smokeK),
		distclass.WithSeed(r.seed),
		distclass.WithBackend(r.backend),
		distclass.WithTolerance(smokeTol),
	}, r.opts...)
	if r.backend.Caps().Rounds {
		sys, err := distclass.New(r.values, distclass.GaussianMixture(), opts...)
		if err != nil {
			return err
		}
		ran, ok, err := sys.RunUntilConverged()
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("did not converge")
		}
		r.rounds, r.weight = strconv.Itoa(ran), sys.TotalWeight()
		return r.audit()
	}
	// The row's options come last, so a row may override the tick.
	opts = append([]distclass.Option{distclass.WithInterval(time.Millisecond)}, opts...)
	cl, err := distclass.StartLive(r.values, distclass.GaussianMixture(), opts...)
	if err != nil {
		return err
	}
	budget := r.budget
	if budget == 0 {
		budget = smokeBudget
	}
	ok, err := cl.WaitConverged(budget)
	if err == nil && ok && r.after != nil {
		err = r.after(cl, r)
	}
	cl.Stop() // drains in-flight frames, so the audit sees all weight
	if err == nil {
		err = cl.Err()
	}
	if err != nil {
		return err
	}
	if !ok {
		return errors.New("did not converge")
	}
	r.rounds, r.weight = "-", cl.TotalWeight()
	return r.audit()
}

// audit checks the final weight against want. Nodes start at weight 1
// and move weight in multiples of the quantum q = 2^-30, which the
// wire carries exactly, so every sum is exact and the audit is bit
// equality on every backend.
func (r *smokeRun) audit() error {
	if math.Float64bits(r.weight) != math.Float64bits(r.want) {
		return fmt.Errorf("weight not conserved: %v, want exactly %v (drift %v)", r.weight, r.want, r.weight-r.want)
	}
	return nil
}

// smokeOpts attaches the invocation's metrics and, when it records a
// trace, its trace sink with a run header.
func (o obs) smokeOpts() []distclass.Option {
	opts := []distclass.Option{distclass.WithMetrics(o.reg)}
	if o.sink != nil {
		opts = append(opts, distclass.WithTrace(o.sink), distclass.WithRunHeader())
	}
	return opts
}

// engineSmoke: one protocol, five substrates, one readout.
func engineSmoke(b engine.Backend, seed uint64, o obs, _ string) ([][]string, error) {
	r := smokeRun{backend: b, n: smokeN, seed: seed, opts: o.smokeOpts()}
	if err := r.run(); err != nil {
		return nil, err
	}
	return [][]string{{b.String(), "yes", r.rounds, experiments.F(r.weight)}}, nil
}

// shardSmoke runs 512 nodes on the sharded scheduler — a scale the
// per-goroutine backends make painful in CI — and, once converged,
// kills 16 evenly spaced nodes, restarts the first 8 of them and lets
// the cluster re-converge. Each restarted node must then be within
// smokeTol of node 1, which the row never kills, and the audit expects
// n minus what the kills destroyed plus one unit per restarted node.
func shardSmoke(b engine.Backend, seed uint64, o obs, _ string) ([][]string, error) {
	const n, kills, restarts = 512, 16, 8
	var destroyed float64
	r := smokeRun{backend: b, n: n, seed: seed, budget: 30 * time.Second,
		opts: []distclass.Option{distclass.WithMetrics(o.reg)},
		after: func(cl *distclass.LiveCluster, r *smokeRun) error {
			for k := 0; k < kills; k++ {
				w, err := cl.Kill(k * (n / kills))
				if err != nil {
					return err
				}
				destroyed += w
			}
			r.want -= destroyed
			for k := 0; k < restarts; k++ {
				i := k * (n / kills)
				if err := cl.Restart(i, r.values[i]); err != nil {
					return err
				}
				r.want++
			}
			ok, err := cl.WaitConverged(r.budget)
			if err != nil {
				return err
			}
			if !ok {
				return errors.New("did not reconverge after churn")
			}
			for k := 0; k < restarts; k++ {
				i := k * (n / kills)
				d, err := core.Dissimilarity(cl.Classification(i), cl.Classification(1), distclass.GaussianMixture())
				if err != nil {
					return err
				}
				if d >= smokeTol {
					return fmt.Errorf("restarted node %d is %.3g from node 1 after reconvergence, want below %g", i, d, smokeTol)
				}
			}
			return nil
		},
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return [][]string{{strconv.Itoa(n), "yes", strconv.Itoa(kills), strconv.Itoa(restarts),
		experiments.F(destroyed), experiments.F(r.weight)}}, nil
}

// monitorSmoke runs the workload with the online monitor attached,
// serves the monitor on a loopback port and asserts the plane end to
// end: /health answers 200 converged, /status reports an exact
// conservation audit with zero violations, and /events streams the
// run's trace tail.
func monitorSmoke(b engine.Backend, seed uint64, o obs, _ string) ([][]string, error) {
	mon := distclass.NewMonitor()
	r := smokeRun{backend: b, n: smokeN, seed: seed,
		opts: append(o.smokeOpts(), distclass.WithMonitor(mon), distclass.WithMonitorInterval(2*time.Millisecond)),
		// The cluster's own spread probe saw convergence; give the
		// monitor's independent probe time to reach the same verdict
		// (converged AND currently below threshold) before Stop.
		after: func(*distclass.LiveCluster, *smokeRun) error {
			deadline := time.Now().Add(smokeBudget)
			for mon.Status().Health != monitor.HealthConverged && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		},
	}
	if err := r.run(); err != nil {
		return nil, err
	}

	mux := http.NewServeMux()
	mon.Attach(mux)
	srv, err := metrics.ServeMux("127.0.0.1:0", mux)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body, code, err := httpGet(base + "/health")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK || !strings.Contains(body, monitor.HealthConverged) {
		return nil, fmt.Errorf("/health = %d %q, want 200 converged", code, strings.TrimSpace(body))
	}
	body, code, err = httpGet(base + "/status")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/status = %d", code)
	}
	var st monitor.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		return nil, fmt.Errorf("/status decode: %w", err)
	}
	if st.Backend != b.String() {
		return nil, fmt.Errorf("/status backend = %q", st.Backend)
	}
	if st.Nodes != smokeN {
		return nil, fmt.Errorf("/status nodes = %d, want %d", st.Nodes, smokeN)
	}
	if c := st.Conservation; !c.Audited || !c.Exact || c.Violations != 0 {
		return nil, fmt.Errorf("conservation audit failed: audited=%v exact=%v violations=%d drift=%v",
			c.Audited, c.Exact, c.Violations, c.Drift)
	}
	if len(st.SpreadCurve) == 0 {
		return nil, errors.New("empty spread curve")
	}
	body, code, err = httpGet(base + "/events?kind=spread&n=4")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK || strings.TrimSpace(body) == "" {
		return nil, fmt.Errorf("/events = %d, want a non-empty JSONL tail", code)
	}
	return [][]string{{b.String(), st.Health, strconv.Itoa(st.Convergence.Samples),
		experiments.F(st.Conservation.Latest), strconv.FormatBool(st.Conservation.Exact)}}, nil
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

// causalSmoke audits a causally traced run on each backend.
func causalSmoke(b engine.Backend, seed uint64, o obs, prefix string) ([][]string, error) {
	rep, err := causalAudit(smokeRun{backend: b, n: smokeN, seed: seed,
		opts: []distclass.Option{distclass.WithMetrics(o.reg)}}, prefix)
	if err != nil {
		return nil, err
	}
	return [][]string{{b.String(), fmt.Sprintf("%d/%d", rep.Matched, rep.Sends),
		strconv.FormatUint(rep.MaxClock, 10), strconv.Itoa(rep.MaxDepth),
		experiments.F(rep.Ledger.ActualTotal)}}, nil
}

// causalAudit runs r with causal tracing and analyzes the trace for a
// clean replay report and happens-before reconstruction — zero
// anomalies of either kind, every receive matched — and a provenance
// ledger that conserves the initial weight exactly. With prefix set
// the trace is also written to <prefix>.<backend>.trace, so
// distclass-analyze can re-audit the same bytes.
func causalAudit(r smokeRun, prefix string) (*causal.Report, error) {
	var buf bytes.Buffer
	r.opts = append(r.opts, distclass.WithTrace(trace.NewRecorder(&buf)), distclass.WithCausal())
	if err := r.run(); err != nil {
		return nil, err
	}
	b := r.backend
	if prefix != "" {
		path := prefix + "." + b.String() + ".trace"
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("wrote %s\n", path)
	}
	replayed, err := replay.Analyze(bytes.NewReader(buf.Bytes()), replay.Options{Threshold: smokeTol})
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	if an := replayed.Anomalies; an.Count != 0 {
		return nil, fmt.Errorf("%d replay anomalies (%s)", an.Count, strings.Join(an.Notes, "; "))
	}
	rep := replayed.Causal
	if rep == nil {
		return nil, errors.New("no causal section: the trace lacks a schema-2 run header")
	}
	if len(rep.Anomalies) != 0 {
		return nil, fmt.Errorf("%d anomalies (first: %s)", len(rep.Anomalies), rep.Anomalies[0].Detail)
	}
	if rep.Sends == 0 || rep.Matched != rep.Receives || rep.Duplicates != 0 || rep.UnmatchedReceives != 0 {
		return nil, fmt.Errorf("dirty matching: sends %d receives %d matched %d duplicates %d unmatched %d",
			rep.Sends, rep.Receives, rep.Matched, rep.Duplicates, rep.UnmatchedReceives)
	}
	// Only the async driver may stop with messages still queued; every
	// other backend drains on Stop, so each send must have matched.
	if b != engine.BackendAsync && rep.Matched != rep.Sends {
		return nil, fmt.Errorf("%d of %d sends unmatched", rep.Sends-rep.Matched, rep.Sends)
	}
	lr := rep.Ledger
	if math.Float64bits(lr.ExpectedTotal) != math.Float64bits(float64(r.n)) {
		return nil, fmt.Errorf("ledger expected %v, want exactly %d", lr.ExpectedTotal, r.n)
	}
	if lr.MaxColumnDrift > 1e-9 {
		return nil, fmt.Errorf("ledger column drift %v beyond 1e-9", lr.MaxColumnDrift)
	}
	if drift := lr.ActualTotal - lr.ExpectedTotal; drift > 1e-9 || drift < -1e-9 {
		return nil, fmt.Errorf("ledger total %v drifts from %v", lr.ActualTotal, lr.ExpectedTotal)
	}
	if lr.Destroyed > 0 {
		return nil, fmt.Errorf("%v weight destroyed on a crash-free run", lr.Destroyed)
	}
	return rep, nil
}

// f64Message is the baseline of the wire smoke's byte claim: the
// wire bytes of one steady-state smoke message (GM, k = smokeK, d = 2)
// with every number a float64 and one message per frame. That is a
// 4-byte length prefix and a kind byte, a 6-byte header, then per
// collection a weight, a mean and a packed covariance, 8 bytes each.
const f64Message = 4 + 1 + 6 + smokeK*8*(1+2+2*3/2)

// wireSmoke gates the v2 transport stack on one wire backend. First it
// reruns the causal audit with frame batching: batching must not
// disturb convergence, the exact weight audit or the
// happens-before/provenance reconstruction. Then it measures the
// deployment claim on uninstrumented traffic, the same workload per
// codec config compared by wire bytes per logical message: on tcp the
// batched v2f32 stack must spend at least 40% less than f64Message.
func wireSmoke(b engine.Backend, seed uint64, o obs, prefix string) ([][]string, error) {
	if _, err := causalAudit(smokeRun{backend: b, n: smokeN, seed: seed,
		opts: []distclass.Option{distclass.WithMetrics(o.reg), distclass.WithFrameBatch(8)}}, prefix); err != nil {
		return nil, fmt.Errorf("batched causal audit: %w", err)
	}
	configs := []struct {
		name  string
		codec distclass.Codec
		batch int
	}{
		{"v2+batch8", distclass.CodecV2, 8},
		{"v2f32+batch8", distclass.CodecV2F32, 8},
	}
	const dropWant = 0.40
	rows := [][]string{{b.String(), "all-f64 (closed form)", fmt.Sprintf("%.1f", float64(f64Message)), "-", "-", "-"}}
	var best float64 // v2f32+batch8 bytes per message
	for _, c := range configs {
		perMsg, msgs, frames, err := wireBytes(b, seed, c.codec, c.batch)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		best = perMsg
		rows = append(rows, []string{b.String(), c.name, fmt.Sprintf("%.1f", perMsg),
			strconv.FormatInt(msgs, 10), strconv.FormatInt(frames, 10),
			fmt.Sprintf("%.1f%%", 100*(1-perMsg/f64Message))})
	}
	if drop := 1 - best/f64Message; b == engine.BackendTCP && drop < dropWant {
		return nil, fmt.Errorf("bytes/message dropped only %.1f%% (all-f64 %d -> v2f32+batch8 %.1f), want >= %.0f%%",
			100*drop, f64Message, best, 100*dropWant)
	}
	return rows, nil
}

// wireBytes runs the workload without causal stamps under the given
// codec and batch bound and returns the wire bytes per logical message
// plus the raw message and frame counts.
func wireBytes(b engine.Backend, seed uint64, codec distclass.Codec, batch int) (float64, int64, int64, error) {
	// A fresh registry per run: the byte and message counters must
	// describe exactly this cluster, not the invocation's aggregate.
	// The tick is deliberately aggressive — deployment-grade load makes
	// send queues actually build, so the coalescing path is exercised
	// rather than degenerating to one message per frame.
	reg := distclass.NewRegistry()
	r := smokeRun{backend: b, n: smokeN, seed: seed,
		opts: []distclass.Option{
			distclass.WithInterval(200 * time.Microsecond),
			distclass.WithMetrics(reg),
			distclass.WithCodec(codec),
			distclass.WithFrameBatch(batch),
		},
		// Hold the converged cluster at steady state so full-k traffic
		// dominates the byte average; a run stopped at the convergence
		// instant over-weights the small single-collection startup
		// frames and the measurement becomes trajectory noise.
		after: func(*distclass.LiveCluster, *smokeRun) error {
			time.Sleep(time.Second)
			return nil
		},
	}
	if err := r.run(); err != nil {
		return 0, 0, 0, err
	}
	msgs := reg.Counter("livenet.sent").Value()
	wireBytes := reg.Counter("livenet.bytes_sent").Value()
	frames := reg.Counter("livenet.frames_sent").Value()
	if msgs == 0 || wireBytes == 0 {
		return 0, 0, 0, fmt.Errorf("no traffic measured (messages %d, bytes %d)", msgs, wireBytes)
	}
	return float64(wireBytes) / float64(msgs), msgs, frames, nil
}
