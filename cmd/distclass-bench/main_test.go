package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// scaled returns workload name shrunk so that a run takes well under a
// second: the same backend, method, topology and phases, fewer nodes.
func scaled(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "fig2-round":
		w.n = 60
	case "centroids-round-100k":
		w.n = 2000
	case "gm-shard-10k":
		w.n, w.kills, w.restarts = 200, 6, 3
	case "centroids-pipe-256":
		w.n, w.settle, w.window = 24, 20*time.Millisecond, 50*time.Millisecond
	default:
		t.Fatalf("no scaled form of %s", name)
	}
	return w
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked
// against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine runs the printing half of realMain on a report and decodes
// the result line it ends with.
func lastLine(t *testing.T, rep report) result {
	t.Helper()
	var out bytes.Buffer
	if err := printResult(&out, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestWorkloadsScaledDown runs every workload, untraced and traced, at
// a scaled-down N: every rep must pass its checks, and the printed
// result must name exactly the metrics BENCHMARK.json lists.
func TestWorkloadsScaledDown(t *testing.T) {
	bench := readBenchmarkJSON(t)
	var want [2][]string
	for _, m := range bench.EndToEnd {
		want[0] = append(want[0], m.Name)
	}
	for _, m := range bench.PerLayer {
		want[1] = append(want[1], m.Name)
	}
	sort.Strings(want[0])
	sort.Strings(want[1])
	for _, wl := range workloads() {
		w := scaled(t, wl.name)
		for trace := 0; trace <= 1; trace++ {
			o := options{seed: 1, seconds: 0.01, traced: trace == 1}
			rep := buildReport(w, o, run(w, o))
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, attempted %d, failures %v", w.name, trace, rep.Correct, rep.Attempted, rep.Failures)
			}
			res := lastLine(t, rep)
			if got := sortedKeys(res.Metrics); strings.Join(got, ",") != strings.Join(want[trace], ",") {
				t.Errorf("%s trace %d prints metrics %v, BENCHMARK.json lists %v", w.name, trace, got, want[trace])
			}
			if rep.Env.Seed != 1 || rep.Env.Reps < 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.NProc < 1 || rep.Env.GoVersion == "" || rep.Env.Commit == "" {
				t.Errorf("%s trace %d: incomplete env block %+v", w.name, trace, rep.Env)
			}
			if trace == 1 && len(rep.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
}

// TestNamesMatchBenchmarkJSON pins the workload names and the metric
// names and units to BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bench := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	check := func(kind string, defs []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: %s [%s], BENCHMARK.json lists %s [%s]", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd(), bench.EndToEnd)
	check("per_layer", perLayer(), bench.PerLayer)
}

// TestStageSums checks on a small traced round run that the set-up
// stages add up to setup_s and the steps and probes to the convergence
// time, each within 5%, and that no span's self time is negative.
func TestStageSums(t *testing.T) {
	w := scaled(t, "centroids-round-100k")
	tr := &tracer{t0: time.Now()}
	res, err := runRep(w, 7, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e := res.samples["trace.stage_sum_err"][0]; !(e <= 0.05) {
		t.Errorf("stage sum error %v above 5%%", e)
	}
	steps := res.samples["engine.step_s"][0] + res.samples["engine.probe_s"][0]
	conv := res.samples["engine.converge_s"][0]
	if math.Abs(steps-conv) > 0.05*conv {
		t.Errorf("steps+probes %v s, convergence %v s", steps, conv)
	}
	if self := res.samples["engine.step_self_s"][0]; self < 0 {
		t.Errorf("engine.step_self_s = %v", self)
	}
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range tr.spans {
		if self := s.End - s.Start - child[i]; self < 0 {
			t.Errorf("span %d %s: self time %d ns", i, s.Name, self)
		}
	}
}

// TestTracingDoesNotPerturb runs the round workloads traced and
// untraced on one seed: rounds, messages and the Figure 2 cover error
// must match exactly, and the scaled Figure 2 cover error is pinned.
func TestTracingDoesNotPerturb(t *testing.T) {
	for _, name := range []string{"fig2-round", "centroids-round-100k"} {
		w := scaled(t, name)
		plain, err := runRep(w, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runRep(w, 1, &tracer{t0: time.Now()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plain.rounds != traced.rounds || plain.msgs != traced.msgs ||
			math.Float64bits(plain.coverErr) != math.Float64bits(traced.coverErr) {
			t.Errorf("%s: untraced rounds %d msgs %d cover %v, traced %d %d %v", name,
				plain.rounds, plain.msgs, plain.coverErr, traced.rounds, traced.msgs, traced.coverErr)
		}
		if name == "fig2-round" {
			const pinned = 0.28444025520662458
			if math.Float64bits(plain.coverErr) != math.Float64bits(pinned) {
				t.Errorf("fig2 cover error %.17g, pinned %.17g", plain.coverErr, pinned)
			}
		}
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartile method to
// Python's statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs            []float64
		p25, p50, p75 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
	} {
		s := summarize(c.xs)
		if s.P25 != c.p25 || s.Median != c.p50 || s.P75 != c.p75 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want %v %v %v", c.xs, s, c.p25, c.p50, c.p75)
		}
	}
}

// TestBadFlags checks that a bad invocation exits nonzero without
// printing a result.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig2-round", "--trace", "2"},
		{"--workload", "fig2-round", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
