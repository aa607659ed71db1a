package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"distclass/internal/engine"
	"distclass/internal/metrics"
	"distclass/internal/trace"
)

func testObs() obs { return obs{reg: metrics.NewRegistry()} }

func TestRunFigureValidation(t *testing.T) {
	err := runFigure(9, true, 1, "", engine.BackendRound, testObs())
	if err == nil || !strings.Contains(err.Error(), "unknown figure") {
		t.Errorf("error = %v, want unknown figure", err)
	}
}

func TestRunAblationValidation(t *testing.T) {
	err := runAblation("bogus", true, 1, engine.BackendRound, testObs())
	if err == nil || !strings.Contains(err.Error(), "unknown ablation") {
		t.Errorf("error = %v, want unknown ablation", err)
	}
}

func TestRunFigure1(t *testing.T) {
	if err := runFigure(1, true, 1, "", engine.BackendRound, testObs()); err != nil {
		t.Fatalf("runFigure(1): %v", err)
	}
}

func TestRunQuickFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("quick figures still run full sweeps")
	}
	for _, fig := range []int{2, 3, 4} {
		if err := runFigure(fig, true, 1, t.TempDir(), engine.BackendRound, testObs()); err != nil {
			t.Fatalf("runFigure(%d): %v", fig, err)
		}
	}
}

func TestRunQuickAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are slow")
	}
	for _, name := range []string{"q", "policy", "mode", "methods", "relatedwork", "histogram", "loss", "scalability", "outliermethods"} {
		if err := runAblation(name, true, 1, engine.BackendRound, testObs()); err != nil {
			t.Fatalf("runAblation(%s): %v", name, err)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	// fig=0 and empty ablation entries are skipped without error.
	if err := run(mainOpts{quick: true, seed: 1}, testObs()); err != nil {
		t.Fatalf("run noop: %v", err)
	}
	if err := run(mainOpts{fig: 1, quick: true, seed: 1}, testObs()); err != nil {
		t.Fatalf("run fig1: %v", err)
	}
}

func TestParseFracs(t *testing.T) {
	got, err := parseFracs(" 0, 0.1,0.2 ")
	if err != nil || len(got) != 3 || got[0] != 0 || got[1] != 0.1 || got[2] != 0.2 {
		t.Errorf("parseFracs = %v, %v", got, err)
	}
	if _, err := parseFracs("0.1,zap"); err == nil {
		t.Errorf("bad fraction accepted")
	}
	if _, err := parseFracs(" , "); err == nil {
		t.Errorf("empty fraction list accepted")
	}
}

// TestRunLiveChurnQuick runs the live crash ablation end to end in
// strict mode — the same gate make check's churn-smoke applies.
func TestRunLiveChurnQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a live cluster")
	}
	churn := churnOpts{enabled: true, fracs: "0.2", strict: true, backend: engine.BackendPipe}
	if err := runLiveChurn(churn, true, 1, testObs()); err != nil {
		t.Fatalf("runLiveChurn: %v", err)
	}
}

// TestRealMainObservability runs one quick ablation through realMain
// with -trace and -metrics set, then checks the trace file carries
// protocol events and spread probes.
func TestRealMainObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full ablation")
	}
	traceFile := filepath.Join(t.TempDir(), "events.jsonl")
	if err := realMain(mainOpts{ablation: "methods", quick: true, seed: 1, traceFile: traceFile, metricsAddr: "127.0.0.1:0"}); err != nil {
		t.Fatalf("realMain: %v", err)
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
	if trace.CountKind(events, trace.KindSpread) == 0 {
		t.Errorf("no spread probes recorded")
	}
	if trace.CountKind(events, trace.KindSend) == 0 {
		t.Errorf("no send events recorded")
	}
	if trace.CountKind(events, trace.KindSplit) == 0 {
		t.Errorf("no split events recorded")
	}
}

// TestSmoke runs every gate of the smoke table — the same gates make
// check runs as engine-, shard-, monitor-, causal- and wire-smoke. Under
// -race (make race) the monitor gate doubles as the concurrency check
// for the whole monitoring plane, and the causal and wire gates
// exercise the concurrent recorders' causal stamping.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up live clusters and HTTP servers")
	}
	for _, s := range smokes() {
		t.Run(s.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := runSmoke(s, 1, dir, testObs()); err != nil {
				t.Fatal(err)
			}
			// -smoke-out keeps exactly one trace per backend of the
			// traced gates, each starting with a schema-2 run header
			// naming its backend — the contract the Makefile gates'
			// distclass-analyze re-audit depends on.
			var traced []engine.Backend
			if s.name == "causal" || s.name == "wire" {
				traced = s.backends
			}
			var want []string
			for _, b := range traced {
				want = append(want, s.name+"."+b.String()+".trace")
			}
			slices.Sort(want)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			if !slices.Equal(got, want) {
				t.Fatalf("-smoke-out wrote %v, want %v", got, want)
			}
			for _, b := range traced {
				path := filepath.Join(dir, s.name+"."+b.String()+".trace")
				f, err := os.Open(path)
				if err != nil {
					t.Fatalf("trace artifact: %v", err)
				}
				events, err := trace.Read(f)
				f.Close()
				if err != nil {
					t.Fatalf("read %s: %v", path, err)
				}
				if len(events) == 0 || events[0].Kind != trace.KindRunHeader ||
					events[0].Backend != b.String() || events[0].Schema != trace.SchemaCausal {
					t.Errorf("%s does not start with a schema-%d %s run header", path, trace.SchemaCausal, b)
				}
			}
		})
	}
}

func TestParseSmokes(t *testing.T) {
	cases := []struct {
		name, list, out string
		want            []string // picked gate names; nil with errWant
		errWant         string
	}{
		{name: "none", list: ""},
		{name: "all", list: "all", want: []string{"engine", "shard", "monitor", "causal", "wire"}},
		{name: "subset in flag order", list: "wire,engine", out: "d", want: []string{"wire", "engine"}},
		{name: "unknown", list: "engine,bogus", errWant: `unknown smoke "bogus" (valid: engine, shard, monitor, causal, wire, or all)`},
		{name: "empty name", list: "engine,", errWant: `unknown smoke ""`},
		{name: "out without smoke", out: "d", errWant: "-smoke-out needs -smoke"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			picked, err := parseSmokes(c.list, c.out)
			if c.errWant != "" {
				if err == nil || !strings.Contains(err.Error(), c.errWant) {
					t.Fatalf("error = %v, want %q", err, c.errWant)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, s := range picked {
				got = append(got, s.name)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("picked %v, want %v", got, c.want)
			}
		})
	}
}

// TestSmokeAudit pins the shared weight audit: bit equality on every
// backend, so a drift of one quantum fails either way.
func TestSmokeAudit(t *testing.T) {
	const q = 1.0 / (1 << 30)
	cases := []struct {
		name         string
		weight, want float64
		ok           bool
	}{
		{"exact", 504.5, 504.5, true},
		{"one quantum light", 504.5 - q, 504.5, false},
		{"one quantum heavy", 16 + q, 16, false},
	}
	for _, c := range cases {
		r := smokeRun{weight: c.weight, want: c.want}
		if err := r.audit(); (err == nil) != c.ok {
			t.Errorf("%s: audit = %v, want ok %v", c.name, err, c.ok)
		}
	}
}

// TestPackageDocListsTables keeps the package doc's lists of ablations
// and smoke gates in step with the tables the flags read.
func TestPackageDocListsTables(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(f.Doc.Text()), " ")
	names := ablationNames()
	want := "The ablations, in the order -all runs them, are " +
		strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1] + "."
	if !strings.Contains(doc, want) {
		t.Errorf("package doc does not list the ablation table; want %q", want)
	}
	for _, s := range smokes() {
		if !strings.Contains(doc, " "+s.name+" (") {
			t.Errorf("package doc does not describe smoke gate %q", s.name)
		}
	}
}
