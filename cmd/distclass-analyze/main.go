// Command distclass-analyze replays trace JSONL files (written by
// distclass-sim, distclass-live or experiments via -trace) and reports
// the paper's convergence diagnostics offline: convergence round,
// per-round spread/error curves, message-complexity accounting,
// per-node health and anomaly detection. Traces stream through the
// same incremental analyzer the live monitor's /status renders from;
// it keeps per-node and per-round aggregates and the probe curves,
// never the raw events, so memory is O(nodes + rounds that carry
// events + probes) however long the file.
//
// Usage:
//
//	distclass-analyze [flags] trace.jsonl...
//	distclass-analyze -diff [flags] a.jsonl b.jsonl
//	distclass-analyze -causal [flags] trace.jsonl...
//
// Examples:
//
//	distclass-sim -n 200 -seed 7 -trace run.jsonl
//	distclass-analyze run.jsonl                   # text report + curves
//	distclass-analyze -format csv run.jsonl       # per-round curve table
//	distclass-analyze -format json run.jsonl      # full RunReport schema
//	distclass-analyze -diff base.jsonl ablated.jsonl
//
//	distclass-sim -n 200 -seed 7 -trace run.jsonl -causal
//	distclass-analyze -causal run.jsonl           # happens-before + provenance
//
// Output is deterministic: the same trace produces byte-identical
// reports on every invocation, so reports can be committed, diffed and
// golden-tested. With -fail-anomalies the exit status is 1 when any
// analyzed trace reports a non-zero anomaly count (the make check
// smoke gate).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"distclass/internal/causal"
	"distclass/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distclass-analyze: ")

	var (
		format    = flag.String("format", "text", "report format: text, csv or json")
		threshold = flag.Float64("threshold", 1e-3, "spread threshold for convergence detection")
		window    = flag.Int("window", 3, "consecutive sub-threshold rounds required for convergence")
		slack     = flag.Int("stall-slack", 0, "trailing rounds a node may be silent before counting as stalled (0 = max(10, rounds/5), negative disables)")
		diff      = flag.Bool("diff", false, "compare exactly two traces metric-by-metric instead of reporting each")
		causal    = flag.Bool("causal", false, "reconstruct the happens-before DAG and weight-provenance ledger of schema-2 traces (recorded with -causal) instead of the replay report")
		out       = flag.String("o", "", "write the report to this file instead of stdout")
		failAnom  = flag.Bool("fail-anomalies", false, "exit 1 when any analyzed trace has a non-zero anomaly count")
	)
	flag.Parse()

	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Print(err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	opts := replay.Options{Threshold: *threshold, Window: *window, StallSlack: *slack}
	var anomalies int
	var err error
	if *causal {
		if *diff {
			err = fmt.Errorf("-causal and -diff are mutually exclusive")
		} else {
			anomalies, err = runCausal(w, *format, causalOptions(opts), flag.Args())
		}
	} else {
		anomalies, err = run(w, *format, *diff, opts, flag.Args())
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	if *failAnom && anomalies > 0 {
		log.Printf("%d anomalies found", anomalies)
		os.Exit(1)
	}
}

// causalOptions maps the shared convergence flags onto the causal
// analyzer's options.
func causalOptions(opts replay.Options) causal.Options {
	return causal.Options{Tolerance: opts.Threshold, Window: opts.Window}
}

// causalFile analyzes one causal trace file.
func causalFile(path string, opts causal.Options) (*causal.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := causal.Analyze(f, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// runCausal analyzes the given causal traces and writes the requested
// output, returning the total anomaly count across all reports.
func runCausal(w io.Writer, format string, opts causal.Options, paths []string) (int, error) {
	switch format {
	case "text", "json":
	case "csv":
		return 0, fmt.Errorf("-causal supports text and json formats only")
	default:
		return 0, fmt.Errorf("unknown format %q (valid: text, json)", format)
	}
	anomalies := 0
	for i, path := range paths {
		rep, err := causalFile(path, opts)
		if err != nil {
			return anomalies, err
		}
		anomalies += len(rep.Anomalies)
		if format == "json" {
			if err := rep.WriteJSON(w); err != nil {
				return anomalies, err
			}
			continue
		}
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return anomalies, err
			}
		}
		if len(paths) > 1 {
			if _, err := fmt.Fprintf(w, "== %s\n", path); err != nil {
				return anomalies, err
			}
		}
		if err := rep.WriteText(w); err != nil {
			return anomalies, err
		}
	}
	return anomalies, nil
}

// analyzeFile replays one trace file into a report labeled with its
// path.
func analyzeFile(path string, opts replay.Options) (*replay.RunReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := replay.Analyze(f, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rep.File = path
	return rep, nil
}

// run analyzes the given traces and writes the requested output,
// returning the total anomaly count across all reports.
func run(w io.Writer, format string, diff bool, opts replay.Options, paths []string) (int, error) {
	switch format {
	case "text", "csv", "json":
	default:
		return 0, fmt.Errorf("unknown format %q (valid: text, csv, json)", format)
	}
	if diff {
		if len(paths) != 2 {
			return 0, fmt.Errorf("-diff needs exactly two trace files, got %d", len(paths))
		}
		if format == "csv" {
			return 0, fmt.Errorf("-diff supports text and json formats only")
		}
		a, err := analyzeFile(paths[0], opts)
		if err != nil {
			return 0, err
		}
		b, err := analyzeFile(paths[1], opts)
		if err != nil {
			return 0, err
		}
		d := replay.NewDiff(a, b)
		anomalies := a.Anomalies.Count + b.Anomalies.Count
		if format == "json" {
			return anomalies, d.WriteJSON(w)
		}
		return anomalies, d.WriteText(w)
	}

	reports := make([]*replay.RunReport, 0, len(paths))
	anomalies := 0
	for _, path := range paths {
		rep, err := analyzeFile(path, opts)
		if err != nil {
			return 0, err
		}
		anomalies += rep.Anomalies.Count
		reports = append(reports, rep)
	}
	switch format {
	case "csv":
		for i, rep := range reports {
			if err := rep.WriteCSV(w, i == 0); err != nil {
				return anomalies, err
			}
		}
	case "json":
		if len(reports) == 1 {
			return anomalies, reports[0].WriteJSON(w)
		}
		// Several files form one JSON array so the output stays a
		// single valid document.
		if _, err := fmt.Fprintln(w, "["); err != nil {
			return anomalies, err
		}
		for i, rep := range reports {
			if err := rep.WriteJSON(w); err != nil {
				return anomalies, err
			}
			sep := ","
			if i == len(reports)-1 {
				sep = "]"
			}
			if _, err := fmt.Fprintln(w, sep); err != nil {
				return anomalies, err
			}
		}
	default: // text
		for i, rep := range reports {
			if i > 0 {
				if _, err := fmt.Fprintln(w); err != nil {
					return anomalies, err
				}
			}
			if err := rep.WriteText(w); err != nil {
				return anomalies, err
			}
		}
	}
	return anomalies, nil
}
