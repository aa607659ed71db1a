package replay

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"distclass/internal/plot"
)

// fnum renders a float compactly but deterministically for the text
// report.
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// fcsv renders a float at full precision so CSV round-trips exactly.
func fcsv(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON writes the report as indented JSON. Field order is fixed by
// the struct, slices are pre-sorted by the analyzer, so identical runs
// produce byte-identical output.
func (rep *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}

// CSVHeader is the column schema of WriteCSV: one row per driver round.
const CSVHeader = "file,round,spread,error,sends,receives,collections,crashes,recovers"

// WriteCSV writes the per-round curve as CSV. When header is true the
// schema line is written first (set it false to concatenate several
// reports into one table). Probe columns are empty for rounds without
// a sample.
func (rep *RunReport) WriteCSV(w io.Writer, header bool) error {
	if header {
		if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	for _, rs := range rep.PerRound {
		spread, errv := "", ""
		if rs.Spread != nil {
			spread = fcsv(*rs.Spread)
		}
		if rs.Error != nil {
			errv = fcsv(*rs.Error)
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%s,%d,%d,%s,%d,%d\n",
			rep.File, rs.Round, spread, errv,
			rs.Sends, rs.Receives, fcsv(rs.Collections),
			rs.Crashes, rs.Recovers); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	return nil
}

// WriteText writes the human-readable report: run summary, convergence
// analysis with ASCII curves, messaging accounting, node health, the
// anomaly list and, for causal traces, the causal section. Output is
// deterministic for identical reports.
func (rep *RunReport) WriteText(w io.Writer) error {
	p := &printer{w: w}
	label := rep.File
	if label == "" {
		label = "(unnamed trace)"
	}
	p.f("== run report: %s ==\n", label)
	if rep.Backend != "" {
		p.f("backend: %s\n", rep.Backend)
	}
	p.f("events: %d   rounds: %d   nodes: %d\n", rep.Events, rep.Rounds, rep.Nodes)
	p.f("kinds:")
	for _, kc := range rep.Kinds {
		p.f(" %s=%d", kc.Kind, kc.Count)
	}
	p.f("\n")

	c := rep.Convergence
	p.f("\n-- convergence (threshold %s, window %d) --\n", fnum(c.Threshold), c.Window)
	if c.SpreadSamples == 0 {
		p.f("no spread probes in this trace (run with observability enabled to record them)\n")
	} else {
		if c.Converged {
			p.f("converged: yes, at round %d (%d rounds)\n", c.ConvergedRound, c.RoundsToConverge)
		} else {
			p.f("converged: no (within %d sampled rounds)\n", c.SpreadSamples)
		}
		if c.FirstStableRound >= 0 {
			p.f("first stable round: %d (spread never reaches the threshold again)\n", c.FirstStableRound)
		} else {
			p.f("first stable round: none (final sample still at or above the threshold)\n")
		}
		p.f("spread: final %s, min %s over %d samples\n",
			fnum(c.FinalSpread), fnum(c.MinSpread), c.SpreadSamples)
	}
	if c.ErrorSamples > 0 {
		p.f("error:  final %s, min %s over %d samples\n",
			fnum(c.FinalError), fnum(c.MinError), c.ErrorSamples)
	}
	if err := p.curves(rep); err != nil {
		return err
	}

	m := rep.Messaging
	p.f("\n-- messaging --\n")
	p.f("sends: %d (%s bytes on the wire)\n", m.Sends, fnum(m.SentBytes))
	// Byte lines only when the trace carries sizes (live traces); sim
	// traces keep the exact report they always had.
	if m.SentBytes > 0 {
		p.f("bytes/send: %s (mean encoded message size)\n", fnum(m.BytesPerSend))
		if stats, ok := nodeSpreadF(rep.NodeHealth, func(h NodeHealth) float64 { return h.SentBytes }); ok {
			p.f("per-node bytes:    %s\n", stats)
		}
	}
	p.f("receives: %d (%s collections received)\n", m.Receives, fnum(m.ReceivedCollections))
	p.f("splits: %d (%s collections out)   merges: %d (%s collections in)\n",
		m.Splits, fnum(m.SplitCollections), m.Merges, fnum(m.MergedCollections))
	p.f("crashes: %d   recovers: %d   decode errors: %d   send drops: %d\n",
		m.Crashes, m.Recovers, m.DecodeErrors, m.SendDrops)
	if stats, ok := nodeSpread(rep.NodeHealth, func(h NodeHealth) int { return h.Sends }); ok {
		p.f("per-node sends:    %s\n", stats)
	}
	if stats, ok := nodeSpread(rep.NodeHealth, func(h NodeHealth) int { return h.Receives }); ok {
		p.f("per-node receives: %s\n", stats)
	}

	p.f("\n-- node health --\n")
	if len(rep.NodeHealth) == 0 {
		p.f("no per-node events in this trace\n")
	} else {
		crashed, stalled, stale := 0, 0, 0
		maxStale := -1
		for _, h := range rep.NodeHealth {
			if h.Crashed {
				crashed++
			}
			if h.Stalled {
				stalled++
			}
			if h.Staleness > 0 {
				stale++
			}
			if h.Staleness > maxStale {
				maxStale = h.Staleness
			}
		}
		p.f("crashed (not recovered): %d of %d nodes\n", crashed, len(rep.NodeHealth))
		p.f("silent in the last round: %d nodes (worst staleness %d rounds)\n", stale, maxStale)
		if stalled == 0 {
			p.f("stalled: none\n")
		} else {
			p.f("stalled: %d nodes %v\n", stalled, rep.Anomalies.StalledNodes)
		}
		// Full per-node table only for small networks; big runs get the
		// aggregates above plus every flagged node below.
		if len(rep.NodeHealth) <= 32 {
			p.f("node  sends  recvs  splits  merges  crash  recover  decode-err  drops  last-round  stale\n")
			for _, h := range rep.NodeHealth {
				p.nodeRow(h)
			}
		} else {
			flagged := 0
			for _, h := range rep.NodeHealth {
				if h.Stalled || h.Crashed || h.DecodeErrors > 0 {
					if flagged == 0 {
						p.f("flagged nodes (stalled, crashed or decode errors):\n")
						p.f("node  sends  recvs  splits  merges  crash  recover  decode-err  drops  last-round  stale\n")
					}
					flagged++
					p.nodeRow(h)
				}
			}
			if flagged == 0 {
				p.f("(%d nodes, none flagged; see the JSON report for the full table)\n", len(rep.NodeHealth))
			}
		}
	}

	an := rep.Anomalies
	p.f("\n-- anomalies (%d) --\n", an.Count)
	if an.Count == 0 {
		p.f("none\n")
	}
	for _, note := range an.Notes {
		p.f("- %s\n", note)
	}
	if rep.Causal != nil && p.err == nil {
		p.f("\n")
		if err := rep.Causal.WriteText(w); err != nil {
			p.err = fmt.Errorf("replay: %w", err)
		}
	}
	return p.err
}

// printer wraps a writer with sticky-error formatting.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) f(format string, args ...any) {
	if p.err != nil {
		return
	}
	if _, err := fmt.Fprintf(p.w, format, args...); err != nil {
		p.err = fmt.Errorf("replay: %w", err)
	}
}

func (p *printer) nodeRow(h NodeHealth) {
	p.f("%4d  %5d  %5d  %6d  %6d  %5d  %7d  %10d  %5d  %10d  %5d\n",
		h.Node, h.Sends, h.Receives, h.Splits, h.Merges,
		h.Crashes, h.Recovers, h.DecodeErrors, h.SendDrops, h.LastActivityRound, h.Staleness)
}

// curves renders the spread/error ASCII charts when samples exist.
func (p *printer) curves(rep *RunReport) error {
	if p.err != nil {
		return p.err
	}
	var series []plot.Series
	if len(rep.SpreadCurve) > 1 {
		y := make([]float64, len(rep.SpreadCurve))
		for i, s := range rep.SpreadCurve {
			y[i] = s.Value
		}
		series = append(series, plot.Series{Name: "spread", Mark: 'o', Y: y})
	}
	if len(rep.ErrorCurve) > 1 {
		y := make([]float64, len(rep.ErrorCurve))
		for i, s := range rep.ErrorCurve {
			y[i] = s.Value
		}
		series = append(series, plot.Series{Name: "error", Mark: '*', Y: y})
	}
	if len(series) == 0 {
		return nil
	}
	chart, err := plot.Curves(72, 14, series...)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	p.f("\nconvergence curves:\n%s\n", chart)
	return p.err
}

// nodeSpread formats min/mean/max of a per-node counter.
func nodeSpread(health []NodeHealth, get func(NodeHealth) int) (string, bool) {
	if len(health) == 0 {
		return "", false
	}
	min, max, sum := get(health[0]), get(health[0]), 0
	for _, h := range health {
		v := get(h)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean := float64(sum) / float64(len(health))
	return fmt.Sprintf("min %d / mean %s / max %d", min, fnum(mean), max), true
}

// nodeSpreadF is nodeSpread for float-valued per-node counters (byte
// totals).
func nodeSpreadF(health []NodeHealth, get func(NodeHealth) float64) (string, bool) {
	if len(health) == 0 {
		return "", false
	}
	min, max, sum := get(health[0]), get(health[0]), 0.0
	for _, h := range health {
		v := get(h)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean := sum / float64(len(health))
	return fmt.Sprintf("min %s / mean %s / max %s", fnum(min), fnum(mean), fnum(max)), true
}
