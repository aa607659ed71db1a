// Command distclass-top is a terminal dashboard for a running
// monitored deployment: it polls a monitor endpoint's /status (served
// by distclass-live -monitor, distclass-sim -monitor or experiments
// -monitor), and redraws the run's vital signs in place — health,
// convergence, message complexity, the weight-conservation audit, the
// live spread curve and a per-node health table with the stalest nodes
// first.
//
// Example:
//
//	distclass-live -n 32 -duration 30s -monitor :8080 &
//	distclass-top -addr 127.0.0.1:8080
//
// With -once it prints a single frame and exits (readable in scripts
// and CI logs); otherwise it clears and redraws every -interval until
// interrupted or, with -until-converged, until /status reports the run
// converged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"distclass/internal/experiments"
	"distclass/internal/monitor"
	"distclass/internal/plot"
	"distclass/internal/replay"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("distclass-top: ")

	var cfg topConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "host:port of the monitor endpoint (the -monitor address of the run)")
	flag.DurationVar(&cfg.interval, "interval", time.Second, "poll and redraw period")
	flag.BoolVar(&cfg.once, "once", false, "print one frame and exit instead of redrawing")
	flag.BoolVar(&cfg.untilConverged, "until-converged", false, "exit once /status reports the run converged")
	flag.IntVar(&cfg.width, "width", 72, "spread chart width")
	flag.IntVar(&cfg.height, "height", 14, "spread chart height")
	flag.IntVar(&cfg.nodeRows, "node-rows", 12, "node-health rows to show, stalest first (0 hides the table, -1 shows every node)")
	flag.Parse()

	if err := run(os.Stdout, cfg); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// topConfig carries the command's flags into run.
type topConfig struct {
	addr           string
	interval       time.Duration
	once           bool
	untilConverged bool
	width          int
	height         int
	nodeRows       int
}

// run polls /status and renders frames until the exit condition.
func run(w io.Writer, cfg topConfig) error {
	url := "http://" + cfg.addr + "/status"
	for {
		st, err := fetchStatus(url)
		if err != nil {
			if cfg.once {
				return err
			}
			// A run that has not bound its endpoint yet (or is
			// restarting) is worth waiting for; say so and keep polling.
			fmt.Fprintf(w, "\033[H\033[2J%s unreachable: %v (retrying every %s)\n", url, err, cfg.interval)
			time.Sleep(cfg.interval)
			continue
		}
		frame, err := render(st, cfg)
		if err != nil {
			return err
		}
		if cfg.once {
			_, err := io.WriteString(w, frame)
			return err
		}
		if _, err := io.WriteString(w, "\033[H\033[2J"+frame); err != nil {
			return err
		}
		if cfg.untilConverged && st.Convergence.Converged {
			return nil
		}
		time.Sleep(cfg.interval)
	}
}

// fetchStatus GETs and decodes one /status snapshot.
func fetchStatus(url string) (*monitor.Status, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	var st monitor.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", url, err)
	}
	return &st, nil
}

// render lays out one dashboard frame for the snapshot. Output is
// deterministic for identical snapshots.
func render(st *monitor.Status, cfg topConfig) (string, error) {
	var b []byte
	put := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}

	put("distclass-top — %s backend — health: %s\n", st.Backend, st.Health)
	put("events %d   rounds %d   nodes %d\n\n", st.Events, st.Rounds, st.Nodes)

	c := st.Convergence
	put("convergence  spread %.4g (min %.4g)  threshold %.4g  window %d  samples %d\n",
		c.LastSpread, c.MinSpread, c.Threshold, c.Window, c.Samples)
	if c.Converged {
		put("             converged")
		// Live deployments probe a round-less stream; only the
		// simulators label samples with rounds.
		if c.ConvergedRound >= 0 {
			put(" at round %d (%d rounds)", c.ConvergedRound, c.RoundsToConverge)
		}
		if c.DivergentSamples > 0 {
			put("  divergent samples %d", c.DivergentSamples)
		}
		put("\n")
	} else {
		put("             not converged yet\n")
	}

	msg := st.Messaging
	put("messaging    sends %d", msg.Sends)
	if st.Rounds > 0 {
		put(" (%.2f/round)", msg.SendsPerRound)
	}
	put("  receives %d", msg.Receives)
	if st.Rounds > 0 {
		put(" (%.2f/round)", msg.ReceivesPerRound)
	}
	if msg.BytesPerSend > 0 {
		// Live wire runs stamp send sizes; sim runs have none, so the
		// column appears only where it means something.
		put("  bytes/send %.1f", msg.BytesPerSend)
	}
	put("  drops %d  decode errors %d\n", msg.SendDrops, msg.DecodeErrors)

	cons := st.Conservation
	if cons.Audited {
		verdict := "EXACT"
		if !cons.Exact {
			verdict = fmt.Sprintf("drift %.4g (in flight)", cons.Drift)
		}
		if cons.Violations > 0 {
			verdict = fmt.Sprintf("%d VIOLATIONS (max drift %.4g)", cons.Violations, cons.MaxDrift)
		}
		put("conservation weight %.4f / %.4f  %s\n", cons.Latest, cons.Expected, verdict)
	}

	if st.Causal != nil {
		put("causal       clock %d (skew %d)  depth max %d mean %.1f\n",
			st.Causal.MaxClock, st.Causal.ClockSkew, st.Causal.MaxDepth, st.Causal.MeanDepth)
	}

	if len(st.SpreadCurve) > 0 {
		series := []plot.Series{{Name: "spread", Y: curveValues(st.SpreadCurve)}}
		if len(st.ErrorCurve) > 0 {
			series = append(series, plot.Series{Name: "error", Y: curveValues(st.ErrorCurve)})
		}
		chart, err := plot.Curves(cfg.width, cfg.height, series...)
		if err != nil {
			return "", err
		}
		put("\n%s", chart)
		if st.SpreadDropped > 0 {
			put("(%d oldest spread samples dropped)\n", st.SpreadDropped)
		}
	}

	if cfg.nodeRows != 0 && len(st.NodeHealth) > 0 {
		put("\n%s", nodeTable(st.NodeHealth, cfg.nodeRows))
	}
	return string(b), nil
}

// curveValues projects a probe curve onto its sample values.
func curveValues(curve []replay.Sample) []float64 {
	y := make([]float64, len(curve))
	for i, s := range curve {
		y[i] = s.Value
	}
	return y
}

// nodeTable renders up to max node-health rows, worst first: stalled
// nodes, then crashed, then by staleness, ties by id. max < 0 shows
// every node.
func nodeTable(nodes []replay.NodeHealth, max int) string {
	ranked := append([]replay.NodeHealth(nil), nodes...)
	sort.SliceStable(ranked, func(i, j int) bool {
		a, z := ranked[i], ranked[j]
		if a.Stalled != z.Stalled {
			return a.Stalled
		}
		if a.Crashed != z.Crashed {
			return a.Crashed
		}
		if a.Staleness != z.Staleness {
			return a.Staleness > z.Staleness
		}
		return a.Node < z.Node
	})
	total := len(ranked)
	if max >= 0 && len(ranked) > max {
		ranked = ranked[:max]
	}
	rows := make([][]string, 0, len(ranked))
	for _, n := range ranked {
		state := "ok"
		switch {
		case n.Crashed:
			state = "crashed"
		case n.Stalled:
			state = "STALLED"
		}
		staleness := "-"
		if n.Staleness >= 0 {
			staleness = strconv.Itoa(n.Staleness)
		}
		rows = append(rows, []string{
			strconv.Itoa(n.Node), state,
			strconv.Itoa(n.Sends), strconv.Itoa(n.Receives),
			strconv.Itoa(n.Splits), strconv.Itoa(n.Merges),
			staleness,
			strconv.Itoa(n.DecodeErrors), strconv.Itoa(n.SendDrops),
		})
	}
	out := experiments.FormatTable(
		[]string{"node", "state", "sends", "recvs", "splits", "merges", "stale", "decerr", "drops"}, rows)
	if len(ranked) < total {
		out += fmt.Sprintf("(%d of %d nodes; raise -node-rows for more)\n", len(ranked), total)
	}
	return out
}
