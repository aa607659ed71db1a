// Package converge is the single implementation of the repo's
// convergence-detection semantics: a run has converged once Window
// consecutive spread samples fall strictly below Threshold. The same
// Detector drives engine.RunUntilConverged and replay.Analyzer, the
// one run analyzer behind both distclass-analyze and the live
// monitor's /status, so a replayed trace, a live snapshot and the run
// that produced them can never disagree about when — or whether — the
// network converged.
//
// The detector is a pure state machine over an ordered sample stream;
// it is not safe for concurrent use (callers serialize, as
// internal/monitor does behind its mutex).
package converge

// Detector consumes spread samples in order and tracks the
// threshold/window convergence state plus the derived diagnostics the
// replay reports expose (first stable round, post-convergence
// divergence, min/last values).
type Detector struct {
	threshold float64
	window    int

	samples   int
	stable    int // consecutive sub-threshold samples, reset on any sample at or above
	converged bool
	// convergedRound is the round of the sample that completed the
	// stable window; -1 until convergence.
	convergedRound int
	// firstStable is the round of the first sub-threshold sample since
	// the last sample at or above the threshold; -1 while at/above.
	firstStable int
	divergent   int // samples at/above the threshold after convergence
	lastValue   float64
	minValue    float64
}

// DefaultThreshold and DefaultWindow are the repo-wide convergence
// parameters (distclass.WithTolerance / RunUntilConverged defaults).
const (
	DefaultThreshold = 1e-3
	DefaultWindow    = 3
)

// New builds a detector. Non-positive threshold or window select the
// defaults (1e-3, 3); replay.Options relies on this rule.
func New(threshold float64, window int) *Detector {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &Detector{threshold: threshold, window: window, convergedRound: -1, firstStable: -1}
}

// Threshold returns the detection threshold in use.
func (d *Detector) Threshold() float64 { return d.threshold }

// Window returns the consecutive-sample window in use.
func (d *Detector) Window() int { return d.window }

// Observe consumes the next spread sample and reports whether the run
// has (ever) converged. round labels the sample for ConvergedRound and
// FirstStableRound; round-less streams (live deployments) pass -1.
func (d *Detector) Observe(round int, value float64) bool {
	d.samples++
	d.lastValue = value
	if d.samples == 1 || value < d.minValue {
		d.minValue = value
	}
	if value < d.threshold {
		d.stable++
		if d.firstStable == -1 {
			d.firstStable = round
		}
		if d.stable >= d.window && !d.converged {
			d.converged = true
			d.convergedRound = round
		}
	} else {
		if d.converged {
			d.divergent++
		}
		d.stable = 0
		d.firstStable = -1
	}
	return d.converged
}

// Converged reports whether Window consecutive samples have fallen
// below Threshold at any point.
func (d *Detector) Converged() bool { return d.converged }

// ConvergedRound returns the round of the sample that completed the
// stable window (-1 when the run has not converged). Rounds are
// 0-based: an online run that stopped after R rounds converged at
// round R-1.
func (d *Detector) ConvergedRound() int { return d.convergedRound }

// RoundsToConverge returns ConvergedRound+1 — directly comparable to
// the round count RunUntilConverged returns. 0 when not converged.
func (d *Detector) RoundsToConverge() int {
	if !d.converged {
		return 0
	}
	return d.convergedRound + 1
}

// FirstStableRound returns the round of the first sample after which
// no sample has reached Threshold again (-1 when the latest sample is
// still at or above it, or no sample arrived yet).
func (d *Detector) FirstStableRound() int { return d.firstStable }

// DivergentSamples counts samples at or above the threshold observed
// after convergence — the post-convergence divergence anomaly.
func (d *Detector) DivergentSamples() int { return d.divergent }

// Samples returns the number of samples observed.
func (d *Detector) Samples() int { return d.samples }

// LastValue returns the most recent sample (0 before any sample).
func (d *Detector) LastValue() float64 { return d.lastValue }

// MinValue returns the smallest sample seen (0 before any sample).
func (d *Detector) MinValue() float64 { return d.minValue }
