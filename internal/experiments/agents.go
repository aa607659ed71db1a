// Package experiments reproduces the paper's evaluation (§5.3): the
// Figure 1 association example, the Figure 2 multidimensional
// classification, the Figure 3 outlier-robust average sweep and the
// Figure 4 crash/convergence traces, plus the ablation studies listed in
// DESIGN.md. Each driver builds the datasets, runs the classification
// protocol on internal/engine's round backend (convergence is the
// engine's detector over its one spread probe) and reports the same
// series the paper plots. The push-sum and histogram baselines run on
// the engine's generic round driver through the agents below.
package experiments

import (
	"distclass/internal/aggregate"
	"distclass/internal/engine"
	"distclass/internal/histogram"
)

// PushSumAgent adapts a push-sum averaging node (the paper's "regular
// aggregation" baseline) to the simulator.
type PushSumAgent struct {
	Node *aggregate.Node
}

var _ engine.Agent[aggregate.Message] = (*PushSumAgent)(nil)

// Emit sends half of the node's mass.
func (a *PushSumAgent) Emit() (aggregate.Message, bool) {
	return a.Node.Split(), true
}

// Receive folds in the round's messages.
func (a *PushSumAgent) Receive(batch []aggregate.Message) error {
	return a.Node.Receive(batch)
}

// HistogramAgent adapts a gossip histogram node to the simulator.
type HistogramAgent struct {
	Node *histogram.Node
}

var _ engine.Agent[histogram.Message] = (*HistogramAgent)(nil)

// Emit sends half of the node's bin mass.
func (a *HistogramAgent) Emit() (histogram.Message, bool) {
	return a.Node.Split(), true
}

// Receive folds in the round's messages.
func (a *HistogramAgent) Receive(batch []histogram.Message) error {
	return a.Node.Receive(batch)
}
