// Package experiments reproduces the paper's evaluation (§5.3): the
// Figure 1 association example, the Figure 2 multidimensional
// classification, the Figure 3 outlier-robust average sweep and the
// Figure 4 crash/convergence traces, plus the ablation studies listed in
// DESIGN.md. Each driver builds the datasets, wires protocol nodes into
// the simulator and reports the same series the paper plots.
package experiments

import (
	"distclass/internal/aggregate"
	"distclass/internal/core"
	"distclass/internal/engine"
	"distclass/internal/histogram"
)

// ClassifierAgent adapts a generic classification node (Algorithm 1) to
// the simulator. The round driver splits (push mode) and absorbs for
// distinct agents concurrently unless it has a trace sink, so a node
// built with a trace sink must run on a driver given the same sink.
type ClassifierAgent struct {
	Node *core.Node
}

var _ engine.Agent[core.Classification] = (*ClassifierAgent)(nil)

// Emit splits the node's classification and sends one half.
func (a *ClassifierAgent) Emit() (core.Classification, bool) {
	out := a.Node.Split()
	return out, len(out) > 0
}

// Receive absorbs the round's incoming classifications as one batch,
// matching the paper's simulation methodology (§5.3).
func (a *ClassifierAgent) Receive(batch []core.Classification) error {
	return a.Node.Absorb(batch...)
}

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

// ClassificationSize measures a classification message by its number of
// collections (the unit the paper's message-size discussion uses: the
// payload depends only on k and d, never on n).
func ClassificationSize(cl core.Classification) int { return len(cl) }
