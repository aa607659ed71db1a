package engine

import (
	"testing"

	"distclass/internal/core"
	"distclass/internal/gm"
	"distclass/internal/vec"
)

func TestClassifierAgentEmitAtQuantum(t *testing.T) {
	// With Q = 0.5 the first split leaves the node at quantum weight;
	// the adapter must then report nothing to send instead of emitting
	// an empty classification.
	node, err := core.NewNode(0, vec.Of(1, 2), nil,
		core.Config{Method: gm.Method{}, K: 2, Q: 0.5})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	agent := &classifierAgent{node: node}
	if msg, ok := agent.Emit(); !ok || len(msg) != 1 {
		t.Fatalf("first Emit = (%v, %v), want one collection", msg, ok)
	}
	if _, ok := agent.Emit(); ok {
		t.Errorf("second Emit at quantum weight should return not-ok")
	}
	if err := agent.Receive(nil); err != nil {
		t.Errorf("Receive(nil): %v", err)
	}
}
