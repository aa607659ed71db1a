package experiments

import (
	"testing"

	"fixmod/internal/core"
	"fixmod/internal/engine"
)

// A test may build a node for a white-box driver check: not a finding.
func TestNode(t *testing.T) {
	if core.NewNode(1) == nil {
		t.Fatal("nil node")
	}
}

// A test may probe the spread for a white-box check: not a finding.
func spreadOf(eng engine.Engine) (float64, error) { return eng.Spread() }
