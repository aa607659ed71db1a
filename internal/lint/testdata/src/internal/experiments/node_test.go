package experiments

import (
	"testing"

	"fixmod/internal/core"
)

// A test may build a node for a white-box driver check: not a finding.
func TestNode(t *testing.T) {
	if core.NewNode(1) == nil {
		t.Fatal("nil node")
	}
}
