package experiments

import "fixmod/internal/core"

// Private wires its own node instead of running through the engine.
func Private() *core.Node {
	return core.NewNode(0) // want layering
}
