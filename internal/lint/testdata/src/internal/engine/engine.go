// Package engine mirrors the real internal/engine: the one layer that
// may import the concrete drivers (layering true negative). The module-
// local imports are blank because the fixture loader resolves them to
// placeholder packages.
package engine

import (
	_ "fixmod/internal/livenet"
	_ "fixmod/internal/sim"
)

// Run is a stand-in for the shared protocol loop.
func Run() int { return 0 }

// Engine mirrors the real engine's interface: its Spread is the probe
// behind the one convergence rule.
type Engine interface {
	Spread() (float64, error)
}
