package experiments

import "fixmod/internal/engine"

// Converged judges convergence on one probe of its own.
func Converged(eng engine.Engine) bool {
	spread, err := eng.Spread() // want layering
	return err == nil && spread < 0.05
}

// gauge has a Spread of its own, not the engine's: not a finding.
type gauge struct{}

func (gauge) Spread() (float64, error) { return 0, nil }

// Level reads a non-engine Spread.
func Level() (float64, error) { return gauge{}.Spread() }
