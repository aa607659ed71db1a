//go:build !race

package core_test

// raceEnabled mirrors the race build tag. Under the race detector
// sync.Pool drops a share of its Puts on purpose, so a pooled absorb
// scratch is sometimes rebuilt and allocation counts read high.
const raceEnabled = false
