//go:build !race

package gm

// raceEnabled mirrors the race build tag. Under the race detector
// sync.Pool drops a share of its Puts on purpose, so a pooled component
// view or reducer is sometimes rebuilt and allocation counts read high.
const raceEnabled = false
