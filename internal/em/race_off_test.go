//go:build !race

package em

// raceEnabled mirrors the race build tag. Under the race detector
// sync.Pool drops a share of its Puts on purpose, so a pooled reducer
// is sometimes rebuilt and allocation counts read high.
const raceEnabled = false
