package gossip

// Peers exposes a peer table to the external tests. Only the package's
// test variant declares it, so only that variant's export data can
// resolve the external package's call.
func Peers() map[int]float64 { return map[int]float64{1: 0.5, 2: 0.25} }
