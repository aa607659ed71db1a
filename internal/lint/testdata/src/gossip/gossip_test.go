package gossip_test

import (
	"fmt"

	"fixmod/gossip"
)

// PrintPeers is external test code: its own unit, type-checked against
// the test variant of gossip, where the rules apply as anywhere else.
func PrintPeers() {
	for id := range gossip.Peers() {
		fmt.Println(id) // want mapiter
	}
}
