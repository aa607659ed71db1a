package core

// Node is a stand-in for the protocol node.
type Node struct{ id int }

// NewNode builds a node; outside internal/core only internal/engine
// may call it from non-test code (layering).
func NewNode(id int) *Node { return &Node{id: id} }
