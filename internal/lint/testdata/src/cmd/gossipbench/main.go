// Command gossipbench mirrors the repository's benchmark: a module of
// its own nested under cmd, importing the fixture module through a
// replace directive. The layering rule matches it on its directory
// relative to the lint root.
package main

import _ "fixmod/internal/sim" // want layering

func main() {}
