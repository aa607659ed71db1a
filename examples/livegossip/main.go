// Livegossip runs the classification protocol as a real concurrent
// deployment: every sensor is a goroutine, connected to its neighbors
// by duplex links carrying wire-encoded messages — no simulator, no
// rounds, genuine asynchrony, exactly the model the paper assumes
// (§3.1: asynchronous reliable channels). The goroutines gossip until
// the spread stays below the tolerance, the engine's one convergence
// rule, and sensor 0 prints its view.
package main

import (
	"fmt"
	"log"
	"time"

	"distclass"
)

func main() {
	log.SetFlags(0)

	// 40 sensors on a random geometric graph (a radio field), one value
	// each from two environmental regimes.
	values := make([]distclass.Value, 40)
	for i := range values {
		base := 15.0 // cool region
		if i%2 == 1 {
			base = 31 // warm region
		}
		values[i] = distclass.Value{base + float64(i%7)*0.3}
	}

	cluster, err := distclass.StartLive(values, distclass.GaussianMixture(),
		distclass.WithK(2),
		distclass.WithTopology(distclass.TopologyGeometric),
		distclass.WithSeed(7),
		distclass.WithTolerance(0.05),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()

	start := time.Now()
	converged, err := cluster.WaitConverged(500 * time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	spread, err := cluster.Spread()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged=%t after %s: spread=%.4g messages=%d\n",
		converged, time.Since(start).Round(time.Millisecond), spread, cluster.MessagesSent())

	fmt.Println("\nsensor 0's view of the temperature field:")
	for _, c := range cluster.Classification(0) {
		mean, err := distclass.MeanOf(c.Summary)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  regime around %.1f degrees (weight %.2f)\n", mean[0], c.Weight)
	}
}
