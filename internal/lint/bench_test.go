package lint

import "testing"

// BenchmarkLoad measures one full lint of the fixture module: Load,
// with its go list run and its type checks against export data, then
// Run with every analyzer.
func BenchmarkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		units, err := Load(fixtureRoot, []string{"./..."})
		if err != nil {
			b.Fatal(err)
		}
		Run(units, All())
	}
}
