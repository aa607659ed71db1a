package lint

import "testing"

// BenchmarkLintModule measures the two operating points of the suite
// over the fixture module: the uncached run, which type-checks every
// directory in turn, and the warm-cache run (the steady state of
// `make lint`, which should be dominated by file hashing, not type
// checking).
func BenchmarkLintModule(b *testing.B) {
	patterns := []string{"./..."}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := LintModule(fixtureRoot, patterns, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm-cache", func(b *testing.B) {
		opts := Options{CacheDir: b.TempDir()}
		if _, err := LintModule(fixtureRoot, patterns, opts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := LintModule(fixtureRoot, patterns, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHits != res.Dirs {
				b.Fatalf("warm run missed the cache: %d of %d", res.CacheHits, res.Dirs)
			}
		}
	})
}
