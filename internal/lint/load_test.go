package lint

import (
	"reflect"
	"testing"
)

// TestModulePatterns pins how root-relative patterns split across the
// root module and the modules nested below it.
func TestModulePatterns(t *testing.T) {
	mods := []string{"cmd/bench", "cmd/bench/sub", "x"}
	for _, tc := range []struct {
		patterns []string
		mod      string
		want     []string
	}{
		{[]string{"./..."}, ".", []string{"./..."}},
		{[]string{"./..."}, "cmd/bench", []string{"./..."}},
		{[]string{"./..."}, "x", []string{"./..."}},
		{[]string{"cmd/..."}, ".", []string{"./cmd/..."}},
		{[]string{"cmd/..."}, "cmd/bench/sub", []string{"./..."}},
		{[]string{"cmd/..."}, "x", nil},
		{[]string{"./cmd/bench"}, ".", nil},
		{[]string{"./cmd/bench"}, "cmd/bench", []string{"./."}},
		{[]string{"cmd/bench/sub/p/..."}, "cmd/bench/sub", []string{"./p/..."}},
		{[]string{"cmd/bench/sub/p/..."}, "cmd/bench", nil},
		{[]string{"internal/core", "x/y"}, ".", []string{"./internal/core"}},
		{[]string{"internal/core", "x/y"}, "x", []string{"./y"}},
	} {
		if got := modulePatterns(tc.mod, mods, tc.patterns); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("modulePatterns(%q, %q) = %q, want %q", tc.mod, tc.patterns, got, tc.want)
		}
	}
}
