package prof

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestPhaseRunsAndPropagates(t *testing.T) {
	ran := false
	Phase("test.phase", func() { ran = true })
	if !ran {
		t.Fatalf("Phase did not run f")
	}
	err := PhaseErr("test.phase", func() error { return os.ErrNotExist })
	if err != os.ErrNotExist {
		t.Fatalf("PhaseErr returned %v, want os.ErrNotExist", err)
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	trc := filepath.Join(dir, "rt.trace")
	stop, err := Start(cpu, mem, trc)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Generate a little work so the profiles are non-trivial.
	sink := 0
	Phase("test.work", func() {
		for i := 0; i < 1e6; i++ {
			sink += i
		}
	})
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, path := range []string{cpu, mem, trc} {
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile missing: %v", err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestStartEmptyIsNoop(t *testing.T) {
	stop, err := Start("", "", "")
	if err != nil {
		t.Fatalf("Start with no outputs: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop with no outputs: %v", err)
	}
}

func TestStartBadPathFails(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.prof"), "", ""); err == nil {
		t.Fatalf("Start accepted an uncreatable cpu profile path")
	}
}

// TestLabelTagsGoroutine checks that Label tags the calling goroutine:
// the goroutine profile lists the label on the labeled goroutine.
func TestLabelTagsGoroutine(t *testing.T) {
	ready, done := make(chan struct{}), make(chan struct{})
	go func() {
		Label("test.label")
		close(ready)
		<-done
	}()
	<-ready
	var buf bytes.Buffer
	err := pprof.Lookup("goroutine").WriteTo(&buf, 1)
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"phase":"test.label"`) {
		t.Errorf("goroutine profile carries no phase=test.label label:\n%s", buf.String())
	}
}
