package monitor_test

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"distclass/internal/monitor"
	"distclass/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the /status golden file from the replay fixture trace")

// TestStatusGolden streams the committed fixed-seed replay fixture
// (distclass-sim -n 24 -rounds 30 -seed 7) through Monitor.Record and
// compares the /status body byte for byte against the committed
// golden. Run with -update after an intentional output change.
func TestStatusGolden(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "replay", "testdata", "fixture.trace"))
	if err != nil {
		t.Fatalf("open fixture: %v", err)
	}
	defer f.Close()
	m := monitor.New()
	if err := trace.Stream(f, m.Record); err != nil {
		t.Fatalf("stream fixture into monitor: %v", err)
	}
	mux := http.NewServeMux()
	m.Attach(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/status = %d", rec.Code)
	}
	got := rec.Body.Bytes()

	path := filepath.Join("testdata", "fixture.status.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run `go test ./internal/monitor -update` to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/status diverges from %s; run with -update if the change is intentional\ngot:\n%s", path, got)
	}
}
