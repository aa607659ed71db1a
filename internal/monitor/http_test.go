package monitor

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"distclass/internal/trace"
)

func monitoredRun() *Monitor {
	m := New()
	m.SetDetection(0.1, 2)
	m.Record(trace.RunHeader("round"))
	m.SetExpectedWeight(2)
	for r := 0; r < 4; r++ {
		m.Record(trace.Event{Round: r, Node: 0, Kind: trace.KindSend, Value: 1})
		m.Record(trace.Event{Round: r, Node: 1, Kind: trace.KindReceive, Value: 1})
		m.Record(trace.Event{Round: r, Node: -1, Kind: trace.KindSpread, Value: 0.5 / float64(r+1) / 4})
		m.ObserveWeight(2)
	}
	return m
}

func get(t *testing.T, mux *http.ServeMux, url string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func TestStatusEndpointDeterministic(t *testing.T) {
	bodies := make([][]byte, 2)
	for i := range bodies {
		mux := http.NewServeMux()
		monitoredRun().Attach(mux)
		rec := get(t, mux, "/status")
		if rec.Code != http.StatusOK {
			t.Fatalf("/status = %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("/status content type %q", ct)
		}
		bodies[i] = rec.Body.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("/status not byte-deterministic across identical runs:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
	for _, want := range []string{`"backend": "round"`, `"health": "converged"`, `"converged": true`, `"exact": true`} {
		if !strings.Contains(string(bodies[0]), want) {
			t.Errorf("/status body missing %s", want)
		}
	}
}

func TestHealthEndpoint(t *testing.T) {
	mux := http.NewServeMux()
	m := New()
	m.SetDetection(0.1, 2)
	m.Attach(mux)
	if rec := get(t, mux, "/health"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/health before convergence = %d, want 503", rec.Code)
	}
	feedSpread(m, 0.01, 0.01)
	rec := get(t, mux, "/health")
	if rec.Code != http.StatusOK {
		t.Errorf("/health after convergence = %d, want 200", rec.Code)
	}
	if got := strings.TrimSpace(rec.Body.String()); got != `{"health":"converged"}` {
		t.Errorf("/health body = %s", got)
	}
}

func TestEventsEndpoint(t *testing.T) {
	mux := http.NewServeMux()
	monitoredRun().Attach(mux)

	rec := get(t, mux, "/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("/events = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/events content type %q", ct)
	}
	events, err := trace.Read(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("/events body is not valid JSONL: %v", err)
	}
	if len(events) != 13 { // header + 4×(send, receive, spread)
		t.Errorf("/events returned %d events, want 13", len(events))
	}

	rec = get(t, mux, "/events?kind=spread&n=2")
	events, err = trace.Read(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("filtered /events not valid JSONL: %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("filtered /events returned %d events, want 2", len(events))
	}
	for _, e := range events {
		if e.Kind != trace.KindSpread {
			t.Errorf("kind filter passed %q", e.Kind)
		}
	}
	if events[0].Round != 2 || events[1].Round != 3 {
		t.Errorf("tail rounds %d,%d, want 2,3", events[0].Round, events[1].Round)
	}

	if rec := get(t, mux, "/events?n=frogs"); rec.Code != http.StatusBadRequest {
		t.Errorf("/events?n=frogs = %d, want 400", rec.Code)
	}
}

// TestEventsEndpointRingOverflow fills a minimum-size ring past
// capacity and checks /events serves only the newest events, oldest
// first — the eviction order must be visible over HTTP exactly as the
// ring holds it.
func TestEventsEndpointRingOverflow(t *testing.T) {
	m := New()
	const total = eventBuffer + 24
	for i := 0; i < total; i++ {
		m.Record(trace.Event{Round: i, Node: 0, Kind: trace.KindSend, Value: float64(i)})
	}
	mux := http.NewServeMux()
	m.Attach(mux)

	// n=0 means "everything buffered", which after overflow is the ring
	// size, not the record count.
	rec := get(t, mux, "/events?n=0")
	events, err := trace.Read(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("/events body: %v", err)
	}
	if len(events) != eventBuffer {
		t.Fatalf("overflowed ring served %d events, want %d", len(events), eventBuffer)
	}
	for i, e := range events {
		if want := total - eventBuffer + i; e.Round != want {
			t.Errorf("events[%d].Round = %d, want %d (oldest evicted, order kept)", i, e.Round, want)
		}
	}

	// n beyond the buffered count is not an error; it serves what exists.
	rec = get(t, mux, "/events?n="+strconv.Itoa(2*eventBuffer))
	if rec.Code != http.StatusOK {
		t.Fatalf("/events?n=%d = %d", 2*eventBuffer, rec.Code)
	}
	if events, _ := trace.Read(strings.NewReader(rec.Body.String())); len(events) != eventBuffer {
		t.Errorf("n>buffered served %d events, want %d", len(events), eventBuffer)
	}
}

// TestEventsEndpointUnknownKind: filtering by a kind the run never
// produced (or that does not exist at all) is a valid query with an
// empty result, not an error.
func TestEventsEndpointUnknownKind(t *testing.T) {
	mux := http.NewServeMux()
	monitoredRun().Attach(mux)
	for _, url := range []string{"/events?kind=frogs", "/events?kind=crash"} {
		rec := get(t, mux, url)
		if rec.Code != http.StatusOK {
			t.Errorf("%s = %d, want 200", url, rec.Code)
		}
		if body := strings.TrimSpace(rec.Body.String()); body != "" {
			t.Errorf("%s body = %q, want empty", url, body)
		}
	}
	// A kind list mixing unknown and known entries (with stray spaces)
	// passes exactly the known kind's events.
	rec := get(t, mux, "/events?kind=frogs,%20spread%20")
	events, err := trace.Read(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("mixed kind filter body: %v", err)
	}
	if len(events) != 4 {
		t.Fatalf("mixed kind filter served %d events, want 4", len(events))
	}
	for _, e := range events {
		if e.Kind != trace.KindSpread {
			t.Errorf("mixed kind filter passed %q", e.Kind)
		}
	}
}

// TestEventsEndpointBadN pins the 400 contract on every malformed or
// out-of-domain n.
func TestEventsEndpointBadN(t *testing.T) {
	mux := http.NewServeMux()
	monitoredRun().Attach(mux)
	for _, url := range []string{"/events?n=-1", "/events?n=1.5", "/events?n=", "/events?n=0x10"} {
		rec := get(t, mux, url)
		want := http.StatusBadRequest
		if url == "/events?n=" {
			// An empty n is an absent n: the default tail applies.
			want = http.StatusOK
		}
		if rec.Code != want {
			t.Errorf("%s = %d, want %d", url, rec.Code, want)
		}
	}
}
