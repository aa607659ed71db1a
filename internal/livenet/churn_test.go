package livenet

import (
	"testing"
	"time"

	"distclass/internal/core"
	"distclass/internal/metrics"
	"distclass/internal/topology"
)

// TestKillRestartLinkBookkeeping walks a node through death and
// recovery and checks the transport's books: the node's alive gauge
// reads 1 → 0 → 1, the dead node disappears from its neighbors' peer
// sets, surviving endpoints are counted on the links_down gauge until
// Restart retires them, and the revived node's fresh links carry frames
// again.
func TestKillRestartLinkBookkeeping(t *testing.T) {
	const n = 3
	g, err := topology.Full(n)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	reg := metrics.NewRegistry()
	h := &testHandler{}
	net, err := StartNet(g, NetConfig{Handler: h, Metrics: reg})
	if err != nil {
		t.Fatalf("StartNet: %v", err)
	}
	defer net.Stop()
	aliveG := reg.Gauge("livenet.node.1.alive")
	if got := aliveG.Value(); got != 1 {
		t.Errorf("alive gauge at start = %v, want 1", got)
	}

	if err := net.Kill(1); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if net.Alive(1) {
		t.Errorf("Alive(1) after Kill")
	}
	if got := aliveG.Value(); got != 0 {
		t.Errorf("alive gauge after Kill = %v, want 0", got)
	}
	// Double-kill and bad indices are errors, not panics.
	if err := net.Kill(1); err == nil {
		t.Errorf("killing a dead node succeeded")
	}
	if err := net.Kill(-1); err == nil {
		t.Errorf("Kill(-1) succeeded")
	}
	if err := net.Restart(0); err == nil {
		t.Errorf("restarting an alive node succeeded")
	}
	// The dead node's own links are retired synchronously; its neighbors
	// notice their dead endpoints asynchronously (their receive loops
	// observe the closed conns), so poll.
	deadline := time.After(5 * time.Second)
	for reg.Gauge("livenet.links_down").Value() != float64(n-1) {
		select {
		case <-deadline:
			t.Fatalf("links_down after Kill = %v, want %d (one endpoint per surviving neighbor)",
				reg.Gauge("livenet.links_down").Value(), n-1)
		case <-time.After(time.Millisecond):
		}
	}
	for _, p := range net.Peers(0) {
		if p == 1 {
			t.Errorf("Peers(0) still lists the dead node: %v", net.Peers(0))
		}
	}
	if net.Send(0, 1, false, testClassification(t, 0.5)) {
		t.Errorf("send to a dead node succeeded")
	}

	if err := net.Restart(1); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if !net.Alive(1) {
		t.Errorf("Alive(1) false after Restart")
	}
	if got := aliveG.Value(); got != 1 {
		t.Errorf("alive gauge after Restart = %v, want 1", got)
	}
	if got := reg.Gauge("livenet.links_down").Value(); got != 0 {
		t.Errorf("links_down after Restart = %v, want 0 (dead endpoints retired)", got)
	}
	found := false
	for _, p := range net.Peers(0) {
		if p == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("Peers(0) missing the restarted node: %v", net.Peers(0))
	}
	// The fresh links carry frames again.
	if !net.Send(0, 1, false, testClassification(t, 0.5)) {
		t.Fatalf("send to the restarted node refused")
	}
	for h.dataCount() == 0 {
		select {
		case <-deadline:
			t.Fatalf("restarted node never received a frame")
		case <-time.After(time.Millisecond):
		}
	}
	if err := net.Err(); err != nil {
		t.Errorf("Err after churn: %v", err)
	}
}

// TestKillReturnsQueuedWeight pins the conservation half of the churn
// contract: when a node dies with frames still queued on its links,
// every queued classification comes back through Undeliverable — only a
// frame torn mid-write may be destroyed, and on synchronous pipes the
// receiver holds that frame whole, so nothing is lost at all.
func TestKillReturnsQueuedWeight(t *testing.T) {
	g, err := topology.Full(2)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	h := &testHandler{gate: make(chan struct{})}
	net, err := StartNet(g, NetConfig{Handler: h, SendQueue: 4})
	if err != nil {
		t.Fatalf("StartNet: %v", err)
	}
	defer net.Stop()

	accepted := 0
	deadline := time.After(5 * time.Second)
	for net.Send(0, 1, false, testClassification(t, 0.5)) {
		accepted++
		select {
		case <-deadline:
			t.Fatalf("queue to a frozen receiver never filled (%d accepted)", accepted)
		default:
		}
	}
	// Node 0 dies holding queued frames. Its writer's in-flight write is
	// unblocked by the closing conn; everything still queued is handed
	// back. Node 1's receiver stays frozen on the first frame — Kill(0)
	// must not wait on it.
	if err := net.Kill(0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	close(h.gate)
	want := 0.5 * float64(accepted)
	for h.deliveredWeight()+h.returnedWeight() < want {
		select {
		case <-deadline:
			t.Fatalf("delivered %v + returned %v < sent %v: queued weight destroyed by Kill",
				h.deliveredWeight(), h.returnedWeight(), want)
		case <-time.After(time.Millisecond):
		}
	}
	if got := h.deliveredWeight() + h.returnedWeight(); got != want {
		t.Errorf("delivered+returned = %v, want exactly %v", got, want)
	}
	h.mu.Lock()
	for _, r := range h.returned {
		if r.owner != 0 {
			t.Errorf("returned frame attributed to node %d, want 0", r.owner)
		}
	}
	h.mu.Unlock()
}

// TestStalledPeerDoesNotWedgeOtherLinks freezes deliveries to one node
// and checks per-link isolation: the queue to the frozen node fills and
// refuses sends, while an unrelated link on the same net keeps carrying
// frames. Under the old design the first full pipe wedged its sender
// forever.
func TestStalledPeerDoesNotWedgeOtherLinks(t *testing.T) {
	const n = 3
	g, err := topology.Full(n)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	h := &gatedDstHandler{inner: &testHandler{}, blockDst: 2, gate: make(chan struct{})}
	net, err := StartNet(g, NetConfig{Handler: h, SendQueue: 2})
	if err != nil {
		t.Fatalf("StartNet: %v", err)
	}
	defer func() {
		close(h.gate)
		net.Stop()
	}()

	// Fill the 0→2 queue until backpressure refuses the send.
	deadline := time.After(5 * time.Second)
	for net.Send(0, 2, false, testClassification(t, 0.5)) {
		select {
		case <-deadline:
			t.Fatalf("queue to the frozen node never overflowed")
		default:
		}
	}
	net.NoteDrop(0)
	if net.SendDrops() == 0 {
		t.Fatalf("drop not counted")
	}
	// The 0→1 link is demonstrably not wedged: 20 more frames flow end
	// to end while the 0→2 queue stays refused.
	for i := 0; i < 20; i++ {
		for !net.Send(0, 1, false, testClassification(t, 0.5)) {
			select {
			case <-deadline:
				t.Fatalf("healthy link refused a send after %d frames", i)
			case <-time.After(time.Millisecond):
			}
		}
	}
	for h.inner.dataCount() < 20 {
		select {
		case <-deadline:
			t.Fatalf("healthy link delivered only %d of 20 frames", h.inner.dataCount())
		case <-time.After(time.Millisecond):
		}
	}
	if err := net.Err(); err != nil {
		t.Fatalf("a stalled peer failed the net: %v", err)
	}
}

// gatedDstHandler freezes deliveries to one destination node and passes
// everything else through.
type gatedDstHandler struct {
	inner    *testHandler
	blockDst int
	gate     chan struct{}
}

func (h *gatedDstHandler) Deliver(dst, src int, pull bool, cls core.Classification) error {
	if dst == h.blockDst {
		<-h.gate
	}
	return h.inner.Deliver(dst, src, pull, cls)
}

func (h *gatedDstHandler) Undeliverable(owner int, cls core.Classification) error {
	return h.inner.Undeliverable(owner, cls)
}
