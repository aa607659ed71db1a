package livenet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"distclass/internal/metrics"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/wire"
)

// TestCounterBalance drives frames over a pipe net, stops it, and
// checks the books: on synchronous pipes every fully written frame is
// handed to its receiver, so after quiescence the send and receive
// counters balance (data frames; pulls are sent but not counted as
// receives), per-node sums match aggregates, the latency histograms saw
// every frame, and the trace stream mirrors the counters.
func TestCounterBalance(t *testing.T) {
	const n = 4
	g, err := topology.Full(n)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	reg := metrics.NewRegistry()
	var buf strings.Builder
	rec := trace.NewRecorder(&buf)
	h := &testHandler{}
	net, err := StartNet(g, NetConfig{Handler: h, Metrics: reg, Trace: rec})
	if err != nil {
		t.Fatalf("StartNet: %v", err)
	}

	// Every ordered neighbor pair sends one data frame and one pull.
	var dataSent, pullSent int
	deadline := time.After(10 * time.Second)
	for u := 0; u < n; u++ {
		for r := range g.Degree(u) {
			v := g.Neighbor(u, r)
			for !net.Send(u, v, false, testClassification(t, 0.25)) {
				select {
				case <-deadline:
					t.Fatalf("data send %d->%d refused for 10s", u, v)
				case <-time.After(time.Millisecond):
				}
			}
			dataSent++
			for !net.Send(u, v, true, nil) {
				select {
				case <-deadline:
					t.Fatalf("pull send %d->%d refused for 10s", u, v)
				case <-time.After(time.Millisecond):
				}
			}
			pullSent++
		}
	}
	for h.dataCount() < dataSent || h.pullCount() < pullSent {
		select {
		case <-deadline:
			t.Fatalf("delivered %d/%d data, %d/%d pulls", h.dataCount(), dataSent, h.pullCount(), pullSent)
		case <-time.After(time.Millisecond):
		}
	}
	net.Stop()
	if err := net.Err(); err != nil {
		t.Fatalf("net error: %v", err)
	}

	sent, recv := net.MessagesSent(), net.MessagesReceived()
	if sent != int64(dataSent+pullSent) {
		t.Errorf("MessagesSent = %d, want %d data + %d pulls", sent, dataSent, pullSent)
	}
	if recv != int64(dataSent) {
		t.Errorf("MessagesReceived = %d, want %d (data frames only)", recv, dataSent)
	}
	if net.DecodeErrors() != 0 {
		t.Errorf("decode errors = %d", net.DecodeErrors())
	}
	// Per-node counters sum to the aggregates.
	if got := reg.SumCounters("livenet.node.", ".sent"); got != sent {
		t.Errorf("per-node sent sum = %d, aggregate = %d", got, sent)
	}
	if got := reg.SumCounters("livenet.node.", ".received"); got != recv {
		t.Errorf("per-node received sum = %d, aggregate = %d", got, recv)
	}
	snap := reg.Snapshot()
	// Staleness gauges: each node's last_receive_seq holds the net-wide
	// receive sequence at its latest absorb, so every gauge lies in
	// [1, recv] and the most recently fed node sits exactly at recv.
	var maxSeq float64
	for i := 0; i < n; i++ {
		seq := snap.Gauges[gaugeName(i)]
		if seq < 1 || seq > float64(recv) {
			t.Errorf("node %d last_receive_seq = %v outside [1, %d]", i, seq, recv)
		}
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	if int64(maxSeq) != recv {
		t.Errorf("max last_receive_seq = %v, want %d (the final receive)", maxSeq, recv)
	}
	// Latency histograms observed every frame.
	if hist := snap.Histograms["livenet.send_seconds"]; hist.Count != sent {
		t.Errorf("send histogram count = %d, sent = %d", hist.Count, sent)
	}
	if hist := snap.Histograms["livenet.absorb_seconds"]; hist.Count != recv {
		t.Errorf("absorb histogram count = %d, received = %d", hist.Count, recv)
	}
	// Trace events match the counters.
	events, err := trace.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := trace.CountKind(events, trace.KindSend); int64(got) != sent {
		t.Errorf("send events = %d, sent = %d", got, sent)
	}
	if got := trace.CountKind(events, trace.KindReceive); int64(got) != recv {
		t.Errorf("receive events = %d, received = %d", got, recv)
	}
	for _, e := range events {
		if e.Round != -1 {
			t.Fatalf("transport event carries a round: %+v", e)
		}
		// Receive events carry the decoded collection count (same unit
		// as sim's batch size), never the frame byte length — any wire
		// frame here is far larger than a k-bounded classification.
		if e.Kind == trace.KindReceive && (e.Value < 1 || e.Value > 16 || e.Value != float64(int(e.Value))) {
			t.Fatalf("receive event Value %v is not a small collection count: %+v", e.Value, e)
		}
	}
}

// TestDecodeErrorCounted injects a corrupt frame into a node's
// connection and checks the default semantics: the frame is skipped and
// attributed per peer, the net does NOT fail, and the link keeps
// delivering — a valid frame injected afterwards is still absorbed.
func TestDecodeErrorCounted(t *testing.T) {
	const n = 2
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
	// Write garbage down node 0's side of the link; node 1's receiver
	// fails to decode it, counts it, and moves on.
	conn := net.peers[0].links[0].conn
	if err := writeFrame(conn, []byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for net.DecodeErrors() == 0 {
		select {
		case <-deadline:
			t.Fatalf("decode error never counted (err=%v)", net.Err())
		case <-time.After(time.Millisecond):
		}
	}
	if err := net.Err(); err != nil {
		t.Errorf("decode error failed the net (should be non-fatal by default): %v", err)
	}
	if got := reg.SumCounters("livenet.node.", ".decode_errors"); got != 1 {
		t.Errorf("per-node decode errors = %d, want 1", got)
	}
	// The corrupt frame came down node 0's side of the 0-1 link, so the
	// per-peer attribution counter names node 0 as the sender.
	if got := reg.Counter("livenet.node.1.decode_errors.from.0").Value(); got != 1 {
		t.Errorf("per-peer decode errors from node 0 = %d, want 1", got)
	}
	// The link survived: a valid data frame injected right after the
	// corrupt one still gets decoded and delivered.
	payload, err := wire.MarshalClassificationCodec(testClassification(t, 0.5), wire.CodecV2)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	frame := append([]byte{frameKindData}, payload...)
	if err := writeFrame(conn, frame); err != nil {
		t.Fatalf("writeFrame (valid): %v", err)
	}
	for h.dataCount() == 0 {
		select {
		case <-deadline:
			t.Fatalf("valid frame after decode error never delivered (err=%v)", net.Err())
		case <-time.After(time.Millisecond):
		}
	}
	if !net.Alive(0) || !net.Alive(1) {
		t.Errorf("nodes died over a decode error")
	}
}

// TestDecodeErrorStrictThreshold sets FailOnDecodeErrors and checks
// that reaching the threshold fails the net — the strict mode for runs
// that must not tolerate corruption.
func TestDecodeErrorStrictThreshold(t *testing.T) {
	const n = 2
	g, err := topology.Full(n)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	net, err := StartNet(g, NetConfig{Handler: &testHandler{}, FailOnDecodeErrors: 2})
	if err != nil {
		t.Fatalf("StartNet: %v", err)
	}
	defer net.Stop()
	conn := net.peers[0].links[0].conn
	deadline := time.After(5 * time.Second)
	// First corrupt frame: under the threshold, still non-fatal.
	if err := writeFrame(conn, []byte{0xff}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	for net.DecodeErrors() < 1 {
		select {
		case <-deadline:
			t.Fatalf("first decode error never counted")
		case <-time.After(time.Millisecond):
		}
	}
	if err := net.Err(); err != nil {
		t.Fatalf("net failed below the strict threshold: %v", err)
	}
	// Second corrupt frame reaches the threshold.
	if err := writeFrame(conn, []byte{0xfe}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	for net.Err() == nil {
		select {
		case <-deadline:
			t.Fatalf("strict threshold reached but net never failed (decode errors: %d)",
				net.DecodeErrors())
		case <-time.After(time.Millisecond):
		}
	}
}

// gaugeName is the staleness gauge of node i.
func gaugeName(i int) string {
	return fmt.Sprintf("livenet.node.%d.last_receive_seq", i)
}
