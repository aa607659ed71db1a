// Frame-batching and version-rejection tests: coalesced writers must
// preserve the delivery, causal-identity and weight-conservation
// contracts of unbatched frames, and a payload in an unknown format
// version must down exactly one link.
package livenet

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"distclass/internal/metrics"
	"distclass/internal/topology"
	"distclass/internal/trace"
	"distclass/internal/wire"
)

// TestBatchRoundTrip freezes the receiver so the sender's queue fills,
// then thaws it: the writer must coalesce the backlog into batch
// frames, and every logical message must still arrive with its weight.
func TestBatchRoundTrip(t *testing.T) {
	for _, codec := range wire.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			g, err := topology.Full(2)
			if err != nil {
				t.Fatalf("Full: %v", err)
			}
			h := &testHandler{gate: make(chan struct{})}
			n, err := StartNet(g, NetConfig{Handler: h, Codec: codec, FrameBatch: 4, SendQueue: 8})
			if err != nil {
				t.Fatalf("StartNet: %v", err)
			}
			defer n.Stop()

			const messages = 6
			const weight = 0.25
			for i := 0; i < messages; i++ {
				if !n.Send(0, 1, false, testClassification(t, weight)) {
					t.Fatalf("send %d refused", i)
				}
			}
			close(h.gate)
			deadline := time.After(5 * time.Second)
			for h.dataCount() < messages {
				select {
				case <-deadline:
					t.Fatalf("delivered %d of %d messages", h.dataCount(), messages)
				case <-time.After(time.Millisecond):
				}
			}
			if got, want := h.deliveredWeight(), weight*messages; math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("delivered weight = %v, want %v", got, want)
			}
			if n.MessagesSent() != messages {
				t.Errorf("MessagesSent = %d, want %d logical messages", n.MessagesSent(), messages)
			}
			if n.MessagesReceived() != messages {
				t.Errorf("MessagesReceived = %d, want %d", n.MessagesReceived(), messages)
			}
			// The receiver was frozen mid-first-frame, so the backlog must
			// have coalesced: strictly fewer physical frames than messages.
			if f := n.FramesSent(); f >= messages || f < 1 {
				t.Errorf("FramesSent = %d, want in [1, %d) with batching", f, messages)
			}
			if n.BytesSent() <= 0 {
				t.Errorf("BytesSent = %d, want positive", n.BytesSent())
			}
			if n.hBatch.Count() != n.FramesSent() {
				t.Errorf("frames_per_batch histogram count %d out of step with FramesSent %d", n.hBatch.Count(), n.FramesSent())
			}
			if err := n.Err(); err != nil {
				t.Errorf("Err = %v", err)
			}
		})
	}
}

// TestBatchCausalRoundTrip checks that causal identity survives
// batching bit-for-bit: every batched message keeps its own sequence
// number, Lamport clock and exact weight stamp, so the provenance
// ledger cannot tell batched and unbatched traffic apart.
func TestBatchCausalRoundTrip(t *testing.T) {
	g, err := topology.Full(2)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	var buf bytes.Buffer
	rec := trace.NewRecorder(&buf)
	h := &testHandler{gate: make(chan struct{})}
	n, err := StartNet(g, NetConfig{
		Handler: h, Codec: wire.CodecV2, FrameBatch: 4, SendQueue: 8,
		Trace: rec, Causal: true,
	})
	if err != nil {
		t.Fatalf("StartNet: %v", err)
	}

	const messages = 5
	weights := []float64{0.5, 0.25, 0.125, 0.75, 1.5} // exactly representable
	for i := 0; i < messages; i++ {
		if !n.Send(0, 1, false, testClassification(t, weights[i])) {
			t.Fatalf("send %d refused", i)
		}
	}
	close(h.gate)
	deadline := time.After(5 * time.Second)
	for h.dataCount() < messages {
		select {
		case <-deadline:
			t.Fatalf("delivered %d of %d messages", h.dataCount(), messages)
		case <-time.After(time.Millisecond):
		}
	}
	n.Stop()

	events, err := trace.Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	sends := map[uint64]trace.Event{}
	recvs := map[uint64]trace.Event{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindSend:
			sends[e.Seq] = e
		case trace.KindReceive:
			recvs[e.Seq] = e
		}
	}
	if len(sends) != messages || len(recvs) != messages {
		t.Fatalf("got %d sends and %d receives, want %d each", len(sends), len(recvs), messages)
	}
	for seq, s := range sends {
		r, ok := recvs[seq]
		if !ok {
			t.Errorf("send seq %d has no matching receive", seq)
			continue
		}
		if math.Float64bits(r.Weight) != math.Float64bits(s.Weight) {
			t.Errorf("seq %d: weight %v received as %v (not bit-exact)", seq, s.Weight, r.Weight)
		}
		if r.Clock <= s.Clock {
			t.Errorf("seq %d: receive clock %d not after send clock %d", seq, r.Clock, s.Clock)
		}
		if r.Peer != 0 || s.Peer != 1 {
			t.Errorf("seq %d: peer stamps send %d receive %d", seq, s.Peer, r.Peer)
		}
	}
}

// TestVersionInteropDownsOnlyLink writes one data frame whose payload
// carries an unknown format version onto the 0->1 link. It must
// produce exactly one attributed decode error and down that link
// alone: a peer speaking another format will keep speaking it, while
// the rest of the net keeps running.
func TestVersionInteropDownsOnlyLink(t *testing.T) {
	g, err := topology.Full(3)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	h := &testHandler{}
	n, err := StartNet(g, NetConfig{Handler: h})
	if err != nil {
		t.Fatalf("StartNet: %v", err)
	}
	defer n.Stop()

	payload, err := wire.MarshalClassificationCodec(testClassification(t, 0.5), wire.CodecV2)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	payload[0] = wire.VersionV2 + 1
	if err := writeFrame(n.peers[0].findLink(1).conn, append([]byte{frameKindData}, payload...)); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	attributed := n.reg.Counter(fmt.Sprintf("livenet.node.%d.decode_errors.from.%d", 1, 0))
	deadline := time.After(5 * time.Second)
	for attributed.Value() < 1 {
		select {
		case <-deadline:
			t.Fatalf("unknown version produced no attributed decode error")
		case <-time.After(time.Millisecond):
		}
	}
	// Only the 1<-0 link goes down; give the downing a moment to land.
	for hasPeer(n, 1, 0) {
		select {
		case <-deadline:
			t.Fatalf("link 1<-0 still up after an unknown version")
		case <-time.After(time.Millisecond):
		}
	}
	if !hasPeer(n, 1, 2) || !hasPeer(n, 2, 1) || !hasPeer(n, 2, 0) {
		t.Errorf("unknown version on 0->1 downed unrelated links: peers(1)=%v peers(2)=%v", n.Peers(1), n.Peers(2))
	}
	if got := attributed.Value(); got != 1 {
		t.Errorf("attributed decode errors = %d, want exactly 1", got)
	}
	if h.dataCount() != 0 {
		t.Errorf("undecodable frame was delivered %d times", h.dataCount())
	}
	if err := n.Err(); err != nil {
		t.Errorf("unknown version must stay non-fatal, Err = %v", err)
	}
	if got := n.DecodeErrors(); got != 1 {
		t.Errorf("DecodeErrors = %d, want 1", got)
	}
}

func hasPeer(n *Net, node, neighbor int) bool {
	for _, p := range n.Peers(node) {
		if p == neighbor {
			return true
		}
	}
	return false
}

// failAfterConn is a net.Conn whose Write succeeds a fixed number of
// times and then fails — a connection dying between frames. Only the
// writer side is exercised; reads are never issued by these tests.
type failAfterConn struct {
	writesLeft int
	wrote      [][]byte
}

func (c *failAfterConn) Write(p []byte) (int, error) {
	if c.writesLeft <= 0 {
		return 0, fmt.Errorf("conn dead")
	}
	c.writesLeft--
	c.wrote = append(c.wrote, append([]byte(nil), p...))
	return len(p), nil
}

func (c *failAfterConn) Read([]byte) (int, error)         { return 0, fmt.Errorf("no reads") }
func (c *failAfterConn) Close() error                     { return nil }
func (c *failAfterConn) LocalAddr() net.Addr              { return nil }
func (c *failAfterConn) RemoteAddr() net.Addr             { return nil }
func (c *failAfterConn) SetDeadline(time.Time) error      { return nil }
func (c *failAfterConn) SetReadDeadline(time.Time) error  { return nil }
func (c *failAfterConn) SetWriteDeadline(time.Time) error { return nil }

// writerHarness hand-builds the slice of a Net the writer path touches,
// so writeFrames can be driven deterministically against a conn that
// dies mid-run — no goroutines, no races.
func writerHarness(h Handler, frameBatch int, conn net.Conn) (*Net, *peer, *link) {
	reg := metrics.NewRegistry()
	n := &Net{
		cfg:        NetConfig{Handler: h, FrameBatch: frameBatch}.withDefaults(),
		reg:        reg,
		sent:       reg.Counter("livenet.sent"),
		recv:       reg.Counter("livenet.received"),
		decErr:     reg.Counter("livenet.decode_errors"),
		drops:      reg.Counter("livenet.send_drops"),
		bytesSent:  reg.Counter("livenet.bytes_sent"),
		framesSent: reg.Counter("livenet.frames_sent"),
		linksDown:  reg.Gauge("livenet.links_down"),
		hSend:      reg.MustHistogram("livenet.send_seconds", LatencyBuckets()),
		hAbsorb:    reg.MustHistogram("livenet.absorb_seconds", LatencyBuckets()),
		hBatch:     reg.MustHistogram("livenet.frames_per_batch", metrics.ExponentialBuckets(1, 2, 7)),
	}
	p := &peer{
		id:        0,
		sent:      reg.Counter("livenet.node.0.sent"),
		recv:      reg.Counter("livenet.node.0.received"),
		decErr:    reg.Counter("livenet.node.0.decode_errors"),
		drops:     reg.Counter("livenet.node.0.send_drops"),
		bytesSent: reg.Counter("livenet.node.0.bytes_sent"),
		lastRecv:  reg.Gauge("livenet.node.0.last_receive_seq"),
	}
	l := newLink(1, conn, n.cfg.SendQueue)
	return n, p, l
}

// dataFrame builds a queued outbound data frame the way Send does.
func dataFrame(t testing.TB, weight float64) outFrame {
	return dataFrameCodec(t, weight, wire.CodecV2)
}

func dataFrameCodec(t testing.TB, weight float64, codec wire.Codec) outFrame {
	t.Helper()
	cls := testClassification(t, weight)
	payload, err := wire.MarshalClassificationCodec(cls, codec)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	data := make([]byte, 1+len(payload))
	data[0] = frameKindData
	copy(data[1:], payload)
	return outFrame{data: data, cls: cls}
}

// TestTornBatchReabsorbedExactly pins the torn-batch contract: when the
// batch write itself fails, every message in it returns to the sender
// through Undeliverable — the weight ledger balances exactly, and
// nothing is half-kept.
func TestTornBatchReabsorbedExactly(t *testing.T) {
	h := &testHandler{}
	conn := &failAfterConn{writesLeft: 0} // dies on the very first write
	n, p, l := writerHarness(h, 4, conn)

	weights := []float64{0.5, 0.25, 0.125, 1.0}
	var frames []outFrame
	for _, w := range weights {
		f := dataFrame(t, w)
		l.pending.Add(1)
		frames = append(frames, f)
	}
	if n.writeFrames(p, l, frames) {
		t.Fatalf("writeFrames reported success on a dead conn")
	}
	var want float64
	for _, w := range weights {
		want += w
	}
	if got := h.returnedWeight(); got != want {
		t.Errorf("returned weight = %v, want the whole batch %v", got, want)
	}
	if got := len(h.returned); got != len(weights) {
		t.Errorf("returned %d messages, want %d", got, len(weights))
	}
	if l.pending.Load() != 0 {
		t.Errorf("pending = %d after abort, want 0", l.pending.Load())
	}
	if !l.down.Load() {
		t.Errorf("link not downed after a write error")
	}
	if n.sent.Value() != 0 || n.framesSent.Value() != 0 {
		t.Errorf("accounting counted torn traffic: sent=%d frames=%d", n.sent.Value(), n.framesSent.Value())
	}
	if err := n.Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
}

// TestTornRunMidwayReturnsRemainder covers the partial case: the first
// batch lands, the connection dies on the next write, and everything
// not yet on the wire — including frames already dequeued into the
// writer's run, which returnQueue can no longer see — is re-absorbed.
func TestTornRunMidwayReturnsRemainder(t *testing.T) {
	h := &testHandler{}
	conn := &failAfterConn{writesLeft: 1} // first write lands, second dies
	n, p, l := writerHarness(h, 8, conn)

	// data, data | pull | data, data — the pull forces a second write,
	// which is where the conn dies.
	var frames []outFrame
	weights := []float64{0.5, 0.25}
	for _, w := range weights {
		f := dataFrame(t, w)
		l.pending.Add(1)
		frames = append(frames, f)
	}
	pull := outFrame{data: []byte{frameKindPull}}
	l.pending.Add(1)
	frames = append(frames, pull)
	tailWeights := []float64{0.125, 1.0}
	for _, w := range tailWeights {
		f := dataFrame(t, w)
		l.pending.Add(1)
		frames = append(frames, f)
	}

	if n.writeFrames(p, l, frames) {
		t.Fatalf("writeFrames reported success across a dying conn")
	}
	if len(conn.wrote) != 1 {
		t.Fatalf("conn saw %d writes, want 1 (the leading batch)", len(conn.wrote))
	}
	if conn.wrote[0][4] != frameKindBatch {
		t.Errorf("first write kind = %d, want a batch frame", conn.wrote[0][4])
	}
	var want float64
	for _, w := range tailWeights {
		want += w
	}
	if got := h.returnedWeight(); got != want {
		t.Errorf("returned weight = %v, want the unwritten tail %v", got, want)
	}
	if l.pending.Load() != 0 {
		t.Errorf("pending = %d after abort, want 0", l.pending.Load())
	}
	if n.sent.Value() != int64(len(weights)) {
		t.Errorf("sent = %d, want %d (the batch that landed)", n.sent.Value(), len(weights))
	}
	if n.framesSent.Value() != 1 {
		t.Errorf("framesSent = %d, want 1", n.framesSent.Value())
	}
}

// discardConn is a writer-side sink for benchmarks: infallible writes,
// byte accounting only.
type discardConn struct{ bytes int64 }

func (c *discardConn) Write(p []byte) (int, error)      { c.bytes += int64(len(p)); return len(p), nil }
func (c *discardConn) Read([]byte) (int, error)         { return 0, fmt.Errorf("no reads") }
func (c *discardConn) Close() error                     { return nil }
func (c *discardConn) LocalAddr() net.Addr              { return nil }
func (c *discardConn) RemoteAddr() net.Addr             { return nil }
func (c *discardConn) SetDeadline(time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(time.Time) error { return nil }

// benchmarkWriter drives the writer path over a run of 16 queued
// messages per op — unbatched (one frame each) or coalesced into batch
// frames — and reports the wire bytes each message costs.
func benchmarkWriter(b *testing.B, codec wire.Codec, batch bool) {
	h := &testHandler{}
	conn := &discardConn{}
	frameBatch := 1
	if batch {
		frameBatch = 16
	}
	n, p, l := writerHarness(h, frameBatch, conn)
	const run = 16
	template := dataFrameCodec(b, 0.5, codec)
	frames := make([]outFrame, run)
	for i := range frames {
		frames[i] = template
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.pending.Add(run)
		if batch {
			if !n.writeFrames(p, l, frames) {
				b.Fatal("writeFrames failed")
			}
		} else {
			for _, f := range frames {
				if !n.writeOne(p, l, f) {
					b.Fatal("writeOne failed")
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(conn.bytes)/float64(b.N*run), "wire_bytes/msg")
}

func BenchmarkWriterV2Batch16(b *testing.B)      { benchmarkWriter(b, wire.CodecV2, true) }
func BenchmarkWriterV2F32Unbatched(b *testing.B) { benchmarkWriter(b, wire.CodecV2F32, false) }
func BenchmarkWriterV2F32Batch16(b *testing.B)   { benchmarkWriter(b, wire.CodecV2F32, true) }
