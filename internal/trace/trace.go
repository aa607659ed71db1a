// Package trace is the event backbone of the observability layer: it
// records structured protocol events as JSON Lines — one JSON object
// per line — so runs can be archived, diffed and post-processed by
// external tools. The simulation drivers, the live deployment and the
// experiments harness all record through the Sink interface; Recorder
// is the standard JSONL sink and is safe for concurrent writers.
package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Kind labels an event. The typed constants below cover the protocol
// and driver events; ad-hoc kinds are allowed for experiment-specific
// probes.
type Kind string

// Typed event kinds.
const (
	// KindSplit: a node split its classification and produced an
	// outgoing half (protocol, Algorithm 1 lines 3-7).
	KindSplit Kind = "split"
	// KindMerge: a node merged a group of collections during absorb
	// (protocol, Algorithm 1 lines 8-11). Value is the group size.
	KindMerge Kind = "merge"
	// KindCrash: the driver killed a node (Figure 4 churn model).
	KindCrash Kind = "crash"
	// KindRecover: the driver brought a node back.
	KindRecover Kind = "recover"
	// KindSend: a driver delivered a send opportunity and a message
	// left the node. One event per logical message (one encoded
	// classification), NOT per wire frame: when the live transport
	// coalesces queued messages into a batch frame, every coalesced
	// message still records its own send event. In live deployments
	// Value, when non-zero, is that message's encoded payload size in
	// bytes — codec-dependent, unchanged by batching (framing overhead
	// is visible only in the livenet.bytes_sent counter).
	KindSend Kind = "send"
	// KindReceive: a node received and absorbed a message batch.
	// Value is the batch size — the number of messages in the inbox
	// batch (sim drivers) or of collections in the decoded message
	// (live deployments, one event per logical message even when the
	// message arrived inside a coalesced batch frame) — never a byte
	// count.
	KindReceive Kind = "receive"
	// KindDecodeError: an incoming frame failed to decode.
	KindDecodeError Kind = "decode-error"
	// KindSendDrop: a live sender dropped a send opportunity at a full
	// outbound queue (slow or dead receiver). The drop happens before
	// the node's state changes, so no weight is lost — it measures
	// backpressure, not damage.
	KindSendDrop Kind = "send-drop"
	// KindSpread: a per-round convergence probe; Value is the sampled
	// maximum pairwise dissimilarity.
	KindSpread Kind = "spread"
	// KindError: a per-round estimation-error probe; Value is the
	// error against ground truth.
	KindError Kind = "error"
	// KindClassification: a node's classification snapshot.
	KindClassification Kind = "classification"
	// KindRunHeader: a run-level header, recorded once before any other
	// event. Node is -1 and Round is -1; Backend names the engine
	// backend that produced the run, so analyzers can compare runs
	// across backends.
	KindRunHeader Kind = "run-header"
)

// Event is one recorded observation.
type Event struct {
	// Round is the simulation round (or step) of the observation; -1
	// for events not tied to a driver round (live deployments, node-
	// internal protocol events).
	Round int `json:"round"`
	// Node is the observed node's id (-1 for network-wide events).
	Node int `json:"node"`
	// Kind labels the event.
	Kind Kind `json:"kind"`
	// Collections summarizes the node's classification at the time.
	Collections []CollectionRecord `json:"collections,omitempty"`
	// Value carries scalar observations (spread, error, batch size,
	// ...). It is always serialized: a scalar observation of 0 (e.g.
	// spread at convergence) is a legitimate reading, not an absence.
	Value float64 `json:"value"`
	// Backend names the engine backend on KindRunHeader events
	// ("round", "async", "pipe", "tcp", "shard"); empty elsewhere.
	Backend string `json:"backend,omitempty"`
	// Schema is the trace schema version, set on KindRunHeader events.
	// Absent (0) means SchemaBase: the original event vocabulary.
	// SchemaCausal runs additionally stamp send/receive events with the
	// causal fields below. New fields are always omitempty so old
	// fixtures and goldens keep parsing — and keep their bytes.
	Schema int `json:"schema,omitempty"`
	// Seq is the per-sender sequence number of a causal data transfer
	// (1-based, assigned by the sending node). A send and its receive
	// carry the same (sender, Seq) pair — that pair is the message's
	// identity. Gaps are legal: a sequence number burned on a refused
	// or dropped send is never reused.
	Seq uint64 `json:"seq,omitempty"`
	// Peer is the other endpoint of a causal transfer: the destination
	// node on send events, the source node on receive events.
	Peer int `json:"peer,omitempty"`
	// Clock is a Lamport timestamp: on send events the sender's clock
	// after ticking for the send; on receive events the receiver's
	// clock after the max(local, message)+1 merge rule. A matched
	// receive therefore always carries a strictly larger Clock than its
	// send.
	Clock uint64 `json:"clock,omitempty"`
	// Weight is the total classification weight the transfer carries
	// (causal send/receive events only) — the quantity the provenance
	// ledger conserves.
	Weight float64 `json:"weight,omitempty"`
}

// Trace schema versions, carried on KindRunHeader events.
const (
	// SchemaBase is the original schema: events identified by
	// Round/Node/Kind/Value only. Traces without a run header (or with
	// Schema 0) are SchemaBase.
	SchemaBase = 1
	// SchemaCausal adds per-message correlation: send and receive
	// events carry Seq/Peer/Clock/Weight, with one receive event per
	// delivered message, so the happens-before DAG can be reconstructed
	// from the stream (see internal/causal).
	SchemaCausal = 2
)

// RunHeader builds the run-level header event for the given backend
// name. Record it first so downstream tools can identify the run's
// substrate before any protocol event arrives.
func RunHeader(backend string) Event {
	return Event{Round: -1, Node: -1, Kind: KindRunHeader, Backend: backend}
}

// CausalRunHeader builds the run-level header for a causal
// (SchemaCausal) trace. Causal traces always begin with this header —
// analyzers refuse streams without it rather than silently matching
// nothing.
func CausalRunHeader(backend string) Event {
	e := RunHeader(backend)
	e.Schema = SchemaCausal
	return e
}

// MergeClock applies the Lamport receive rule to the atomic clock c —
// c = max(c, msg)+1 — and returns the updated value. The concurrent
// transports share it; the single-goroutine sim drivers keep plain
// counters.
func MergeClock(c *atomic.Uint64, msg uint64) uint64 {
	for {
		cur := c.Load()
		next := cur + 1
		if msg >= cur {
			next = msg + 1
		}
		if c.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// CollectionRecord is one collection's snapshot.
type CollectionRecord struct {
	Weight float64   `json:"weight"`
	Mean   []float64 `json:"mean,omitempty"`
	// Summary is the collection's rendered summary, for human reading.
	Summary string `json:"summary"`
}

// Sink consumes events. Implementations must be safe for concurrent
// Record calls: sim drivers are single-goroutine, but livenet nodes
// record from one goroutine per node.
type Sink interface {
	Record(e Event) error
}

// Nop is a Sink that discards every event.
//
//lint:allow globalstate immutable sentinel, assigned only here; the Sink analogue of io.Discard
var Nop Sink = nopSink{}

type nopSink struct{}

func (nopSink) Record(Event) error { return nil }

// Recorder is the standard Sink: it writes events as JSONL. It is safe
// for concurrent writers; an internal mutex serializes encoding, so
// lines never interleave.
type Recorder struct {
	mu    sync.Mutex
	enc   *json.Encoder
	count int
}

var _ Sink = (*Recorder)(nil)

// NewRecorder writes events to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{enc: json.NewEncoder(w)}
}

// Count returns the number of events recorded so far.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Record writes one event.
func (r *Recorder) Record(e Event) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.enc.Encode(e); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.count++
	return nil
}

// bufferedRecorderSize is the write buffer of a BufferedRecorder.
// 64 KiB batches a few hundred typical event lines per syscall.
const bufferedRecorderSize = 64 << 10

// BufferedRecorder is a Recorder that batches writes through a
// bufio.Writer, so high-rate live runs don't pay a syscall per event.
// Events may sit in the buffer until Flush or Close — callers that
// hand a file to a BufferedRecorder must Close (or Flush) it before
// reading the trace back or letting the process exit. The plain
// Recorder remains unbuffered: every Record lands in the underlying
// writer immediately, which is what tests reading a bytes.Buffer
// mid-run rely on.
type BufferedRecorder struct {
	Recorder
	w *bufio.Writer // flushed under the embedded Recorder's mu
}

// NewBufferedRecorder writes events to w through a 64 KiB buffer.
func NewBufferedRecorder(w io.Writer) *BufferedRecorder {
	b := &BufferedRecorder{w: bufio.NewWriterSize(w, bufferedRecorderSize)}
	b.enc = json.NewEncoder(b.w)
	return b
}

// Flush writes any buffered events to the underlying writer.
func (b *BufferedRecorder) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.w.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Close flushes the buffer. It does not close the underlying writer —
// the caller owns the file handle.
func (b *BufferedRecorder) Close() error { return b.Flush() }

// Scalar records a named scalar observation.
func (r *Recorder) Scalar(round, node int, kind Kind, value float64) error {
	return r.Record(Event{Round: round, Node: node, Kind: kind, Value: value})
}

// Classification records a node's classification snapshot from
// prepared collection records (see e.g. core.TraceRecords).
func (r *Recorder) Classification(round, node int, records []CollectionRecord) error {
	return r.Record(Event{Round: round, Node: node, Kind: KindClassification, Collections: records})
}

// Tee returns a Sink that records every event to each of the given
// sinks, in order; nil sinks are skipped. Every sink sees every event
// even when an earlier one fails — the first error is returned. With
// fewer than two non-nil sinks no wrapper is allocated (the single
// sink, or Nop, is returned directly). This is how the live monitor
// attaches beside a JSONL recorder without either knowing about the
// other.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return Nop
	case 1:
		return kept[0]
	default:
		return teeSink(kept)
	}
}

type teeSink []Sink

func (t teeSink) Record(e Event) error {
	var first error
	for _, s := range t {
		if err := s.Record(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FilterKinds wraps sink so it only receives events carrying one of
// the given kinds; everything else is dropped silently. With no kinds
// the sink is returned unchanged (an empty filter would be a
// surprising way to spell "discard everything").
func FilterKinds(sink Sink, kinds ...Kind) Sink {
	if len(kinds) == 0 {
		return sink
	}
	f := filterSink{sink: sink, kinds: make(map[Kind]bool, len(kinds))}
	for _, k := range kinds {
		f.kinds[k] = true
	}
	return f
}

type filterSink struct {
	sink  Sink
	kinds map[Kind]bool
}

func (f filterSink) Record(e Event) error {
	if !f.kinds[e.Kind] {
		return nil
	}
	return f.sink.Record(e)
}

// maxLine bounds a single trace line (16 MiB). Classification snapshots
// of large networks are long lines, but anything beyond this is a
// corrupt file, not a trace.
const maxLine = 16 << 20

// Cursor steps through a JSONL trace one event at a time without ever
// holding more than one line in memory — the streaming counterpart of
// Read, sized for multi-gigabyte traces. A Cursor tracks its position,
// so consumers (and errors) can name the exact line of an observation.
type Cursor struct {
	sc   *bufio.Scanner
	line int // 1-based line number of the event last returned by Next
	err  error
}

// NewCursor returns a cursor over the JSONL stream r.
func NewCursor(r io.Reader) *Cursor {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), maxLine)
	return &Cursor{sc: sc}
}

// Line returns the 1-based line number of the event most recently
// returned by Next (0 before the first call).
func (c *Cursor) Line() int { return c.line }

// Next decodes the next event. It returns io.EOF at the end of the
// stream; any other error names the offending line. Blank lines are
// skipped (a trailing newline is not an event).
func (c *Cursor) Next() (Event, error) {
	if c.err != nil {
		return Event{}, c.err
	}
	for c.sc.Scan() {
		c.line++
		text := c.sc.Bytes()
		if len(bytes.TrimSpace(text)) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(text, &e); err != nil {
			c.err = fmt.Errorf("trace: line %d: %w", c.line, err)
			return Event{}, c.err
		}
		return e, nil
	}
	if err := c.sc.Err(); err != nil {
		c.err = fmt.Errorf("trace: line %d: %w", c.line+1, err)
		return Event{}, c.err
	}
	c.err = io.EOF
	return Event{}, io.EOF
}

// Stream decodes events from r one line at a time and hands each to fn,
// never holding more than one line in memory. A decode failure reports
// the 1-based line number of the malformed line; a non-nil error from
// fn stops the stream and is returned as-is.
func Stream(r io.Reader, fn func(Event) error) error {
	c := NewCursor(r)
	for {
		e, err := c.Next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// Read decodes all events from r — the inverse of a Recorder run, used
// by tests and post-processing. It is Stream with an accumulator; use
// Stream (or a Cursor) directly when the trace may not fit in memory.
func Read(r io.Reader) ([]Event, error) {
	var out []Event
	if err := Stream(r, func(e Event) error {
		out = append(out, e)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// CountKind returns how many events carry the given kind — a common
// post-processing reduction.
func CountKind(events []Event, kind Kind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}
