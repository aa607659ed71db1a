package main

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"distclass/internal/core"
	"distclass/internal/trace"
)

// timedMethod wraps the run's core.Method and times every call the
// protocol makes into it. It changes no result: each call is passed
// through unchanged, so a traced run gossips exactly as an untraced
// one on the deterministic backends.
type timedMethod struct {
	core.Method
	partition, merge, distance logHist
	// inColls sums the collection counts handed to Partition.
	inColls atomic.Int64
}

func (m *timedMethod) Partition(cs []core.Collection, k int, q float64) ([][]int, error) {
	start := time.Now()
	groups, err := m.Method.Partition(cs, k, q)
	m.partition.observe(time.Since(start))
	m.inColls.Add(int64(len(cs)))
	return groups, err
}

func (m *timedMethod) Merge(cs []core.Collection) (core.Summary, error) {
	start := time.Now()
	s, err := m.Method.Merge(cs)
	m.merge.observe(time.Since(start))
	return s, err
}

func (m *timedMethod) Distance(a, b core.Summary) (float64, error) {
	start := time.Now()
	d, err := m.Method.Distance(a, b)
	m.distance.observe(time.Since(start))
	return d, err
}

// busy is the summed duration of every timed call so far, zero without
// a wrapper (untraced reps).
func (m *timedMethod) busy() time.Duration {
	if m == nil {
		return 0
	}
	return m.partition.sum() + m.merge.sum() + m.distance.sum()
}

// deliverSampleEvery is the sampling rate of the delivery sink: the
// message with sequence number seq from sender src is timed when
// src+seq is a multiple of 64. Offsetting by the sender spreads the
// sample over the whole run; a node sends only a few dozen messages
// before convergence, so seq alone would sample nothing early on.
const deliverSampleEvery = 64

// deliverSink is a causal trace.Sink that pairs send and receive events
// by (sender, seq) on a sample of messages and records the time from
// the send event to the receive event. The shard scheduler stamps a
// send when the frame is handed over, so there the time is the wait in
// the mailbox plus the absorb. livenet stamps a send only once the
// write has returned, which on a pipe is after the reader took the
// bytes, so there it is the decode and absorb left after the write.
// Every other event is dropped on arrival.
type deliverSink struct {
	hist logHist

	mu sync.Mutex
	// open holds the first-seen half of each sampled pair. Either half
	// can come first, so the entry remembers which one it was.
	open map[[2]uint64]stamp // guarded by mu
}

type stamp struct {
	at   time.Time
	send bool
}

func newDeliverSink() *deliverSink {
	return &deliverSink{open: make(map[[2]uint64]stamp)}
}

// Record implements trace.Sink.
func (s *deliverSink) Record(e trace.Event) error {
	var key [2]uint64
	switch e.Kind {
	case trace.KindSend:
		key = [2]uint64{uint64(e.Node), e.Seq}
	case trace.KindReceive:
		key = [2]uint64{uint64(e.Peer), e.Seq}
	default:
		return nil
	}
	if e.Seq == 0 || (key[0]+key[1])%deliverSampleEvery != 0 {
		return nil
	}
	now := stamp{at: time.Now(), send: e.Kind == trace.KindSend}
	s.mu.Lock()
	first, ok := s.open[key]
	if ok {
		delete(s.open, key)
	} else {
		s.open[key] = now
	}
	s.mu.Unlock()
	if ok {
		// A receive stamped before its send took no time after it.
		var d time.Duration
		if first.send {
			d = now.at.Sub(first.at)
		}
		s.hist.observe(d)
	}
	return nil
}

// span is one timed stage of a traced run. Times are nanoseconds since
// the run started; Parent indexes the enclosing span (-1 at the top).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps a traced run's coarse spans in memory; the report
// writes them out when the run ends. A nil tracer records nothing, so
// untraced runs share the code path at the cost of a nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent})
	return len(t.spans) - 1
}

// add records a span whose bounds were measured by the caller and
// returns its index.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// peakSampler polls the runtime every few milliseconds for the live
// heap and goroutine count and keeps their maxima. It runs in traced
// runs only.
type peakSampler struct {
	heapBytes  atomic.Uint64
	goroutines atomic.Uint64
	stop       chan struct{}
	wg         sync.WaitGroup
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/sched/goroutines:goroutines"},
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			raise(&p.heapBytes, samples[0].Value.Uint64())
			raise(&p.goroutines, samples[1].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// reset starts a new peak window.
func (p *peakSampler) reset() {
	p.heapBytes.Store(0)
	p.goroutines.Store(0)
}

func (p *peakSampler) close() {
	close(p.stop)
	p.wg.Wait()
}

func raise(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
