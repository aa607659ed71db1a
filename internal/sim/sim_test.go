package sim

import (
	"errors"
	"math"
	"testing"

	"distclass/internal/aggregate"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/vec"
)

// massAgent wraps a push-sum node for driver tests.
type massAgent struct {
	node *aggregate.Node
}

func (a *massAgent) Emit() (aggregate.Message, bool) { return a.node.Split(), true }
func (a *massAgent) Receive(batch []aggregate.Message) error {
	return a.node.Receive(batch)
}

func newMassAgents(t testing.TB, n int, values []float64) []Agent[aggregate.Message] {
	t.Helper()
	agents := make([]Agent[aggregate.Message], n)
	for i := 0; i < n; i++ {
		node, err := aggregate.NewNode(i, vec.Of(values[i]))
		if err != nil {
			t.Fatalf("NewNode: %v", err)
		}
		agents[i] = &massAgent{node: node}
	}
	return agents
}

func fullGraph(t testing.TB, n int) *topology.Graph {
	t.Helper()
	g, err := topology.Full(n)
	if err != nil {
		t.Fatalf("Full: %v", err)
	}
	return g
}

func TestNewNetworkValidation(t *testing.T) {
	g := fullGraph(t, 3)
	r := rng.New(1)
	agents := newMassAgents(t, 3, []float64{1, 2, 3})
	if _, err := NewNetwork[aggregate.Message](nil, agents, r, Options[aggregate.Message]{}); err == nil {
		t.Errorf("nil graph accepted")
	}
	if _, err := NewNetwork(g, agents[:2], r, Options[aggregate.Message]{}); err == nil {
		t.Errorf("agent count mismatch accepted")
	}
	if _, err := NewNetwork(g, agents, nil, Options[aggregate.Message]{}); err == nil {
		t.Errorf("nil rng accepted")
	}
	if _, err := NewNetwork(g, agents, r, Options[aggregate.Message]{CrashProb: 1}); err == nil {
		t.Errorf("crash prob 1 accepted")
	}
	bad := append([]Agent[aggregate.Message]{}, agents...)
	bad[1] = nil
	if _, err := NewNetwork(g, bad, r, Options[aggregate.Message]{}); err == nil {
		t.Errorf("nil agent accepted")
	}
}

func TestRoundConservesMassWithoutCrashes(t *testing.T) {
	const n = 16
	values := make([]float64, n)
	var want float64
	r := rng.New(2)
	for i := range values {
		values[i] = r.UniformRange(-5, 5)
		want += values[i] / n
	}
	agents := newMassAgents(t, n, values)
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(3), Options[aggregate.Message]{})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := net.RunRounds(50, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	for i, a := range agents {
		est, err := a.(*massAgent).node.Estimate()
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
		if math.Abs(est[0]-want) > 1e-6 {
			t.Errorf("node %d estimate %v, want %v", i, est[0], want)
		}
	}
	st := net.Stats()
	if st.Rounds != 50 {
		t.Errorf("Rounds = %d", st.Rounds)
	}
	if st.MessagesSent != 50*n {
		t.Errorf("MessagesSent = %d, want %d", st.MessagesSent, 50*n)
	}
	if st.MessagesDropped != 0 {
		t.Errorf("MessagesDropped = %d", st.MessagesDropped)
	}
}

func TestRoundRobinPolicyVisitsAllNeighbors(t *testing.T) {
	// On a ring, round-robin alternates between the two neighbors; after
	// 2 rounds each neighbor has been used exactly once per node.
	const n = 6
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	agents := newMassAgents(t, n, values)
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatalf("Ring: %v", err)
	}
	net, err := NewNetwork(g, agents, rng.New(4), Options[aggregate.Message]{Policy: RoundRobin})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := net.RunRounds(120, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	want := (0.0 + 1 + 2 + 3 + 4 + 5) / n
	for i, a := range agents {
		est, _ := a.(*massAgent).node.Estimate()
		if math.Abs(est[0]-want) > 1e-4 {
			t.Errorf("node %d estimate %v, want %v", i, est[0], want)
		}
	}
}

func TestCrashInjection(t *testing.T) {
	const n = 100
	values := make([]float64, n)
	agents := newMassAgents(t, n, values)
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(5), Options[aggregate.Message]{CrashProb: 0.2})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := net.RunRounds(10, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	alive := net.AliveCount()
	// Expect roughly 100 * 0.8^10 ~ 10.7 alive.
	if alive < 1 || alive > 35 {
		t.Errorf("AliveCount = %d, expected a small surviving fraction", alive)
	}
	if net.Stats().MessagesDropped == 0 {
		t.Errorf("expected some dropped messages with crashes")
	}
	// Alive() must be consistent with AliveCount.
	c := 0
	for i := 0; i < n; i++ {
		if net.Alive(i) {
			c++
		}
	}
	if c != alive {
		t.Errorf("Alive() count %d != AliveCount %d", c, alive)
	}
}

func TestSizeFunc(t *testing.T) {
	const n = 4
	agents := newMassAgents(t, n, make([]float64, n))
	opts := Options[aggregate.Message]{
		SizeFunc: func(m aggregate.Message) int { return m.Sum.Dim() },
	}
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(6), opts)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := net.RunRounds(3, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if got := net.Stats().PayloadSize; got != 3*n {
		t.Errorf("PayloadSize = %d, want %d", got, 3*n)
	}
}

func TestRunRoundsEarlyStop(t *testing.T) {
	const n = 4
	agents := newMassAgents(t, n, make([]float64, n))
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(7), Options[aggregate.Message]{})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	calls := 0
	err = net.RunRounds(100, func(round int) error {
		calls++
		if round == 4 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if calls != 5 {
		t.Errorf("callback ran %d times, want 5", calls)
	}
	wantErr := errors.New("boom")
	err = net.RunRounds(10, func(int) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("error = %v, want boom", err)
	}
}

func TestAsyncConvergesAndConservesMass(t *testing.T) {
	const n = 10
	values := make([]float64, n)
	var want float64
	r := rng.New(8)
	for i := range values {
		values[i] = r.UniformRange(-3, 3)
		want += values[i] / n
	}
	agents := newMassAgents(t, n, values)
	async, err := NewAsync(fullGraph(t, n), agents, rng.New(9), Options[aggregate.Message]{})
	if err != nil {
		t.Fatalf("NewAsync: %v", err)
	}
	if err := async.RunSteps(20000, nil); err != nil {
		t.Fatalf("RunSteps: %v", err)
	}
	if err := async.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if async.InFlight() != 0 {
		t.Fatalf("InFlight = %d after drain", async.InFlight())
	}
	for i, a := range agents {
		est, err := a.(*massAgent).node.Estimate()
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
		if math.Abs(est[0]-want) > 1e-4 {
			t.Errorf("node %d estimate %v, want %v", i, est[0], want)
		}
	}
	if async.Stats().Steps != 20000 {
		t.Errorf("Steps = %d", async.Stats().Steps)
	}
}

func TestAsyncDeterminism(t *testing.T) {
	run := func() float64 {
		const n = 6
		values := []float64{1, 2, 3, 4, 5, 6}
		agents := newMassAgents(t, n, values)
		async, err := NewAsync(fullGraph(t, n), agents, rng.New(10), Options[aggregate.Message]{})
		if err != nil {
			t.Fatalf("NewAsync: %v", err)
		}
		if err := async.RunSteps(500, nil); err != nil {
			t.Fatalf("RunSteps: %v", err)
		}
		est, err := agents[0].(*massAgent).node.Estimate()
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
		return est[0]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different runs: %v vs %v", a, b)
	}
}

func TestAsyncEarlyStop(t *testing.T) {
	agents := newMassAgents(t, 3, []float64{1, 2, 3})
	async, err := NewAsync(fullGraph(t, 3), agents, rng.New(11), Options[aggregate.Message]{})
	if err != nil {
		t.Fatalf("NewAsync: %v", err)
	}
	calls := 0
	err = async.RunSteps(1000, func(step int) error {
		calls++
		if step == 9 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("RunSteps: %v", err)
	}
	if calls != 10 {
		t.Errorf("callback ran %d times, want 10", calls)
	}
}

func TestNewAsyncValidation(t *testing.T) {
	agents := newMassAgents(t, 3, []float64{1, 2, 3})
	r := rng.New(1)
	if _, err := NewAsync[aggregate.Message](nil, agents, r, Options[aggregate.Message]{}); err == nil {
		t.Errorf("nil graph accepted")
	}
	if _, err := NewAsync(fullGraph(t, 3), agents[:1], r, Options[aggregate.Message]{}); err == nil {
		t.Errorf("agent count mismatch accepted")
	}
	if _, err := NewAsync(fullGraph(t, 3), agents, nil, Options[aggregate.Message]{}); err == nil {
		t.Errorf("nil rng accepted")
	}
	bad := append([]Agent[aggregate.Message]{}, agents...)
	bad[0] = nil
	if _, err := NewAsync(fullGraph(t, 3), bad, r, Options[aggregate.Message]{}); err == nil {
		t.Errorf("nil agent accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if PushRandom.String() != "push-random" || RoundRobin.String() != "round-robin" {
		t.Errorf("Policy strings: %q %q", PushRandom, RoundRobin)
	}
	if Policy(9).String() == "" {
		t.Errorf("unknown policy should still render")
	}
}

func TestPullModeConvergesAndConservesMass(t *testing.T) {
	const n = 24
	values := make([]float64, n)
	var want float64
	r := rng.New(21)
	for i := range values {
		values[i] = r.UniformRange(-5, 5)
		want += values[i] / n
	}
	agents := newMassAgents(t, n, values)
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(22), Options[aggregate.Message]{Mode: ModePull})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := net.RunRounds(60, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	var total float64
	for i, a := range agents {
		node := a.(*massAgent).node
		total += node.Weight()
		est, err := node.Estimate()
		if err != nil {
			t.Fatalf("Estimate: %v", err)
		}
		if math.Abs(est[0]-want) > 1e-6 {
			t.Errorf("node %d estimate %v, want %v", i, est[0], want)
		}
	}
	if math.Abs(total-n) > 1e-9 {
		t.Errorf("total weight %v, want %d", total, n)
	}
}

func TestPushPullModeFasterThanPush(t *testing.T) {
	// Push-pull moves twice the mass per round; on the same seed it must
	// reach a tight estimate spread no later than plain push.
	spreadAfter := func(mode Mode, rounds int) float64 {
		const n = 32
		values := make([]float64, n)
		r := rng.New(23)
		for i := range values {
			values[i] = r.UniformRange(-5, 5)
		}
		agents := newMassAgents(t, n, values)
		net, err := NewNetwork(fullGraph(t, n), agents, rng.New(24), Options[aggregate.Message]{Mode: mode})
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		if err := net.RunRounds(rounds, nil); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, a := range agents {
			est, err := a.(*massAgent).node.Estimate()
			if err != nil {
				t.Fatalf("Estimate: %v", err)
			}
			lo = math.Min(lo, est[0])
			hi = math.Max(hi, est[0])
		}
		return hi - lo
	}
	push := spreadAfter(ModePush, 12)
	pushPull := spreadAfter(ModePushPull, 12)
	if pushPull > push {
		t.Errorf("push-pull spread %v should not exceed push spread %v", pushPull, push)
	}
}

func TestPullFromCrashedReturnsNothing(t *testing.T) {
	// Two nodes; crash one manually by running rounds with certainty of
	// crashes is awkward, so use CrashProb high and verify no receive
	// errors occur and pulls from dead peers do not resurrect weight.
	const n = 10
	agents := newMassAgents(t, n, make([]float64, n))
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(25), Options[aggregate.Message]{Mode: ModePull, CrashProb: 0.3})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := net.RunRounds(10, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if net.AliveCount() == n {
		t.Skip("no crashes occurred")
	}
	// In pull mode nothing is ever sent toward a crashed node by an
	// alive one (the requester is alive by construction), so drops can
	// only be zero.
	if net.Stats().MessagesDropped != 0 {
		t.Errorf("pull mode dropped %d messages", net.Stats().MessagesDropped)
	}
}

func TestAsyncModes(t *testing.T) {
	for _, mode := range []Mode{ModePush, ModePull, ModePushPull} {
		t.Run(mode.String(), func(t *testing.T) {
			const n = 8
			values := make([]float64, n)
			var want float64
			r := rng.New(26)
			for i := range values {
				values[i] = r.UniformRange(-3, 3)
				want += values[i] / n
			}
			agents := newMassAgents(t, n, values)
			async, err := NewAsync(fullGraph(t, n), agents, rng.New(27), Options[aggregate.Message]{Mode: mode})
			if err != nil {
				t.Fatalf("NewAsync: %v", err)
			}
			if err := async.RunSteps(8000, nil); err != nil {
				t.Fatalf("RunSteps: %v", err)
			}
			if err := async.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			for i, a := range agents {
				est, err := a.(*massAgent).node.Estimate()
				if err != nil {
					t.Fatalf("Estimate: %v", err)
				}
				if math.Abs(est[0]-want) > 1e-3 {
					t.Errorf("node %d estimate %v, want %v", i, est[0], want)
				}
			}
		})
	}
}

func TestModeString(t *testing.T) {
	if ModePush.String() != "push" || ModePull.String() != "pull" || ModePushPull.String() != "push-pull" {
		t.Errorf("mode strings: %q %q %q", ModePush, ModePull, ModePushPull)
	}
	if Mode(9).String() == "" {
		t.Errorf("unknown mode should still render")
	}
}

func TestDropProbLosesMessages(t *testing.T) {
	const n = 20
	agents := newMassAgents(t, n, make([]float64, n))
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(31), Options[aggregate.Message]{DropProb: 0.5})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if err := net.RunRounds(20, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	st := net.Stats()
	if st.MessagesDropped == 0 {
		t.Fatalf("no drops with p=0.5")
	}
	frac := float64(st.MessagesDropped) / float64(st.MessagesSent)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("drop fraction = %v, want ~0.5", frac)
	}
	// Dropped mass is destroyed: node-held weight shrinks below n.
	var total float64
	for _, a := range agents {
		total += a.(*massAgent).node.Weight()
	}
	if total >= n {
		t.Errorf("weight %v did not shrink despite drops", total)
	}
}

func TestDropProbValidation(t *testing.T) {
	agents := newMassAgents(t, 3, []float64{1, 2, 3})
	if _, err := NewNetwork(fullGraph(t, 3), agents, rng.New(1), Options[aggregate.Message]{DropProb: 1}); err == nil {
		t.Errorf("drop probability 1 accepted")
	}
	if _, err := NewNetwork(fullGraph(t, 3), agents, rng.New(1), Options[aggregate.Message]{DropProb: -0.1}); err == nil {
		t.Errorf("negative drop probability accepted")
	}
}

// seqAgent emits monotonically increasing sequence numbers and records
// the order in which it receives them per sender, so tests can verify
// the per-channel FIFO guarantee of the model's reliable links.
type seqAgent struct {
	id       int
	next     int
	received map[int][]int // sender -> sequence numbers in arrival order
}

type seqMsg struct {
	From, Seq int
}

func (a *seqAgent) Emit() (seqMsg, bool) {
	a.next++
	return seqMsg{From: a.id, Seq: a.next}, true
}

func (a *seqAgent) Receive(batch []seqMsg) error {
	for _, m := range batch {
		a.received[m.From] = append(a.received[m.From], m.Seq)
	}
	return nil
}

// TestAsyncPerChannelFIFO checks that the async driver delivers each
// channel's messages in send order, the reliable-link property of §3.1.
func TestAsyncPerChannelFIFO(t *testing.T) {
	const n = 6
	agents := make([]Agent[seqMsg], n)
	raw := make([]*seqAgent, n)
	for i := range agents {
		raw[i] = &seqAgent{id: i, received: map[int][]int{}}
		agents[i] = raw[i]
	}
	g := fullGraph(t, n)
	async, err := NewAsync(g, agents, rng.New(51), Options[seqMsg]{})
	if err != nil {
		t.Fatalf("NewAsync: %v", err)
	}
	if err := async.RunSteps(5000, nil); err != nil {
		t.Fatalf("RunSteps: %v", err)
	}
	if err := async.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, a := range raw {
		for from, seqs := range a.received {
			for j := 1; j < len(seqs); j++ {
				if seqs[j] <= seqs[j-1] {
					t.Fatalf("node %d: messages from %d out of order: %v", i, from, seqs)
				}
			}
		}
	}
}

// TestRoundFairnessEveryNodeSends checks that the round driver gives
// every alive node exactly one send opportunity per round.
func TestRoundFairnessEveryNodeSends(t *testing.T) {
	const n = 9
	agents := make([]Agent[seqMsg], n)
	raw := make([]*seqAgent, n)
	for i := range agents {
		raw[i] = &seqAgent{id: i, received: map[int][]int{}}
		agents[i] = raw[i]
	}
	net, err := NewNetwork(fullGraph(t, n), agents, rng.New(53), Options[seqMsg]{})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	const rounds = 25
	if err := net.RunRounds(rounds, nil); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	for i, a := range raw {
		if a.next != rounds {
			t.Errorf("node %d sent %d times in %d rounds", i, a.next, rounds)
		}
	}
	if got := net.Stats().MessagesSent; got != n*rounds {
		t.Errorf("MessagesSent = %d, want %d", got, n*rounds)
	}
}

func BenchmarkRoundFullMesh(b *testing.B) {
	const n = 256
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	agents := newMassAgents(b, n, values)
	g, err := topology.Full(n)
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(g, agents, rng.New(55), Options[aggregate.Message]{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Round(); err != nil {
			b.Fatal(err)
		}
	}
}

// referencePickStableEdge is the original selection-sort implementation
// of pickStableEdge, kept as the oracle: the sort.Slice replacement
// must choose byte-identical edges for every index and input order.
func referencePickStableEdge(edges [][2]int, idx int) [2]int {
	sorted := make([][2]int, len(edges))
	copy(sorted, edges)
	for i := 0; i < len(sorted); i++ {
		min := i
		for j := i + 1; j < len(sorted); j++ {
			if edgeLess(sorted[j], sorted[min]) {
				min = j
			}
		}
		sorted[i], sorted[min] = sorted[min], sorted[i]
	}
	return sorted[idx]
}

// TestPickStableEdgeMatchesReference feeds both implementations the
// same edge sets in many shuffled orders and requires identical picks —
// the determinism contract the async driver relies on.
func TestPickStableEdgeMatchesReference(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.IntN(30)
		// Unique edges, as the queue map guarantees.
		seen := map[[2]int]bool{}
		var edges [][2]int
		for len(edges) < n {
			e := [2]int{r.IntN(12), r.IntN(12)}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}
		for idx := 0; idx < len(edges); idx++ {
			ref := make([][2]int, len(edges))
			copy(ref, edges)
			want := referencePickStableEdge(ref, idx)
			shuffled := make([][2]int, len(edges))
			copy(shuffled, edges)
			r.Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			if got := pickStableEdge(shuffled, idx); got != want {
				t.Fatalf("trial %d idx %d: pickStableEdge = %v, reference = %v", trial, idx, got, want)
			}
		}
	}
}

// BenchmarkAsyncStepDense exercises the async Step hot path on a dense
// graph with loaded queues — the regime where the old per-step
// selection sort in pickStableEdge cost O(E^2).
func BenchmarkAsyncStepDense(b *testing.B) {
	const n = 64
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i)
	}
	agents := newMassAgents(b, n, values)
	async, err := NewAsync(fullGraph(b, n), agents, rng.New(57), Options[aggregate.Message]{})
	if err != nil {
		b.Fatal(err)
	}
	// Preload: fill per-edge queues so delivery steps dominate.
	if err := async.RunSteps(20000, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := async.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// countAgent sends a unit message every opportunity and counts what it
// receives; failAt, when positive, makes its failAt'th Receive fail.
type countAgent struct {
	received, calls, failAt int
}

func (a *countAgent) Emit() (int, bool) { return 1, true }

func (a *countAgent) Receive(batch []int) error {
	a.calls++
	if a.calls == a.failAt {
		return errors.New("injected receive failure")
	}
	for _, m := range batch {
		a.received += m
	}
	return nil
}

func newCountRing(t *testing.T, n int) (*Network[int], []*countAgent) {
	t.Helper()
	g, err := topology.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]*countAgent, n)
	agents := make([]Agent[int], n)
	for i := range raw {
		raw[i] = &countAgent{}
		agents[i] = raw[i]
	}
	net, err := NewNetwork(g, agents, rng.New(1), Options[int]{Policy: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	return net, raw
}

// TestRoundAllocsFlatInN pins the reused round inbox: once every inbox
// has grown to its steady size, a round allocates the same small
// constant whatever the network size.
func TestRoundAllocsFlatInN(t *testing.T) {
	allocs := func(n int) float64 {
		net, _ := newCountRing(t, n)
		for i := 0; i < 4; i++ {
			if err := net.Round(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := net.Round(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(4096); large > small {
		t.Errorf("warm round allocs grow with N: %v at N=64, %v at N=4096", small, large)
	}
}

// TestRoundFailureDropsUndelivered checks that messages left undelivered
// by a failed round never reach their receivers in a later round.
func TestRoundFailureDropsUndelivered(t *testing.T) {
	const n = 8
	net, raw := newCountRing(t, n)
	raw[0].failAt = 1
	if err := net.Round(); err == nil {
		t.Fatal("round with a failing receiver returned no error")
	}
	total := func() int {
		sum := 0
		for _, a := range raw {
			sum += a.received
		}
		return sum
	}
	before := total()
	if err := net.Round(); err != nil {
		t.Fatal(err)
	}
	// Every node sends one unit per round, so a round delivers n units;
	// more means messages of the failed round were redelivered.
	if got := total() - before; got != n {
		t.Errorf("round after the failure delivered %d units, want %d", got, n)
	}
}
