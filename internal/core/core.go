// Package core implements the paper's generic distributed data
// classification algorithm (Algorithm 1).
//
// Each node maintains a classification: a set of collections, each
// stored as a weighted summary. A node periodically splits its
// classification into two halves (weights quantized to multiples of q),
// keeps one and sends the other to a neighbor; on receipt it unions the
// incoming collections with its own and re-partitions them into at most
// k collections using the instantiation's partition function, merging
// each part into a single collection.
//
// The package is generic in the paper's sense: it is instantiated with a
// Method carrying the four application-specific pieces — valToSummary
// (Summarize), mergeSet (Merge), partition (Partition) and the summary
// distance d_S (Distance). Package centroids provides the k-means-style
// instantiation (Algorithm 2) and package gm the Gaussian-Mixture one
// (§5).
//
// The dashed-frame auxiliary code of Algorithm 1 — the mixture-space
// vectors used by the correctness argument (§4.2) and by the paper's
// outlier-accounting instrumentation — is implemented by the optional
// Aux field on Collection: split scales it like the weight, merge sums
// it. Auxiliaries are pure instrumentation; the algorithm never reads
// them.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"distclass/internal/metrics"
	"distclass/internal/trace"
	"distclass/internal/vec"
)

// Value is a data point. The paper allows any domain D; as in all of its
// examples, this implementation fixes D = R^d.
type Value = vec.Vector

// Summary is a concise description of a collection of weighted values —
// an element of the paper's summary domain S. Concrete types are defined
// by Method implementations (a centroid vector, a weighted Gaussian, …).
type Summary interface {
	// Dim returns the dimensionality of the summarized values.
	Dim() int
	// String renders the summary for diagnostics.
	String() string
}

// Collection is a weighted summary — the algorithm's representation of a
// set of weighted values (Definition 1, stored per §4.1 as its
// summary-weight pair).
type Collection struct {
	Summary Summary
	Weight  float64

	// Aux is the collection's mixture-space vector (the dashed-frame
	// auxiliary of Algorithm 1). When non-nil it is scaled on splits by
	// the same ratio as the weight and summed on merges. With the full
	// basis initialization (node i starts with e_i) its j'th component
	// is exactly the weight of input value j in this collection; with a
	// tag basis (node i starts with e_label(i)) it carries the exact
	// per-label weights, which is what the Figure 3 outlier accounting
	// uses. Nil disables tracking.
	Aux vec.Vector
}

// Clone returns a copy whose Aux does not alias the original. Summaries
// are treated as immutable values and shared.
func (c Collection) Clone() Collection {
	return Collection{Summary: c.Summary, Weight: c.Weight, Aux: c.Aux.Clone()}
}

// Classification is a set of collections (Definition 2).
type Classification []Collection

// Clone returns a deep copy (modulo shared immutable summaries).
func (cl Classification) Clone() Classification {
	out := make(Classification, len(cl))
	for i, c := range cl {
		out[i] = c.Clone()
	}
	return out
}

// TotalWeight returns the summed weight of all collections.
func (cl Classification) TotalWeight() float64 {
	var s float64
	for _, c := range cl {
		s += c.Weight
	}
	return s
}

// String renders the classification one collection per line.
func (cl Classification) String() string {
	var b strings.Builder
	for i, c := range cl {
		if i > 0 {
			//lint:allow errconserve strings.Builder.WriteByte is documented to always return nil
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "{w=%.6g %s}", c.Weight, c.Summary)
	}
	return b.String()
}

// Method instantiates the generic algorithm with the application-
// specific functions of §4.1.
type Method interface {
	// Name identifies the instantiation ("centroids", "gm", …).
	Name() string
	// Summarize implements valToSummary: the summary of the collection
	// {<val, 1>}.
	Summarize(val Value) (Summary, error)
	// Merge implements mergeSet: the summary of the union of the given
	// collections. The input is never empty. Implementations must not
	// retain cs or the Collection structs it holds beyond the call: the
	// slice is node-owned scratch, reused across merge groups.
	Merge(cs []Collection) (Summary, error)
	// Partition groups the collections of a combined classification into
	// at most k non-empty index groups; each group is then merged into a
	// single collection. Implementations must respect the paper's two
	// constraints: |M| <= k, and no group is a singleton whose weight is
	// the quantum q (such a collection must be merged with another)
	// whenever the input has more than one collection. Like Merge,
	// implementations must not retain cs: it is node-owned scratch.
	Partition(cs []Collection, k int, q float64) ([][]int, error)
	// Distance is the summary pseudo-metric d_S.
	Distance(a, b Summary) (float64, error)
}

// AuxSummarizer is an optional Method extension used by the verification
// suite: it computes f(aux), the summary of the collection described by
// a mixture-space vector over the given input values. Lemma 1 states
// f(c.Aux) == c.Summary at all times.
type AuxSummarizer interface {
	SummarizeAux(aux vec.Vector, inputs []Value) (Summary, error)
}

// DefaultQ is the default weight quantum: a power of two, so that the
// halving arithmetic is exact in float64, and far below 1/n for any
// simulated network size (the paper requires q << 1/n).
const DefaultQ = 1.0 / (1 << 30)

// Config parameterizes a node.
type Config struct {
	// Method is the instantiation. Required.
	Method Method
	// K bounds the number of collections in a classification. K >= 1.
	K int
	// Q is the weight quantum (the paper's q). If zero, DefaultQ is
	// used. Initial weights (1.0) must be integer multiples of Q.
	Q float64
	// Metrics, when non-nil, receives the node's protocol counters:
	// core.splits, core.merges, core.quantize_drops and the
	// core.collections histogram (post-absorb collection counts).
	// Nodes sharing a registry aggregate into the same counters.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives split/merge events. Protocol
	// events are not tied to a driver round; they carry Round -1.
	Trace trace.Sink
}

func (cfg *Config) validate() error {
	if cfg.Method == nil {
		return errors.New("core: Config.Method is required")
	}
	if cfg.K < 1 {
		return fmt.Errorf("core: Config.K = %d must be at least 1", cfg.K)
	}
	//lint:allow floatcmp zero value selects the default, an exact-representation check
	if cfg.Q == 0 {
		cfg.Q = DefaultQ
	}
	if cfg.Q < 0 || cfg.Q > 0.5 {
		return fmt.Errorf("core: Config.Q = %v outside (0, 0.5]", cfg.Q)
	}
	if r := math.Abs(1/cfg.Q - math.Round(1/cfg.Q)); r > 1e-9 {
		return fmt.Errorf("core: Config.Q = %v does not divide the unit weight", cfg.Q)
	}
	return nil
}

// Half returns the multiple of q closest to w/2, ties rounding away from
// zero — the paper's half() (Algorithm 1, lines 12-13).
func Half(w, q float64) float64 {
	return math.Round(w/(2*q)) * q
}

// Node is one participant in the distributed classification.
type Node struct {
	id  int
	cfg Config
	cls Classification

	// Node-owned scratch buffers for the split/absorb hot path. A node
	// splits and absorbs every gossip exchange; without reuse each
	// exchange allocates a kept slice, a union slice, a members slice
	// per merge group, a partition-check bitmap and a next slice. The
	// buffers below amortize all of those to zero, and Split/Absorb run
	// without pprof labels (callers label whole phases or goroutines),
	// so core itself allocates only what escapes an exchange: the
	// outgoing half of a split, which the transport may queue for an
	// unbounded time, and each merged collection's aux vector. Safety
	// rests on two invariants: the Method contract (Partition/Merge
	// never retain their input slice) and the fact that absorb copies
	// collections into scratchBig before rebuilding cls in place — see
	// the aliasing mutation test.
	scratchKept Classification // split's kept half; swaps with cls
	scratchBig  Classification // absorb's union of cls + incoming
	scratchMem  []Collection   // absorb's per-merge-group members
	scratchSeen []bool         // absorb's partition check, one flag per union entry

	// Cached instruments (nil without Config.Metrics); looked up once
	// so the protocol hot path never touches the registry lock.
	splits      *metrics.Counter
	merges      *metrics.Counter
	qdrops      *metrics.Counter
	collections *metrics.Histogram
}

// CollectionsBuckets returns the bucket bounds of the core.collections
// histogram: classification sizes are small (<= k), so unit-ish buckets
// resolve the whole interesting range. A fresh slice is returned so no
// caller can mutate another's bounds.
func CollectionsBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16}
}

// NewNode creates a node holding input value val. aux is the node's
// initial auxiliary vector (e_i for full mixture-space tracking, a label
// indicator for tag tracking, or nil to disable); it is cloned.
func NewNode(id int, val Value, aux vec.Vector, cfg Config) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(val) == 0 {
		return nil, fmt.Errorf("core: node %d: empty input value", id)
	}
	s, err := cfg.Method.Summarize(val)
	if err != nil {
		return nil, fmt.Errorf("core: node %d: summarize: %w", id, err)
	}
	n := &Node{
		id:  id,
		cfg: cfg,
		cls: Classification{{Summary: s, Weight: 1, Aux: aux.Clone()}},
	}
	if reg := cfg.Metrics; reg != nil {
		n.splits = reg.Counter("core.splits")
		n.merges = reg.Counter("core.merges")
		n.qdrops = reg.Counter("core.quantize_drops")
		n.collections, err = reg.Histogram("core.collections", CollectionsBuckets())
		if err != nil {
			return nil, fmt.Errorf("core: node %d: %w", id, err)
		}
	}
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() int { return n.id }

// K returns the collection bound.
func (n *Node) K() int { return n.cfg.K }

// Q returns the weight quantum.
func (n *Node) Q() float64 { return n.cfg.Q }

// Method returns the instantiation.
func (n *Node) Method() Method { return n.cfg.Method }

// Classification returns a deep copy of the node's current
// classification.
func (n *Node) Classification() Classification { return n.cls.Clone() }

// DissimilarityTo computes Dissimilarity between this node's
// classification and other's directly over the nodes' own slices,
// without cloning either side. Dissimilarity only reads summaries and
// weights, so no copy is needed; convergence probes (Spread) call this
// O(sample²) per probe and would otherwise allocate O(k·d) clones per
// pair.
func (n *Node) DissimilarityTo(other *Node) (float64, error) {
	return Dissimilarity(n.cls, other.cls, n.cfg.Method)
}

// Len returns the number of collections currently held.
func (n *Node) Len() int { return len(n.cls) }

// Weight returns the node's total held weight.
func (n *Node) Weight() float64 { return n.cls.TotalWeight() }

// Split halves the node's classification (Algorithm 1, lines 3-7): for
// every collection, the node keeps weight half(w) and the returned
// outgoing classification carries w - half(w) with the same summary.
// Collections whose outgoing part would have zero weight (w == q, where
// half keeps everything) are retained whole and omitted from the
// outgoing message. The outgoing classification may therefore be empty;
// callers should skip sending in that case.
func (n *Node) Split() Classification {
	// kept reuses the node's double buffer; after the swap below the
	// previous cls array becomes the next split's kept buffer. sent is
	// the one deliberate allocation: it is handed to the transport and
	// may sit in a queue long past the next split.
	kept := n.scratchKept[:0]
	sent := make(Classification, 0, len(n.cls))
	for _, c := range n.cls {
		keepW := Half(c.Weight, n.cfg.Q)
		sendW := c.Weight - keepW
		if keepW <= 0 {
			// half rounded down to zero (w < q, which quantization should
			// prevent); keep everything rather than destroy weight.
			keepW, sendW = c.Weight, 0
		}
		if sendW <= 0 {
			// Quantization retained the whole collection: its outgoing
			// half would round to zero weight.
			if n.qdrops != nil {
				n.qdrops.Inc()
			}
			kept = append(kept, c)
			continue
		}
		ratio := keepW / c.Weight
		keepC := Collection{Summary: c.Summary, Weight: keepW}
		sendC := Collection{Summary: c.Summary, Weight: sendW}
		if c.Aux != nil {
			keepC.Aux = vec.Scale(ratio, c.Aux)
			sendC.Aux = vec.Scale(1-ratio, c.Aux)
		}
		kept = append(kept, keepC)
		sent = append(sent, sendC)
	}
	n.scratchKept = n.cls[:0]
	n.cls = kept
	if len(sent) > 0 {
		if n.splits != nil {
			n.splits.Inc()
		}
		if n.cfg.Trace != nil {
			_ = n.cfg.Trace.Record(trace.Event{
				Round: -1, Node: n.id, Kind: trace.KindSplit,
				Value: float64(len(sent)),
			})
		}
	}
	return sent
}

// Absorb implements the receive handler (Algorithm 1, lines 8-11) for a
// batch of incoming classifications: the node unions them with its own
// collections, partitions the union with the instantiation's partition
// function, and merges each part. Batching matches the paper's
// simulation methodology (§5.3): a node that received from multiple
// neighbors in a round runs one partition over the entire set.
func (n *Node) Absorb(incoming ...Classification) error {
	// The union is built in node-owned scratch: cls is copied into
	// scratchBig before incoming is appended, so next (rebuilt below
	// into the dead half of the kept/cls double buffer) never aliases
	// what the merge loop reads.
	big := append(n.scratchBig[:0], n.cls...)
	for _, in := range incoming {
		big = append(big, in...)
	}
	if len(big) == 0 {
		n.scratchBig = big
		return nil
	}
	groups, err := n.cfg.Method.Partition(big, n.cfg.K, n.cfg.Q)
	if err != nil {
		n.scratchBig = big[:0]
		return fmt.Errorf("core: node %d: partition: %w", n.id, err)
	}
	if cap(n.scratchSeen) < len(big) {
		n.scratchSeen = make([]bool, len(big))
	}
	seen := n.scratchSeen[:len(big)]
	clear(seen)
	if err := validatePartition(groups, n.cfg.K, seen); err != nil {
		n.scratchBig = big[:0]
		return fmt.Errorf("core: node %d: %w", n.id, err)
	}
	// scratchKept holds no live data between operations (split swapped
	// the previous cls array into it), so building next there keeps cls
	// intact until the swap below — a mid-loop Merge error leaves the
	// node's state exactly as it was.
	next := n.scratchKept[:0]
	for _, g := range groups {
		if len(g) == 1 {
			next = append(next, big[g[0]])
			continue
		}
		members := n.scratchMem[:0]
		var weight float64
		var aux vec.Vector
		for _, idx := range g {
			members = append(members, big[idx])
			weight += big[idx].Weight
			if big[idx].Aux != nil {
				if aux == nil {
					aux = big[idx].Aux.Clone()
				} else {
					vec.AddInPlace(aux, big[idx].Aux)
				}
			}
		}
		s, err := n.cfg.Method.Merge(members)
		n.scratchMem = members[:0]
		if err != nil {
			n.scratchBig = big[:0]
			return fmt.Errorf("core: node %d: merge: %w", n.id, err)
		}
		if n.merges != nil {
			n.merges.Inc()
		}
		if n.cfg.Trace != nil {
			_ = n.cfg.Trace.Record(trace.Event{
				Round: -1, Node: n.id, Kind: trace.KindMerge,
				Value: float64(len(g)),
			})
		}
		next = append(next, Collection{Summary: s, Weight: weight, Aux: aux})
	}
	n.scratchKept = n.cls[:0]
	n.cls = next
	n.scratchBig = big[:0]
	if n.collections != nil {
		n.collections.Observe(float64(len(next)))
	}
	return nil
}

// ValidatePartition checks that groups is an exact partition of [0, n)
// into at most k non-empty groups. It is the generic algorithm's
// defensive check on the instantiation's partition function.
func ValidatePartition(groups [][]int, n, k int) error {
	return validatePartition(groups, k, make([]bool, n))
}

// validatePartition is ValidatePartition over caller-owned scratch:
// seen holds one false flag per collection, and the check marks them.
func validatePartition(groups [][]int, k int, seen []bool) error {
	n := len(seen)
	if len(groups) == 0 {
		return errors.New("core: partition returned no groups")
	}
	if len(groups) > k {
		return fmt.Errorf("core: partition returned %d groups, bound k = %d", len(groups), k)
	}
	count := 0
	for gi, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("core: partition group %d is empty", gi)
		}
		for _, idx := range g {
			if idx < 0 || idx >= n {
				return fmt.Errorf("core: partition index %d out of range [0, %d)", idx, n)
			}
			if seen[idx] {
				return fmt.Errorf("core: partition index %d appears twice", idx)
			}
			seen[idx] = true
			count++
		}
	}
	if count != n {
		return fmt.Errorf("core: partition covers %d of %d collections", count, n)
	}
	return nil
}

// Dissimilarity measures how far apart two classifications are under the
// method's summary distance: the weight-averaged distance from each
// collection to its nearest counterpart, symmetrized. Converging nodes
// drive this to zero; the tests and the simulator's convergence detector
// use it. It is a heuristic diagnostic, not part of the algorithm.
func Dissimilarity(a, b Classification, m Method) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	ab, err := dissimilarityOneWay(a, b, m)
	if err != nil {
		return 0, err
	}
	ba, err := dissimilarityOneWay(b, a, m)
	if err != nil {
		return 0, err
	}
	return math.Max(ab, ba), nil
}

// dissimilarityOneWay is Dissimilarity's directed half. A plain
// function rather than a closure: convergence probes call this on
// every pair every probe, and a closure would be the probe loop's only
// allocation.
func dissimilarityOneWay(from, to Classification, m Method) (float64, error) {
	var sum, weight float64
	for _, c := range from {
		best := math.Inf(1)
		for _, d := range to {
			dist, err := m.Distance(c.Summary, d.Summary)
			if err != nil {
				return 0, err
			}
			if dist < best {
				best = dist
			}
		}
		sum += c.Weight * best
		weight += c.Weight
	}
	//lint:allow floatcmp exact zero guard before dividing; any nonzero weight is fine
	if weight == 0 {
		return 0, nil
	}
	return sum / weight, nil
}

// TraceRecords converts a classification into trace collection records
// for a KindClassification event. meanOf extracts a representative
// point from a summary; a nil meanOf records only weights and rendered
// summaries.
func TraceRecords(cls Classification, meanOf func(Summary) ([]float64, error)) ([]trace.CollectionRecord, error) {
	records := make([]trace.CollectionRecord, len(cls))
	for i, c := range cls {
		rec := trace.CollectionRecord{Weight: c.Weight, Summary: c.Summary.String()}
		if meanOf != nil {
			mean, err := meanOf(c.Summary)
			if err != nil {
				return nil, fmt.Errorf("core: trace records: %w", err)
			}
			rec.Mean = mean
		}
		records[i] = rec
	}
	return records, nil
}

// MaxReferenceAngles returns, for each coordinate i of the mixture
// space, the maximum angle between any collection's Aux vector and the
// i'th axis — the quantity phi_i,max(t) that Lemma 2 proves
// monotonically decreasing. All collections must carry Aux vectors of
// equal dimension.
func MaxReferenceAngles(pool []Collection) ([]float64, error) {
	if len(pool) == 0 {
		return nil, errors.New("core: empty pool")
	}
	dim := pool[0].Aux.Dim()
	if dim == 0 {
		return nil, errors.New("core: collections carry no auxiliary vectors")
	}
	maxAngles := make([]float64, dim)
	axis := vec.New(dim)
	for i := 0; i < dim; i++ {
		axis[i] = 1
		for _, c := range pool {
			if c.Aux.Dim() != dim {
				return nil, fmt.Errorf("core: aux dim %d != %d", c.Aux.Dim(), dim)
			}
			ang, err := vec.Angle(c.Aux, axis)
			if err != nil {
				return nil, err
			}
			if ang > maxAngles[i] {
				maxAngles[i] = ang
			}
		}
		axis[i] = 0
	}
	return maxAngles, nil
}
