package experiments

import (
	"fmt"
	"math"

	"distclass/internal/dkmeans"
	"distclass/internal/gauss"
	"distclass/internal/gm"
	"distclass/internal/rng"
	"distclass/internal/topology"
	"distclass/internal/vec"
)

// RelatedWorkRow reports one algorithm in the related-work comparison.
type RelatedWorkRow struct {
	// Algorithm names the contender.
	Algorithm string
	// GossipRounds is the total gossip rounds consumed until the
	// algorithm's own stopping rule fired.
	GossipRounds int
	// Messages is the total messages sent.
	Messages int
	// MeanError is the average distance from each true cluster mean to
	// the nearest estimated mean.
	MeanError float64
}

// RunRelatedWorkComparison pits the paper's one-shot generic algorithm
// against the iterative related-work baselines (§2) on the same bimodal
// dataset and topology: gossip-based distributed k-means (Datta et al.)
// and Newscast EM (Kowalczyk & Vlassis) each pay one full
// gossip-averaging phase per centralized iteration, while the generic
// algorithm classifies in a single gossip run.
func RunRelatedWorkComparison(cfg AblationConfig) ([]RelatedWorkRow, error) {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed)
	values := bimodalDataset(cfg.N, r)
	graph, err := topology.Full(cfg.N)
	if err != nil {
		return nil, err
	}
	truth := []vec.Vector{vec.Of(-4, 0), vec.Of(4, 0)}

	var rows []RelatedWorkRow

	// This paper: one gossip classification run; node 0's final
	// mixture is the quality read.
	run, eng, err := runConvergence("generic (this paper)", cfg.engineConfig(graph, values, r))
	if err != nil {
		return nil, fmt.Errorf("experiments: generic: %w", err)
	}
	mix, err := gm.ToMixture(eng.Classification(0))
	if err != nil {
		return nil, err
	}
	truthMix := make(gauss.Mixture, len(truth))
	for i, m := range truth {
		truthMix[i] = gauss.Component{Gaussian: gauss.NewPoint(m), Weight: 1}
	}
	quality, err := MeanCoverError(truthMix, mix)
	if err != nil {
		return nil, err
	}
	rows = append(rows, RelatedWorkRow{
		Algorithm:    run.Label,
		GossipRounds: maxInt(run.Rounds, 0),
		Messages:     run.Messages,
		MeanError:    quality,
	})

	// Distributed k-means: one aggregation phase per Lloyd iteration.
	opts := dkmeans.Options{RoundsPerIter: 25, MaxIters: 10}
	km, err := dkmeans.KMeans(values, cfg.K, graph, r.Split(), opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: dkmeans: %w", err)
	}
	rows = append(rows, RelatedWorkRow{
		Algorithm:    "distributed k-means (Datta et al.)",
		GossipRounds: km.GossipRounds,
		Messages:     km.Messages,
		MeanError:    meansError(truth, km.Centroids),
	})

	// Newscast EM: one aggregation phase per EM iteration.
	nem, err := dkmeans.NewscastEM(values, cfg.K, graph, r.Split(), opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: newscast em: %w", err)
	}
	means := make([]vec.Vector, len(nem.Mixture))
	for i, c := range nem.Mixture {
		means[i] = c.Mean
	}
	rows = append(rows, RelatedWorkRow{
		Algorithm:    "newscast EM (Kowalczyk & Vlassis)",
		GossipRounds: nem.GossipRounds,
		Messages:     nem.Messages,
		MeanError:    meansError(truth, means),
	})
	return rows, nil
}

// meansError is the average distance from each true mean to its nearest
// estimate.
func meansError(truth, estimated []vec.Vector) float64 {
	if len(estimated) == 0 {
		return math.Inf(1)
	}
	var sum float64
	for _, t := range truth {
		best := math.Inf(1)
		for _, e := range estimated {
			if d := math.Sqrt(vec.DistSq(t, e)); d < best {
				best = d
			}
		}
		sum += best
	}
	return sum / float64(len(truth))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RelatedWorkTable renders the comparison.
func RelatedWorkTable(rows []RelatedWorkRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Algorithm,
			fmt.Sprintf("%d", r.GossipRounds),
			fmt.Sprintf("%d", r.Messages),
			F(r.MeanError),
		}
	}
	return FormatTable([]string{"algorithm", "gossip rounds", "messages", "mean error"}, out)
}
