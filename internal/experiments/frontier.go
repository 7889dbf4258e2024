package experiments

import (
	"fmt"

	"spca"
	"spca/internal/accuracy"
	"spca/internal/cluster"
	"spca/internal/dataset"
)

// Frontier places the randomized-sketch engines on the accuracy/cost
// frontier beside the EM family and Mahout's SSVD, in the same
// intermediate-data configuration as the Intermediate experiment. A single
// sketch round (range finder + one power iteration) is the sketch family's
// whole budget; EM and SSVD run their usual three rounds. The sketch
// engines' pitch is the left edge of the frontier: one shot at near-SSVD
// accuracy for a fraction of the EM iterations' simulated cost, with the
// communication-optimal Spark variant shipping only s small k x D sketches
// through the shuffle.
func (r Runner) Frontier() (*Table, error) {
	p := r.Profile
	rows := p.TweetsRows
	cols := p.TweetsCols[len(p.TweetsCols)-1]
	y := r.gen(dataset.KindTweets, rows, cols)
	d := p.components(cols)

	// The house accuracy yardstick: the sampled reconstruction error of the
	// exact rank-d truncation, shared by every engine's TargetAccuracy
	// machinery.
	ideal := accuracy.Ideal(y, d, p.Seed)

	entries := []struct {
		alg    spca.Algorithm
		family string
		rounds int
	}{
		{spca.SPCAMapReduce, "EM", 3},
		{spca.SPCASpark, "EM", 3},
		{spca.MahoutPCA, "SSVD", 3},
		{spca.RSVDMapReduce, "sketch", 1},
		{spca.RSVDSpark, "sketch", 1},
	}

	t := &Table{
		ID:    "frontier",
		Title: fmt.Sprintf("Accuracy/cost frontier: sketch vs EM vs SSVD (Tweets %dx%d, d=%d)", rows, cols, d),
		Headers: []string{"Algorithm", "Family", "Rounds", "Time (s)",
			"Shuffle", "Intermediate", "Accuracy"},
		Notes: []string{
			"sketch engines get one round (range finder + 1 power iteration); EM and SSVD run three",
			"accuracy = ideal rank-d reconstruction error / achieved error, on the shared 256-row sample",
			"rsvd-spark merges one k x D sketch per node (Balcan et al.), so its shuffle column is the communication-optimal floor",
		},
	}
	for _, e := range entries {
		res, err := r.fit(e.alg, y, 0, func(c *spca.Config) { c.MaxIter = e.rounds })
		if err != nil {
			return nil, fmt.Errorf("frontier %s: %w", e.alg, err)
		}
		acc := accuracy.Of(ideal, res.Err)
		m := res.Metrics
		t.Rows = append(t.Rows, []string{
			string(e.alg),
			e.family,
			fmt.Sprintf("%d", res.Iterations),
			simSeconds(m.SimSeconds),
			cluster.FormatBytes(m.ShuffleBytes),
			cluster.FormatBytes(m.MaterializedBytes),
			fmt.Sprintf("%.1f%%", accuracyPct(acc)),
		})
	}
	return t, nil
}
