package eval

import (
	"errors"
	"fmt"

	"plos/internal/core"
	"plos/internal/rng"
)

// CrossValidateConfigs implements the paper's parameter-selection procedure
// ("we select parameters ... based on the accuracy reported by
// leave-one-out cross-validation"), at user granularity: for each candidate
// configuration, each label provider in turn is demoted to an unlabeled
// user, PLOS is trained on the rest, and the held-out user's accuracy is
// recorded. The candidate with the best mean held-out accuracy wins.
//
// It returns the index of the selected candidate and the per-candidate mean
// scores (aligned with candidates).
func CrossValidateConfigs(bases []Base, providers []int, rate float64,
	candidates []core.Config, g *rng.RNG) (int, []float64, error) {
	if len(candidates) == 0 {
		return 0, nil, errors.New("eval: CrossValidateConfigs: no candidates")
	}
	if len(providers) < 2 {
		return 0, nil, errors.New("eval: CrossValidateConfigs: need at least two providers to hold one out")
	}
	scores := make([]float64, len(candidates))
	for gi, candidate := range candidates {
		var sum float64
		for hi, held := range providers {
			remaining := make([]int, 0, len(providers)-1)
			for _, p := range providers {
				if p != held {
					remaining = append(remaining, p)
				}
			}
			users, truths, err := Assemble(bases, remaining, rate,
				g.SplitN(fmt.Sprintf("cv-%d", gi), hi), candidate.Workers)
			if err != nil {
				return 0, nil, err
			}
			model, _, err := core.TrainCentralized(users, candidate)
			if err != nil {
				return 0, nil, fmt.Errorf("eval: CrossValidateConfigs candidate %d: %w", gi, err)
			}
			u := users[held]
			pred := make([]float64, u.X.Rows)
			for i := 0; i < u.X.Rows; i++ {
				pred[i] = model.PredictUser(held, u.X.Row(i))
			}
			sum += Accuracy(pred, truths[held], false)
		}
		scores[gi] = sum / float64(len(providers))
	}
	best := 0
	for gi := range candidates {
		if scores[gi] > scores[best] {
			best = gi
		}
	}
	return best, scores, nil
}
