package eval

import (
	"repro/internal/rank"
	"repro/internal/sparse"
)

// TopM returns the indices of the m highest-scoring items for user u among
// the items the user has no training positive for, in descending score
// order with ties broken by ascending index (deterministic rankings; see
// McSherry & Najork on tied scores). Fewer than m items are returned when
// fewer unknowns exist. scores is scratch space of length NumItems; passing
// nil allocates. On return scores holds exactly what rec.ScoreUser wrote —
// TopM never mutates it — so callers may read scores[i] back for the
// returned items (the serving layer relies on this postcondition).
//
// TopM is a thin adapter over the ranking engine: it scores, then hands
// selection to rank.Select with a training-row exclusion filter. The
// engine owns the heap selection and the sorted-cursor exclusion walk; topk_test.go pins TopM's output to an independent
// full-sort reference.
func TopM(rec Recommender, train *sparse.Matrix, u, m int, scores []float64) []int {
	if m <= 0 {
		return nil
	}
	if scores == nil {
		scores = make([]float64, rec.NumItems())
	}
	rec.ScoreUser(u, scores)
	return rank.Select(scores, m, rank.TrainRow(train, u))
}
