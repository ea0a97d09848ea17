package rank

import "time"

// Timings, when passed to one of the Timed entry points, receives the
// wall time the pipeline spent per stage for that single request — the
// hook the observability layer turns into trace spans. Score is the
// scorer sweep, or ScoreSupport on the sparse-support path; Select is the
// fused filter+selection scan (filters are
// applied during selection, not as a separate pass, so they cannot be
// timed apart); Stages is the post-selection re-rank pass. On a cache
// hit or coalesced wait the durations stay zero and the flags say why:
// no ranking happened, and no clocks are read — the Timed entry points
// with a non-nil Timings cost nothing extra on the hit path.
type Timings struct {
	Score  time.Duration
	Select time.Duration
	Stages time.Duration
	// Cached reports the list came from the cache or another request's
	// in-flight computation; Coalesced narrows that to the latter.
	Cached    bool
	Coalesced bool
}

// TopMTimed is TopM with per-stage timing into tm (nil is allowed and
// identical to TopM).
func (e *Engine) TopMTimed(u, m int, tm *Timings, filters ...Filter) (items []int, scores []float64, cached bool) {
	return e.topM(u, m, nil, filters, tm)
}

// TopMStagedTimed is TopMStaged with per-stage timing into tm (nil is
// allowed and identical to TopMStaged).
func (e *Engine) TopMStagedTimed(u, m int, stages []Stage, tm *Timings, filters ...Filter) (items []int, scores []float64, cached bool) {
	return e.topM(u, m, compactStages(stages), filters, tm)
}
