// Package rank is the transport-agnostic ranking engine behind both the
// offline evaluator and the online serving layer. A request is (scorer, m,
// filters..., stages...) and the pipeline is score → filter → select →
// rerank: the scorer writes a relevance score for every item, composable
// Filters remove candidates (training positives, per-request exclusion
// lists, item-tag allow/deny lists), selection returns the top survivors
// under a deterministic tie rule, and optional Stages re-rank the selected
// head (score floors, MMR diversity, tag boosts) over a declared
// over-fetch so the staged top-m is well-defined. A scorer that is also a
// SupportScorer lets known-user rankings score only the items that can
// score above zero, with the same result.
//
// The Engine adds the serving machinery on top of the pure pipeline:
// pooled score buffers, a sharded LRU cache keyed by a request fingerprint
// covering user, m and the filter set (so filtered requests are cacheable
// rather than wrong), and singleflight coalescing of duplicate cache
// misses — concurrent requests for the same fingerprint compute the list
// once. Transports (HTTP today; gRPC or a columnar batch path tomorrow)
// stay thin adapters over one of these entry points.
package rank

import (
	"sync"
	"sync/atomic"
	"time"
)

// Scorer produces the relevance scores a ranking starts from. Both
// eval.Recommender implementations (every algorithm in the repo) and
// core.Scorer (the mmap serving path) satisfy it.
type Scorer interface {
	// ScoreUser writes a relevance score for every item for user u into
	// dst, which has length NumItems().
	ScoreUser(u int, dst []float64)
	// NumItems reports the catalogue size ScoreUser writes.
	NumItems() int
}

// SupportScorer is the optional sparse-support path of a Scorer, which
// the engine takes on every cache miss of TopM, TopMStaged and
// TopMBatch when the scorer offers it. core's models implement it: their
// non-negative factors make every item sharing no co-cluster with the
// user score exactly 0, so only the rest need scoring.
type SupportScorer interface {
	// ScoreSupport replaces cand with the ascending items whose score for
	// user u may be nonzero, and scores with their scores, bit-identical
	// to the entries ScoreUser writes; every other item must score +0 in
	// ScoreUser. ok=false declines for this user, and the engine scores
	// densely. cand and scores are scratch the implementation may reuse.
	ScoreSupport(u int, cand []int32, scores []float64) (_ []int32, _ []float64, ok bool)
}

// Config tunes an Engine. The zero value disables caching (and with it
// coalescing, which only applies to cacheable requests).
type Config struct {
	// CacheSize is the approximate total number of cached top-M lists
	// across shards; <= 0 disables the cache.
	CacheSize int
	// CacheShards is the cache's shard count (rounded up to a power of
	// two). 0 means 16.
	CacheShards int
	// Stats, when non-nil, receives the engine's counters. Sharing one
	// Stats across successive engines (the serving layer rebuilds the
	// engine on every model reload) keeps the counters cumulative.
	Stats *Stats
}

// Stats counts an engine's cache and coalescing activity. All methods are
// safe for concurrent use. The zero value is ready.
type Stats struct {
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	ranked    atomic.Int64
	support   atomic.Int64
	scored    atomic.Int64
}

// Hits returns the number of requests answered from the cache.
func (s *Stats) Hits() int64 { return s.hits.Load() }

// Misses returns the number of requests not answered from the cache
// (including uncacheable requests and coalesced waiters' leaders).
func (s *Stats) Misses() int64 { return s.misses.Load() }

// Coalesced returns the number of duplicate concurrent misses that waited
// on another request's computation instead of ranking themselves.
func (s *Stats) Coalesced() int64 { return s.coalesced.Load() }

// Ranked returns the number of full score→filter→select computations —
// the work the cache and coalescing exist to avoid.
func (s *Stats) Ranked() int64 { return s.ranked.Load() }

// SupportRanked returns how many of the Ranked computations took the
// scorer's sparse-support path instead of scoring every item.
func (s *Stats) SupportRanked() int64 { return s.support.Load() }

// SupportCandidates returns the total number of items the sparse-support
// rankings scored (their dense counterparts score the whole catalogue).
func (s *Stats) SupportCandidates() int64 { return s.scored.Load() }

// Engine executes ranking requests over one scorer. All methods are safe
// for concurrent use. An engine is bound to an immutable scorer: the
// serving layer builds a fresh engine per model snapshot, which also makes
// cache invalidation wholesale and race-free.
type Engine struct {
	scorer  Scorer
	support SupportScorer // scorer's sparse-support path, or nil
	cache   *topCache
	flight  flightGroup
	stats   *Stats
	bufs    sync.Pool // *[]float64 of length scorer.NumItems()
	supBufs sync.Pool // *supportBuf
}

// NewEngine builds an engine ranking scorer's scores under cfg.
func NewEngine(scorer Scorer, cfg Config) *Engine {
	stats := cfg.Stats
	if stats == nil {
		stats = &Stats{}
	}
	support, _ := scorer.(SupportScorer)
	return &Engine{
		scorer:  scorer,
		support: support,
		cache:   newTopCache(cfg.CacheSize, cfg.CacheShards),
		stats:   stats,
	}
}

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return e.stats }

// CacheLen returns the number of cached top-M lists.
func (e *Engine) CacheLen() int { return e.cache.len() }

// TopM returns the top-m items for user u, with their scores, among the
// candidates surviving the filters — the cached, coalesced entry point of
// the known-user hot path. cached reports whether the list came from the
// cache (or from another request's in-flight computation). The returned
// slices are shared with the cache and must not be modified.
//
// A request is cacheable when every filter is Keyed; the cache key covers
// (u, m, filter fingerprints). Concurrent cacheable misses with equal keys
// are coalesced: one computes, the rest wait and share the result.
func (e *Engine) TopM(u, m int, filters ...Filter) (items []int, scores []float64, cached bool) {
	return e.topM(u, m, nil, filters, nil)
}

// TopMStaged is TopM followed by the request's re-rank stages: the
// pipeline selects StagesOverFetch(m, stages) candidates, runs the stages
// in order, and truncates to m. Stage keys fold into the cache
// fingerprint alongside the filter keys, so staged requests are cached
// (post-stage) and can never collide with requests differing only in
// stage configuration. An empty or all-nil stage list is byte-identical
// to TopM — same results, same cache entries.
func (e *Engine) TopMStaged(u, m int, stages []Stage, filters ...Filter) (items []int, scores []float64, cached bool) {
	return e.topM(u, m, compactStages(stages), filters, nil)
}

func (e *Engine) topM(u, m int, stages []Stage, filters []Filter, tm *Timings) (items []int, scores []float64, cached bool) {
	flat := flatten(filters)
	sel := func(m int) ([]int, []float64) { return e.rankUser(u, m, flat, tm) }
	fp, cacheable := fingerprintStaged(flat, stages)
	if !cacheable || e.cache == nil {
		e.stats.misses.Add(1)
		items, scores = e.rankStaged(sel, m, stages, tm)
		return items, scores, false
	}
	key := requestKey{user: u, m: m, filters: fp}
	if items, scores, ok := e.cache.get(key); ok {
		e.stats.hits.Add(1)
		if tm != nil {
			tm.Cached = true
		}
		return items, scores, true
	}
	c, leader := e.flight.join(key)
	if !leader {
		<-c.done
		if c.ok {
			e.stats.coalesced.Add(1)
			if tm != nil {
				tm.Cached, tm.Coalesced = true, true
			}
			return c.items, c.scores, true
		}
		// The leader failed to publish (it panicked); fall back to an
		// uncoalesced computation rather than propagating its failure.
		e.stats.misses.Add(1)
		items, scores = e.rankStaged(sel, m, stages, tm)
		e.cache.put(key, items, scores)
		return items, scores, false
	}
	if items, scores, ok := e.cache.get(key); ok {
		// A leader published between our cache miss and our join: its
		// entry is cached, so hand that to our own waiters.
		e.flight.publish(key, c, items, scores)
		e.stats.hits.Add(1)
		if tm != nil {
			tm.Cached = true
		}
		return items, scores, true
	}
	e.stats.misses.Add(1)
	published := false
	defer func() {
		if !published {
			e.flight.abandon(key, c)
		}
	}()
	items, scores = e.rankStaged(sel, m, stages, tm)
	e.cache.put(key, items, scores)
	e.flight.publish(key, c, items, scores)
	published = true
	return items, scores, false
}

// Rank runs the pipeline with a caller-supplied scoring function — the
// fold-in path, where the "user" is a factor solved per request and
// results are inherently uncacheable. score receives a pooled buffer of
// length NumItems and must fill it completely. Rank counts toward the
// ranked stat but not the cache hit/miss counters (it never consults the
// cache).
func (e *Engine) Rank(score func(dst []float64), m int, filters ...Filter) (items []int, scores []float64) {
	return e.rank(score, m, flatten(filters), nil)
}

// RankStaged is Rank followed by the request's re-rank stages — the
// fold-in path of a staged arm. Like Rank it never consults the cache.
func (e *Engine) RankStaged(score func(dst []float64), m int, stages []Stage, filters ...Filter) (items []int, scores []float64) {
	flat := flatten(filters)
	sel := func(m int) ([]int, []float64) { return e.rank(score, m, flat, nil) }
	return e.rankStaged(sel, m, compactStages(stages), nil)
}

// rank is the shared score → filter → select execution over a pooled
// buffer, compacting the survivors' scores alongside the items. A
// non-nil tm receives the score and (fused) filter+select wall times;
// nil skips the clock reads entirely.
func (e *Engine) rank(score func(dst []float64), m int, flat []Filter, tm *Timings) ([]int, []float64) {
	e.stats.ranked.Add(1)
	buf := e.getBuf()
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	score(buf)
	var t1 time.Time
	if tm != nil {
		t1 = time.Now()
		tm.Score += t1.Sub(t0)
	}
	items := selectFlat(buf, m, flat)
	scores := make([]float64, len(items))
	for n, i := range items {
		scores[n] = buf[i]
	}
	if tm != nil {
		tm.Select += time.Since(t1)
	}
	e.putBuf(buf)
	return items, scores
}

// rankUser is the ranking of known user u: over the scorer's sparse
// support when it offers one for u, densely otherwise.
func (e *Engine) rankUser(u, m int, flat []Filter, tm *Timings) ([]int, []float64) {
	if e.support != nil {
		if items, scores, ok := e.rankSupport(u, m, flat, tm); ok {
			return items, scores
		}
	}
	return e.rank(func(dst []float64) { e.scorer.ScoreUser(u, dst) }, m, flat, tm)
}

// supportBuf is the pooled scratch of one sparse-support ranking.
type supportBuf struct {
	cand   []int32
	scores []float64
}

// rankSupport ranks u from the scorer's sparse support, reporting false
// (having done no ranking) when the scorer declines. Its output is
// identical to rank's over ScoreUser; tm's Score covers ScoreSupport and
// Select the selection.
func (e *Engine) rankSupport(u, m int, flat []Filter, tm *Timings) ([]int, []float64, bool) {
	b, _ := e.supBufs.Get().(*supportBuf)
	if b == nil {
		b = &supportBuf{}
	}
	defer e.supBufs.Put(b)
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	var ok bool
	b.cand, b.scores, ok = e.support.ScoreSupport(u, b.cand, b.scores)
	if !ok {
		return nil, nil, false
	}
	e.stats.ranked.Add(1)
	e.stats.support.Add(1)
	e.stats.scored.Add(int64(len(b.cand)))
	var t1 time.Time
	if tm != nil {
		t1 = time.Now()
		tm.Score += t1.Sub(t0)
	}
	items, scores := selectSupport(e.scorer.NumItems(), b.cand, b.scores, m, flat)
	if tm != nil {
		tm.Select += time.Since(t1)
	}
	return items, scores, true
}

// rankStaged runs sel (a ranking at a given list length) at the stages'
// over-fetch, applies the stages and truncates to m. With no stages it
// is exactly sel(m).
func (e *Engine) rankStaged(sel func(m int) ([]int, []float64), m int, stages []Stage, tm *Timings) ([]int, []float64) {
	if len(stages) == 0 {
		return sel(m)
	}
	items, scores := sel(StagesOverFetch(m, stages))
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	items, scores = applyStages(m, stages, items, scores)
	if tm != nil {
		tm.Stages += time.Since(t0)
	}
	return items, scores
}

func (e *Engine) getBuf() []float64 {
	if p, ok := e.bufs.Get().(*[]float64); ok {
		return *p
	}
	return make([]float64, e.scorer.NumItems())
}

func (e *Engine) putBuf(b []float64) {
	e.bufs.Put(&b)
}

// flightGroup coalesces duplicate in-flight computations per request key —
// a minimal singleflight. The first join for a key becomes the leader and
// computes; later joins receive the same call and wait on done.
type flightGroup struct {
	mu    sync.Mutex
	calls map[requestKey]*flightCall
}

type flightCall struct {
	done    chan struct{}
	waiters int  // joins after the leader's, under flightGroup.mu
	ok      bool // set before done closes; false when the leader abandoned
	items   []int
	scores  []float64
}

// join returns the in-flight call for key, creating it when absent; leader
// reports whether the caller created it (and must publish or abandon).
func (g *flightGroup) join(key requestKey) (c *flightCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[requestKey]*flightCall)
	}
	if c, ok := g.calls[key]; ok {
		c.waiters++
		return c, false
	}
	c = &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// publish hands the leader's result to the waiters and retires the call.
func (g *flightGroup) publish(key requestKey, c *flightCall, items []int, scores []float64) {
	c.items, c.scores, c.ok = items, scores, true
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}

// abandon retires the call without a result (leader panicked); waiters
// recompute for themselves.
func (g *flightGroup) abandon(key requestKey, c *flightCall) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}
