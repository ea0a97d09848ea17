package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rank"
)

// shardRank is the shard paths' shared rank call (JSON and binary):
// the engine's partition top-M, with per-stage spans recorded when the
// request is traced.
func (s *Server) shardRank(act *obs.Active, sn *snapshot, user, m int, filters []rank.Filter) (items []int, scores []float64, cached bool) {
	if act == nil {
		return sn.engine.TopM(user, m, filters...)
	}
	var tm rank.Timings
	start := time.Now()
	items, scores, cached = sn.engine.TopMTimed(user, m, &tm, filters...)
	recordRankSpans(act, start, &tm)
	return items, scores, cached
}

// Shard mode: one serve process owning an item partition of the catalogue.
//
// A shard mmaps only its item-range slice of the v2 model file (full user
// sections, item rows [lo, hi)) and answers POST /v1/shard/topm with its
// partition's top-min(m, partition size) items under the engine's tie
// rule, item ids translated back to global. Because every item's score
// depends only on that item's factor row and the user's factor, partition
// scores are bit-identical to the corresponding entries of a
// full-catalogue scoring pass — so a router merging shard partials with
// rank.MergeTopM reproduces single-process serving exactly (same items,
// same float64 bits). See internal/cluster for the router.
//
// Shards are deliberately cacheless and stateless: the router owns the
// fingerprint cache and the singleflight, so a shard ranks every request
// it sees. They serve /v1/reload and /healthz for the trainer's quorum
// rollout, and nothing else of the full API — a shard cannot fold in,
// explain, or ingest.

// NewShardFromFile builds a shard-mode server serving the item range
// [cfg.ShardLo, cfg.ShardHi) of the v2 model at cfg.ModelPath.
// cfg.ShardHi == -1 means "through the end of the catalogue", re-resolved
// at every reload. Shard mode requires a v2 model file (the range mmap has
// no copying fallback) and refuses a Feed: ingest belongs on a full
// server or the router, not on a partition.
func NewShardFromFile(cfg Config) (*Server, error) {
	if !cfg.shardMode() {
		return nil, fmt.Errorf("serve: NewShardFromFile needs a shard range (ShardHi != 0)")
	}
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("serve: shard mode needs Config.ModelPath (shards serve from an mmapped v2 file)")
	}
	if cfg.ShardLo < 0 || (cfg.ShardHi != -1 && cfg.ShardHi <= cfg.ShardLo) {
		return nil, fmt.Errorf("serve: invalid shard range [%d,%d)", cfg.ShardLo, cfg.ShardHi)
	}
	if cfg.Feed != nil {
		return nil, fmt.Errorf("serve: shard mode takes no Feed (run ingest on a full server)")
	}
	if len(cfg.Stages) > 0 {
		return nil, fmt.Errorf("serve: shard mode takes no Stages (shards serve raw partials; the router applies stages once after the merge)")
	}
	if cfg.Registry != nil {
		return nil, fmt.Errorf("serve: shard mode takes no Registry (run the multi-model platform on full servers)")
	}
	cfg, err := checkLimits(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, rankStats: &rank.Stats{}}
	s.gate = NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait)
	s.metrics = newMetrics(endpointNames, s.rankStats)
	s.tracer = newTracer(cfg)
	s.metrics.tracer = s.tracer
	rng, err := core.OpenMappedModelRange(cfg.ModelPath, cfg.ShardLo, cfg.ShardHi)
	if err != nil {
		return nil, err
	}
	if err := s.installShard(rng); err != nil {
		_ = rng.Close()
		return nil, err
	}
	s.mux = s.buildShardMux()
	return s, nil
}

// installShard swaps in a fresh shard snapshot, retiring the current one
// into the two-deep history (see Server.prev). Guarded by reloadMu, or
// single-threaded at construction.
func (s *Server) installShard(rng *core.MappedModelRange) error {
	train, err := s.trainFor(rng.NumUsers(), rng.NumItems())
	if err != nil {
		return err
	}
	if tags := s.cfg.ItemTags; tags != nil && tags.NumItems() > rng.NumItems() {
		return fmt.Errorf("serve: item tag table covers %d items but the model has %d",
			tags.NumItems(), rng.NumItems())
	}
	rng.IndexSupport()
	sn := &snapshot{
		rng:      rng,
		train:    train,
		version:  s.version.Add(1),
		loadedAt: time.Now(),
		// CacheSize -1 disables the engine cache: shards are cacheless by
		// design — the router caches merged lists under its own
		// epoch-qualified fingerprints.
		engine: rank.NewEngine(rangeScorer{rng}, rank.Config{CacheSize: -1, Stats: s.rankStats}),
	}
	if old := s.snap.Load(); old != nil {
		s.prev.Store(old)
	}
	s.snap.Store(sn)
	return nil
}

// rangeScorer adapts the item-range mapping to the engine's Scorer and
// SupportScorer: the engine sees a catalogue of Len() partition-local
// items.
type rangeScorer struct{ rng *core.MappedModelRange }

func (r rangeScorer) ScoreUser(u int, dst []float64) { r.rng.ScoreItems(u, dst) }
func (r rangeScorer) NumItems() int                  { return r.rng.Len() }
func (r rangeScorer) ScoreSupport(u int, cand []int32, scores []float64) ([]int32, []float64, bool) {
	return r.rng.ScoreSupport(u, cand, scores)
}

// numUsers and numItems read the served catalogue shape in either mode —
// shard snapshots carry no *core.Model. numItems is always the FULL
// catalogue size, not the partition's: request validation (user ids,
// exclude lists, tag tables) speaks global ids on shards too.
func (sn *snapshot) numUsers() int {
	if sn.rng != nil {
		return sn.rng.NumUsers()
	}
	return sn.model.NumUsers()
}

func (sn *snapshot) numItems() int {
	if sn.rng != nil {
		return sn.rng.NumItems()
	}
	return sn.model.NumItems()
}

func (s *Server) buildShardMux() *http.ServeMux {
	// Only the data path is gated; reload, health, readiness and metrics
	// must keep working on an overloaded shard.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/topm", s.metrics.instrument("shard_topm", s.gate.Wrap(s.handleShardTopM)))
	if !s.cfg.DisableBinaryBatch {
		mux.HandleFunc("POST /v2/shard/topm", s.metrics.instrument("shard_topm_binary", s.gate.Wrap(s.handleShardTopMBinary)))
	}
	mux.HandleFunc("POST /v1/reload", s.metrics.instrument("reload", s.handleReload))
	mux.HandleFunc("GET /healthz", s.metrics.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.metrics.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.metrics.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.metrics.instrument("debug_traces", s.handleDebugTraces))
	return mux
}

// DeadlineHeader carries the caller's remaining deadline budget in
// integer milliseconds — the router stamps it on every shard call from
// the attempt context's deadline. A shard receiving it aborts work whose
// budget has already expired (504) instead of scoring for a caller that
// stopped listening. Absent or malformed, no deadline applies.
const DeadlineHeader = "X-Ocular-Deadline-Ms"

// deadlineFromHeader resolves the propagated budget to an absolute local
// deadline at arrival time. Network transit already spent part of the
// budget the router computed, so the resolved deadline errs late — the
// check is a work-shedding optimization, never a correctness gate.
func deadlineFromHeader(r *http.Request) (time.Time, bool) {
	v := r.Header.Get(DeadlineHeader)
	if v == "" {
		return time.Time{}, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond), true
}

// ShardTopMRequest asks a shard for its partition's contribution to one
// user's top-M. ExpectVersion pins the model version the partial must be
// computed against: a shard serving neither that version currently nor as
// its immediate predecessor answers 409, so a router can never merge
// partials from different model versions. 0 disables the pin (debugging).
type ShardTopMRequest struct {
	User          int         `json:"user"`
	M             int         `json:"m,omitempty"`
	ExcludeItems  []int       `json:"exclude_items,omitempty"`
	Filter        *FilterSpec `json:"filter,omitempty"`
	ExpectVersion uint64      `json:"expect_version,omitempty"`
}

// ShardTopMResponse is one partition's top-min(m, partition size) items,
// global ids, ordered by the engine's tie rule (descending score, ties by
// ascending item).
type ShardTopMResponse struct {
	User         int          `json:"user"`
	ShardLo      int          `json:"shard_lo"`
	ShardHi      int          `json:"shard_hi"`
	ModelVersion uint64       `json:"model_version"`
	Items        []ScoredItem `json:"items"`
}

func (s *Server) handleShardTopM(w http.ResponseWriter, r *http.Request) int {
	deadline, hasDeadline := deadlineFromHeader(r)
	var req ShardTopMRequest
	if err := s.decode(w, r, &req); err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	// First budget check after the body read: a slow client (or a router
	// whose attempt budget was nearly gone when it sent) should not get a
	// scoring pass it can no longer use.
	if hasDeadline && !time.Now().Before(deadline) {
		s.metrics.deadlineAborts.Add(1)
		return writeError(w, http.StatusGatewayTimeout, "deadline budget expired before scoring")
	}
	m, err := s.clampM(req.M)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	sn := s.snap.Load()
	if req.ExpectVersion != 0 && sn.version != req.ExpectVersion {
		// Mid-rollout window: this shard already reloaded but the router
		// still pins the old version until the whole quorum confirmed.
		// Serve the pinned version from the two-deep history; refuse
		// anything else — a 409 here is what makes merging partials of
		// mixed model versions impossible rather than merely unlikely.
		if prev := s.prev.Load(); prev != nil && prev.version == req.ExpectVersion {
			sn = prev
		} else {
			return writeError(w, http.StatusConflict, fmt.Sprintf(
				"shard serves model version %d, not the requested %d", sn.version, req.ExpectVersion))
		}
	}
	if req.User < 0 || req.User >= sn.numUsers() {
		return writeError(w, http.StatusBadRequest,
			fmt.Sprintf("user %d out of range (%d users)", req.User, sn.numUsers()))
	}
	extra, err := s.requestFilters(sn, req.ExcludeItems, req.Filter)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err.Error())
	}
	// Same filter stack as recommendOne, rebased into partition-local
	// index space; the training-row exclusion keeps the offline protocol
	// on shards too.
	lo, hi := sn.rng.ItemLo(), sn.rng.ItemHi()
	filters := make([]rank.Filter, 0, len(extra)+1)
	filters = append(filters, rank.OffsetRange(rank.TrainRow(sn.train, req.User), lo, hi))
	for _, f := range extra {
		filters = append(filters, rank.OffsetRange(f, lo, hi))
	}
	// Second check on the brink of the expensive part — the full
	// partition scoring pass is the work worth shedding.
	if hasDeadline && !time.Now().Before(deadline) {
		s.metrics.deadlineAborts.Add(1)
		return writeError(w, http.StatusGatewayTimeout, "deadline budget expired before scoring")
	}
	items, scores, _ := s.shardRank(obs.ActiveFrom(r.Context()), sn, req.User, m, filters)
	scored := make([]ScoredItem, len(items))
	for n := range items {
		scored[n] = ScoredItem{Item: items[n] + lo, Score: scores[n]}
	}
	return writeJSON(w, http.StatusOK, ShardTopMResponse{
		User:         req.User,
		ShardLo:      lo,
		ShardHi:      hi,
		ModelVersion: sn.version,
		Items:        scored,
	})
}
