package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/trainer"
)

// workloadInfo names a workload and records why it was chosen.
type workloadInfo struct {
	name string
	why  string
}

var workloads = []workloadInfo{
	{"cold-recommend", "uniform users miss the cache, so core scoring and rank filter/select do most of the work in one serve process; ranking gains must show here. Tail and rate are printed only: host steal sets them"},
	{"hot-cluster", "Zipf users: batch frames hit the router cache (edge, codecs, cache) and open-loop misses take the shard scatter and merge; the no-change control for ranking"},
	{"ingest-retrain", "gated figures are the retrained, grown model's serving after ingest writes, a trainer cycle and a reload; the cycle, ingest and reload figures are printed only"},
}

// inputs is a generated input directory, loaded once per process for
// building schedules and checking answers. The serving tier reads its
// own copies of the files during set-up.
type inputs struct {
	dir     string
	seed    uint64
	sc      Scale
	train   *sparse.Matrix
	heldout *sparse.Matrix
	// hot lists the users by descending training positives (ties by
	// id): Zipf rank r draws user hot[r], so active users ask most.
	hot []int
	// recallUsers is the fixed sample recall@50 is computed on: users
	// with held-out positives, none of which is ever ingested.
	recallUsers []int
	// zipfCum holds the cumulative Zipf(ZipfS) weights of the ranks of
	// hot, normalized to end at 1.
	zipfCum []float64
}

func loadInputs(dir string, seed uint64, sc Scale) (*inputs, error) {
	if _, err := os.Stat(filepath.Join(dir, doneFile)); err != nil {
		return nil, fmt.Errorf("inputs at %s are incomplete (run the gen step first): %w", dir, err)
	}
	train, err := readMatrix(filepath.Join(dir, trainFile))
	if err != nil {
		return nil, err
	}
	heldout, err := readMatrix(filepath.Join(dir, heldoutFile))
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir, seed: seed, sc: sc, train: train, heldout: heldout}
	in.hot = make([]int, train.Rows())
	for u := range in.hot {
		in.hot[u] = u
	}
	sort.SliceStable(in.hot, func(a, b int) bool { return train.RowNNZ(in.hot[a]) > train.RowNNZ(in.hot[b]) })
	in.zipfCum = make([]float64, len(in.hot))
	total := 0.0
	for k := range in.zipfCum {
		total += math.Pow(float64(k+1), -sc.ZipfS)
		in.zipfCum[k] = total
	}
	for k := range in.zipfCum {
		in.zipfCum[k] /= total
	}
	r := rng.New(seed ^ 0x5eed)
	for _, u := range r.Perm(train.Rows()) {
		if len(in.recallUsers) == sc.RecallUsers {
			break
		}
		if heldout.RowNNZ(u) > 0 {
			in.recallUsers = append(in.recallUsers, u)
		}
	}
	return in, nil
}

// userDraw draws users for a schedule.
type userDraw func() int

func (in *inputs) uniform(r *rng.RNG) userDraw {
	return func() int { return r.Intn(in.sc.Users) }
}

func (in *inputs) zipf(r *rng.RNG) userDraw { return in.zipfTop(r, len(in.hot)) }

// zipfTop draws from the Zipf distribution restricted to the n most
// active users.
func (in *inputs) zipfTop(r *rng.RNG, n int) userDraw {
	return func() int {
		// Inverse transform over the cumulative Zipf weights of hot.
		u := r.Float64() * in.zipfCum[n-1]
		return in.hot[sort.SearchFloat64s(in.zipfCum[:n-1], u)]
	}
}

// closedRNG derives the generator of closed-loop request i, so a closed
// loop draws its requests on demand and the same index always yields the
// same request.
func (in *inputs) closedRNG(salt uint64, i int) *rng.RNG {
	return rng.New(in.seed ^ salt ^ uint64(i+1)*0x9e3779b97f4a7c15)
}

// coldRequest is one cold-recommend read: m=50, the training positives
// excluded, and for three in ten a 100-item exclude list plus the tag
// deny filter on top.
func (in *inputs) coldRequest(r *rng.RNG, draw userDraw) *request {
	u := draw()
	if r.Bernoulli(0.3) {
		return recommendRequest(u, 50, r.Sample(in.sc.Items, 100), true)
	}
	return recommendRequest(u, 50, nil, false)
}

// openSchedule spaces n requests at a fixed rate.
func openSchedule(rate float64, n int, next func() *request) []timed {
	out := make([]timed, n)
	for k := range out {
		out[k] = timed{at: time.Duration(float64(k) / rate * float64(time.Second)), req: next()}
	}
	return out
}

// recallRequests asks for the recall sample's lists, m=50, in /v2/batch
// frames of 16 users.
func (in *inputs) recallRequests() []*request {
	var out []*request
	for lo := 0; lo < len(in.recallUsers); lo += 16 {
		out = append(out, batchRequest(in.recallUsers[lo:min(lo+16, len(in.recallUsers))], 50))
	}
	return out
}

// phaseStat counts one phase's requests.
type phaseStat struct {
	name             string
	sent, ok, failed int
	dur              time.Duration
}

// pass is everything one pass over a workload measured.
type pass struct {
	workload string
	traced   bool
	setup    dist // seconds
	phases   []phaseStat
	open     []*result // open-loop reads
	writes   []*result // open-loop ingest writes
	closed   []*result // the closed windows' kept results
	windows  []window  // the closed windows
	// closedRate is closed-loop read lists (users, for batch frames)
	// answered per second over all the closed windows. The windows'
	// own rates swing by a third on a shared host; their mean moves
	// less than their median, which jumps between a fast and a slow
	// mode.
	closedRate float64
	recallRes  []*result
	recall     float64
	recallN    int      // lists recall is averaged over
	modelPath  string   // the model file serving when the pass ended
	problems   []string // failed output checks
	checked    int      // lists recomputed by the checks
	rssMB      float64
	// steal is the share of the machine's CPU time the hypervisor took
	// during the measured phases, or -1 where /proc/stat is unreadable.
	steal float64
	// ranked is the number of full rankings the ranking servers did
	// during the measured phases.
	ranked int64
	// ingest-retrain
	cycle      *trainer.Cycle
	cycleStart time.Time
	cycleEnd   time.Time
	iterEnds   []time.Time
	// traced runs
	spans  []span
	trees  []*tree
	layers []metric
	tables []string
}

func (p *pass) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// measureRounds is how many open/closed window pairs a workload
// alternates (see client.runRounds).
const measureRounds = 20

// addRounds records interleaved open- and closed-loop windows and sets
// closedRate. A pass runs its rounds once.
func (p *pass) addRounds(r rounds) {
	p.open = append(p.open, r.open...)
	p.addPhase("open", r.open, r.openTime)
	closed := phaseStat{name: "closed", dur: r.closedTime}
	for _, w := range r.windows {
		p.closed = append(p.closed, w.kept...)
		closed.sent += w.sent
		closed.failed += w.failed
	}
	closed.ok = closed.sent - closed.failed
	p.phases = append(p.phases, closed)
	p.windows = append(p.windows, r.windows...)
	lists, _ := p.closedCount()
	p.closedRate = float64(lists) / r.closedTime.Seconds()
}

// closedCount totals the lists the closed windows answered and how many
// of them came from a cache.
func (p *pass) closedCount() (lists, hits int) {
	for _, w := range p.windows {
		lists += w.lists
		hits += w.hits
	}
	return lists, hits
}

func (p *pass) addPhase(name string, rs []*result, dur time.Duration) {
	st := phaseStat{name: name, sent: len(rs), dur: dur}
	for _, r := range rs {
		if r.ok() {
			st.ok++
		} else {
			st.failed++
		}
	}
	p.phases = append(p.phases, st)
}

// attempted and failed count every operation of the pass: requests of
// every phase plus the lists the output checks recomputed.
func (p *pass) counts() (attempted, failed int) {
	for _, st := range p.phases {
		attempted += st.sent
		failed += st.failed
	}
	attempted += p.checked
	failed += len(p.problems)
	return attempted, failed
}

// env is the per-pass context the workload functions share.
type env struct {
	in      *inputs
	work    string
	seconds float64
	conns   int
	rec     *recorder // nil in the untraced pass
}

func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// setUp builds the tier SetupReps times, each time up to and including
// a warm-up, and keeps the last one. Each set-up is timed from its start
// to the moment the tier is ready for the first timed request.
func (e *env) setUp(p *pass, start func() (*tier, error), warm func(*tier) error) (*tier, error) {
	var t *tier
	for rep := 0; rep < e.in.sc.SetupReps; rep++ {
		if t != nil {
			// The serving tier has no call that unmaps its model: a GC
			// cleanup does, once the replaced tier is unreachable.
			t.close()
			t = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if t, err = start(); err != nil {
			return nil, err
		}
		if err := warm(t); err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p.setup.add(time.Since(t0).Seconds())
	}
	return t, nil
}

// warmUp sends a few reads for the least active users, so connections
// and pools are warm without filling the cache for users the schedules
// ask for often.
func (e *env) warmUp(t *tier) error {
	c := newClient(e.conns, nil)
	defer c.close()
	n := len(e.in.hot)
	reqs := []*request{batchRequest([]int{e.in.hot[n-1], e.in.hot[n-2]}, 20)}
	for k := 3; k < 11; k++ {
		reqs = append(reqs, recommendRequest(e.in.hot[n-k], 20, nil, false))
	}
	for _, r := range c.runAll(context.Background(), t.front, "warm-up", reqs) {
		if !r.ok() {
			return r.err
		}
	}
	return nil
}

// prefill asks once, untimed, for the lists of users (m=20) in /v2/batch
// frames of 16, so the router cache holds them before the timed phases.
func (e *env) prefill(t *tier, users []int) error {
	c := newClient(e.conns, nil)
	defer c.close()
	var reqs []*request
	for lo := 0; lo < len(users); lo += 16 {
		reqs = append(reqs, batchRequest(users[lo:min(lo+16, len(users))], 20))
	}
	for _, r := range c.runAll(context.Background(), t.front, "prefill", reqs) {
		if !r.ok() {
			return fmt.Errorf("prefill: %w", r.err)
		}
	}
	return nil
}

// measure runs the workload's timed phases against t, polling the
// program's trace rings throughout in a traced pass.
func (e *env) measure(p *pass, t *tier, rankers []*listener, phases func(c *client)) error {
	c := newClient(e.conns, e.rec)
	defer c.close()
	ctx := context.Background()
	before, err := rankedCount(ctx, c.hc, rankers)
	if err != nil {
		return err
	}
	steal0, total0, statOK := cpuTicks()
	var col *collector
	var colErr error
	var wg sync.WaitGroup
	stop := func() {}
	if e.rec != nil {
		e.rec.reset() // drop the set-up's warm-up spans
		col = newCollector(t.listeners)
		cctx, cancel := context.WithCancel(ctx)
		stop = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			colErr = col.run(cctx, 25*time.Millisecond)
		}()
	}
	phases(c)
	stop()
	wg.Wait()
	p.steal = -1
	if steal1, total1, ok := cpuTicks(); ok && statOK && total1 > total0 {
		p.steal = (steal1 - steal0) / (total1 - total0)
	}
	after, err := rankedCount(ctx, c.hc, rankers)
	if err != nil {
		return err
	}
	p.ranked = after - before
	// The peak is read before the recall pass and the output checks,
	// which map the model again for their reference rankings.
	p.rssMB = peakRSSMB()
	if col != nil {
		if colErr != nil {
			return fmt.Errorf("polling /debug/traces: %w", colErr)
		}
		p.spans = append(e.rec.reset(), col.programSpans()...)
		p.trees = buildTrees(p.spans)
	}
	return nil
}

// recallPass fetches the recall sample's lists (untimed) and scores
// them against the held-out positives.
func (e *env) recallPass(p *pass, base string) {
	c := newClient(e.conns, nil)
	defer c.close()
	p.recallRes = c.runAll(context.Background(), base, "recall", e.in.recallRequests())
	p.addPhase("recall", p.recallRes, 0)
	sum, n := 0.0, 0
	for _, r := range p.recallRes {
		for _, l := range r.lists {
			held := e.in.heldout.Row(l.user)
			hits := 0
			for _, i := range l.items {
				if i < e.in.heldout.Cols() && e.in.heldout.Has(l.user, i) {
					hits++
				}
			}
			sum += float64(hits) / float64(len(held))
			n++
		}
	}
	if n > 0 {
		p.recall, p.recallN = sum/float64(n), n
	}
	if n != len(e.in.recallUsers) {
		p.problem("recall: %d of %d sample lists served", n, len(e.in.recallUsers))
	}
}

// runCold is cold-recommend: one serve process; an open loop of uniform
// reads at ColdRate for half the run, interleaved with a closed loop
// over e.conns connections for the other half.
func runCold(e *env, p *pass) error {
	sc := e.in.sc
	modelPath := filepath.Join(e.in.dir, modelFile)
	p.modelPath = modelPath
	t, err := e.setUp(p, func() (*tier, error) { return startSingle(e.in, modelPath, "", e.rec) }, e.warmUp)
	if err != nil {
		return err
	}
	defer t.close()
	r := rng.New(e.in.seed ^ 0xc01d)
	draw := e.in.uniform(r)
	openDur := e.dur(0.5)
	sched := openSchedule(sc.ColdRate, int(sc.ColdRate*openDur.Seconds()), func() *request { return e.in.coldRequest(r, draw) })
	closed := func(i int) *request {
		r := e.in.closedRNG(0xc105ed, i)
		return e.in.coldRequest(r, e.in.uniform(r))
	}
	err = e.measure(p, t, t.listeners, func(c *client) {
		p.addRounds(c.runRounds(context.Background(), t.front, sched, openDur, closed, e.dur(0.5), measureRounds))
	})
	if err != nil {
		return err
	}
	e.recallPass(p, t.front)
	ref, err := newReference(e.in, modelPath)
	if err != nil {
		return err
	}
	defer ref.close()
	p.checkLists(ref, sampleLists(sc.CheckLists, p.open, p.closed, p.recallRes))
	return nil
}

// runHot is hot-cluster: a router over two item-range shards, all router
// settings at their defaults. An open loop of Zipf /v1/recommend reads
// (m=20) at HotRate for half the run, interleaved with a closed loop of
// /v2/batch frames of 16 users for the other half. The frames draw from
// the Zipf distribution of the HotActive most active users, whose lists
// an untimed prefill puts in the router cache: the closed loop measures
// the hit path (edge, codecs, cache), and the open loop's misses the
// scatter, shard calls and merge. With every user eligible, the 2% of
// lists that miss would set the frame rate; without the prefill, the
// rarest active users would trickle in as misses all run long.
func runHot(e *env, p *pass) error {
	sc := e.in.sc
	modelPath := filepath.Join(e.in.dir, modelFile)
	p.modelPath = modelPath
	t, err := e.setUp(p, func() (*tier, error) { return startCluster(e.in, modelPath, e.rec) }, e.warmUp)
	if err != nil {
		return err
	}
	defer t.close()
	r := rng.New(e.in.seed ^ 0x407)
	draw := e.in.zipf(r)
	openDur := e.dur(0.5)
	sched := openSchedule(sc.HotRate, int(sc.HotRate*openDur.Seconds()), func() *request {
		return recommendRequest(draw(), 20, nil, false)
	})
	frames := func(i int) *request {
		draw := e.in.zipfTop(e.in.closedRNG(0xf4a3e, i), sc.HotActive)
		users := make([]int, 16)
		for n := range users {
			users[n] = draw()
		}
		return batchRequest(users, 20)
	}
	if err := e.prefill(t, e.in.hot[:sc.HotActive]); err != nil {
		return err
	}
	err = e.measure(p, t, t.byName("cluster.shard_handler"), func(c *client) {
		p.addRounds(c.runRounds(context.Background(), t.front, sched, openDur, frames, e.dur(0.5), measureRounds))
	})
	if err != nil {
		return err
	}
	e.recallPass(p, t.front)
	ref, err := newReference(e.in, modelPath)
	if err != nil {
		return err
	}
	defer ref.close()
	// The router's merges must equal the single-process answer.
	p.checkLists(ref, sampleLists(sc.CheckLists, p.open, p.closed, p.recallRes))
	return nil
}

// ingestEvents builds the write schedule's payloads: held-out positives
// of users outside the recall sample, with two events in every request
// naming items past the catalogue (cycling through all NewItems of
// them), 16 events per request.
func (in *inputs) ingestEvents(r *rng.RNG, requests int) [][][2]int {
	recall := make(map[int]bool, len(in.recallUsers))
	for _, u := range in.recallUsers {
		recall[u] = true
	}
	var pool [][2]int
	for _, u := range r.Perm(in.sc.Users) {
		if recall[u] {
			continue
		}
		for _, i := range in.heldout.Row(u) {
			pool = append(pool, [2]int{u, int(i)})
		}
		if len(pool) >= requests*14 {
			break
		}
	}
	out := make([][][2]int, requests)
	newItem := 0
	for k := range out {
		for n := 0; n < 14 && len(pool) > 0; n++ {
			out[k] = append(out[k], pool[0])
			pool = pool[1:]
		}
		for n := 0; n < 2; n++ {
			out[k] = append(out[k], [2]int{r.Intn(in.sc.Users), in.sc.Items + newItem%in.sc.NewItems})
			newItem++
		}
	}
	return out
}

// runIngest is ingest-retrain: one serve process with a feed. Zipf reads
// (m=50) arrive at IngestReadRate throughout; /v1/ingest writes arrive
// at IngestWriteRate for the first 12% of the run. Once every write is
// acknowledged, one trainer cycle runs while the reads continue: replay,
// warm-start training for RetrainIter iterations on nproc−1 workers, a
// float32 artifact, the reload handshake and a cache warm. That first
// open-loop phase ends once 30% of the run has passed and reads have
// continued for 8% of it after the rollout. Then measureRounds rounds
// alternate more Zipf reads (15% of the run in all) with a closed loop
// of uniform reads — the retrained, grown model's read capacity, nearly
// all cache misses — (40%). The read rate gives the reads after the
// cycle, which the latency metrics cover, a p99 of their own (see
// endToEnd).
func runIngest(e *env, p *pass) error {
	sc := e.in.sc
	workDir := filepath.Join(e.work, "ingest")
	if err := os.RemoveAll(workDir); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	origModel := filepath.Join(e.in.dir, modelFile)
	modelPath := filepath.Join(workDir, modelFile)
	p.modelPath = modelPath
	// The trainer replaces the served file by rename, never in place, so
	// a hard link keeps the generated input intact.
	if err := os.Link(origModel, modelPath); err != nil {
		return fmt.Errorf("linking the model file: %w", err)
	}
	feedDir := filepath.Join(workDir, "feed")
	start := func() (*tier, error) {
		if err := os.RemoveAll(feedDir); err != nil {
			return nil, err
		}
		return startSingle(e.in, modelPath, feedDir, e.rec)
	}
	t, err := e.setUp(p, start, e.warmUp)
	if err != nil {
		return err
	}
	defer t.close()

	r := rng.New(e.in.seed ^ 0x1a6e57)
	draw := e.in.zipf(r)
	writeDur := e.dur(0.12)
	nWrites := max(1, int(sc.IngestWriteRate*writeDur.Seconds()))
	events := e.in.ingestEvents(r, nWrites)
	writes := make([]timed, nWrites)
	for k := range writes {
		writes[k] = timed{at: time.Duration(float64(k) / sc.IngestWriteRate * float64(time.Second)), req: ingestRequest(events[k])}
	}
	// Reads are generated for a whole run's worth of time; the stop rule
	// below ends the phase.
	reads := openSchedule(sc.IngestReadRate, int(sc.IngestReadRate*e.dur(1).Seconds()), func() *request {
		return recommendRequest(draw(), 50, nil, false)
	})
	after := openSchedule(sc.IngestReadRate, int(sc.IngestReadRate*e.dur(0.15).Seconds()), func() *request {
		return recommendRequest(draw(), 50, nil, false)
	})
	closed := func(i int) *request {
		return recommendRequest(e.in.closedRNG(0x1e57, i).Intn(sc.Users), 50, nil, false)
	}

	tr, err := trainer.New(trainer.Config{
		FeedDir: feedDir, Base: e.in.train, ModelPath: modelPath,
		Train: core.Config{
			K: sc.K, Lambda: sc.Lambda, MaxIter: sc.RetrainIter, Tol: 1e-12, Seed: e.in.seed,
			Workers: max(1, runtime.NumCPU()-1),
			OnIteration: func(int, float64) {
				p.iterEnds = append(p.iterEnds, time.Now())
			},
		},
		Save:           core.SaveOptions{Float32: true},
		ServerURL:      t.front,
		WarmCacheUsers: sc.WarmCacheUsers,
		WarmCacheM:     50,
	})
	if err != nil {
		return err
	}
	var cycleDone atomic.Bool
	var cycleErr error
	var rolledOut atomic.Int64 // UnixNano of the cycle's end
	err = e.measure(p, t, t.listeners, func(c *client) {
		ctx := context.Background()
		phaseStart := time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.writes = c.runOpen(ctx, t.front, "ingest", writes, nil)
			if err := t.feed.Sync(); err != nil {
				cycleErr = err
				cycleDone.Store(true)
				return
			}
			p.cycleStart = time.Now()
			p.cycle, cycleErr = tr.RunOnce(ctx)
			// A deployed trainer is its own process, and its heap never
			// burdens the server's collector. Here it shares the
			// process, so its garbage is collected once, before the
			// cycle window closes, rather than by whichever later
			// collection happens to land in a measured phase.
			tr = nil
			runtime.GC()
			p.cycleEnd = time.Now()
			rolledOut.Store(p.cycleEnd.UnixNano())
			cycleDone.Store(true)
		}()
		minOpen, post := e.dur(0.3), e.dur(0.08)
		p.open = c.runOpen(ctx, t.front, "open", reads, func(at time.Duration) bool {
			if at < minOpen || !cycleDone.Load() {
				return false
			}
			return time.Since(time.Unix(0, rolledOut.Load())) >= post
		})
		wg.Wait()
		p.addPhase("open-cycle", p.open, time.Since(phaseStart))
		p.addPhase("ingest", p.writes, p.writes[len(p.writes)-1].done.Sub(phaseStart))
		p.addRounds(c.runRounds(ctx, t.front, after, e.dur(0.15), closed, e.dur(0.4), measureRounds))
	})
	if err != nil {
		return err
	}
	if cycleErr != nil {
		return fmt.Errorf("trainer cycle: %w", cycleErr)
	}
	e.recallPass(p, t.front)
	return p.checkRollout(e, t, origModel, modelPath)
}

// checkRollout checks the ingest-retrain answers: lists served before
// the rollout against the generated model, lists served after it against
// the new artifact, and that the served version advanced and the grown
// catalogue is served.
func (p *pass) checkRollout(e *env, t *tier, origModel, newModel string) error {
	sc := e.in.sc
	var before, after []*result
	for _, rs := range [][]*result{p.open, p.closed, p.recallRes} {
		for _, r := range rs {
			switch {
			case !r.ok():
			case r.version == 1:
				before = append(before, r)
			case r.version == 2:
				after = append(after, r)
			default:
				p.problem("list served under model version %d; only 1 and 2 exist", r.version)
			}
			if r.ok() && r.sent.After(p.cycleEnd) && r.version != 2 {
				p.problem("request sent after the rollout answered from version %d", r.version)
			}
		}
	}
	for _, r := range p.recallRes {
		if r.ok() && r.version != 2 {
			p.problem("recall list served from version %d, want 2", r.version)
		}
	}
	// The closed windows run after the cycle; they count their answers
	// rather than keep them all.
	for _, w := range p.windows {
		if w.lists > 0 && (w.minVersion != 2 || w.maxVersion != 2) {
			p.problem("closed-loop reads after the rollout answered from versions %d to %d, want 2", w.minVersion, w.maxVersion)
		}
	}
	old, err := newReference(e.in, origModel)
	if err != nil {
		return err
	}
	defer old.close()
	p.checkLists(old, sampleLists(sc.CheckLists, before))
	cur, err := newReference(e.in, newModel)
	if err != nil {
		return err
	}
	defer cur.close()
	if got, want := cur.mm.NumItems(), sc.Items+sc.NewItems; got != want {
		p.problem("new artifact has %d items, want %d (catalogue not grown)", got, want)
	}
	p.checkLists(cur, sampleLists(sc.CheckLists, after))
	var h struct {
		ModelVersion uint64 `json:"model_version"`
	}
	c := newClient(1, nil)
	defer c.close()
	if err := getJSON(context.Background(), c.hc, t.front+"/healthz", &h); err != nil {
		return err
	}
	if items := t.server.Model().NumItems(); h.ModelVersion != 2 || items != sc.Items+sc.NewItems {
		p.problem("after the rollout the server reports version %d over %d items, want 2 over %d",
			h.ModelVersion, items, sc.Items+sc.NewItems)
	}
	// A request naming the newest item is valid only on the grown
	// catalogue.
	newest := sc.Items + sc.NewItems - 1
	rs := c.runAll(context.Background(), t.front, "grown", []*request{recommendRequest(e.in.recallUsers[0], 50, []int{newest}, false)})
	p.addPhase("grown-catalogue", rs, 0)
	if rs[0].ok() {
		p.checkLists(cur, sampleLists(1, rs))
	}
	return nil
}

// runPass runs one pass of the named workload.
func runPass(name string, e *env) (*pass, error) {
	p := &pass{workload: name, traced: e.rec != nil}
	var err error
	switch name {
	case "cold-recommend":
		err = runCold(e, p)
	case "hot-cluster":
		err = runHot(e, p)
	case "ingest-retrain":
		err = runIngest(e, p)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	if len(p.open) == 0 {
		return nil, errors.New("the open loop sent nothing")
	}
	return p, nil
}
