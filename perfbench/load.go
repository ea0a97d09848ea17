package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// reqKind is the operation a request performs.
type reqKind int

const (
	kindRecommend reqKind = iota // POST /v1/recommend, JSON
	kindBatch                    // POST /v2/batch, binary frame
	kindIngest                   // POST /v1/ingest, JSON
)

func (k reqKind) path() string {
	switch k {
	case kindBatch:
		return "/v2/batch"
	case kindIngest:
		return "/v1/ingest"
	}
	return "/v1/recommend"
}

func (k reqKind) read() bool { return k != kindIngest }

// request is one pre-encoded operation of a schedule, with what the
// output checks need to recompute its answer.
type request struct {
	kind    reqKind
	body    []byte
	users   []int // the recommended user(s); the ingest events' users
	m       int
	exclude []int
	deny    bool
	events  int // ingest: number of events carried
}

func recommendRequest(user, m int, exclude []int, deny bool) *request {
	req := serve.RecommendRequest{User: user, M: m, ExcludeItems: exclude}
	if deny {
		req.Filter = &serve.FilterSpec{DenyTags: []string{denyTag}}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return &request{kind: kindRecommend, body: body, users: []int{user}, m: m, exclude: exclude, deny: deny}
}

func batchRequest(users []int, m int) *request {
	wr := wire.BatchRequest{M: uint32(m), Users: make([]uint32, len(users))}
	for n, u := range users {
		wr.Users[n] = uint32(u)
	}
	body, err := wire.AppendBatchRequest(nil, &wr)
	if err != nil {
		panic(err) // no tags: always representable
	}
	return &request{kind: kindBatch, body: body, users: users, m: m}
}

func ingestRequest(events [][2]int) *request {
	evs := make([]serve.IngestEvent, len(events))
	users := make([]int, len(events))
	for n, e := range events {
		u, i := e[0], e[1]
		evs[n] = serve.IngestEvent{User: &u, Item: &i}
		users[n] = u
	}
	body, err := json.Marshal(serve.IngestRequest{Events: evs})
	if err != nil {
		panic(err)
	}
	return &request{kind: kindIngest, body: body, users: users, events: len(events)}
}

// list is one served top-M list.
type list struct {
	user   int
	items  []int
	scores []float64
	cached bool
}

// result is the outcome of one request.
type result struct {
	req     *request
	phase   string
	due     time.Time // scheduled send (open loop) or send (closed loop)
	sent    time.Time
	done    time.Time
	late    time.Duration // dispatcher lateness behind the schedule
	err     error
	version uint64 // model version (serve) or route epoch (router)
	n, hits int    // reads: lists answered, and how many came from a cache
	lists   []list // reads, when kept: one per user
	bytes   int    // response body size
	traceID string
	// keep retains the lists for the output checks. Only every
	// keepEvery-th timed result keeps them.
	keep bool
}

// keepEvery is the share of timed results whose lists are kept, and
// keepPerWindow caps the kept results of one connection's closed-loop
// window.
const keepEvery, keepPerWindow = 16, 32

func (r *result) ok() bool { return r.err == nil }

// latency is the client-observed latency, from the scheduled send.
func (r *result) latency() time.Duration { return r.done.Sub(r.due) }

// client is the benchmark's load generator: one process, one transport
// holding at most conns connections to each server.
type client struct {
	hc    *http.Client
	conns int
	rec   *recorder // nil unless the run is traced
	seq   atomic.Uint64
}

func newClient(conns int, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, conns: conns, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req to base and parses the answer into res.
func (c *client) do(ctx context.Context, base string, res *result) {
	req := res.req
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+req.kind.path(), bytes.NewReader(req.body))
	if err != nil {
		res.err = err
		return
	}
	if req.kind == kindBatch {
		hreq.Header.Set("Content-Type", serve.FrameContentType)
	} else {
		hreq.Header.Set("Content-Type", "application/json")
	}
	// A traced pass traces every request but the closed loop's unkept
	// ones, which are only counted: their ids tell the middleware and
	// the collector to drop their spans.
	switch {
	case c.rec == nil:
	case res.phase == "closed" && !res.keep:
		hreq.Header.Set(obs.TraceHeader, untracedIDPrefix+strconv.FormatUint(c.seq.Add(1), 36))
	default:
		res.traceID = "pb" + strconv.FormatUint(c.seq.Add(1), 36)
		hreq.Header.Set(obs.TraceHeader, res.traceID)
	}
	res.sent = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		res.done = time.Now()
		res.err = err
		c.record(res)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	c.record(res)
	res.bytes = len(body)
	switch {
	case err != nil:
		res.err = err
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("%s: HTTP %d: %.200s", req.kind.path(), resp.StatusCode, body)
	default:
		res.err = parseResponse(req, body, res)
	}
}

func (c *client) record(res *result) {
	if c.rec != nil && res.traceID != "" {
		c.rec.add(span{trace: res.traceID, name: "client", start: res.sent, end: res.done})
	}
}

// recommendResponse covers both the serve and the router answer.
type recommendResponse struct {
	User         int                `json:"user"`
	Items        []serve.ScoredItem `json:"items"`
	Cached       bool               `json:"cached"`
	ModelVersion uint64             `json:"model_version"`
	RouteEpoch   uint64             `json:"route_epoch"`
	Degraded     bool               `json:"degraded"`
}

func parseResponse(req *request, body []byte, res *result) error {
	switch req.kind {
	case kindRecommend:
		var rr recommendResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			return fmt.Errorf("/v1/recommend: %w", err)
		}
		if rr.User != req.users[0] || rr.Degraded {
			return fmt.Errorf("/v1/recommend: answer for user %d (degraded=%v), asked %d", rr.User, rr.Degraded, req.users[0])
		}
		res.n = 1
		if rr.Cached {
			res.hits = 1
		}
		if res.keep {
			l := list{user: rr.User, cached: rr.Cached, items: make([]int, len(rr.Items)), scores: make([]float64, len(rr.Items))}
			for n, it := range rr.Items {
				l.items[n], l.scores[n] = it.Item, it.Score
			}
			res.lists = []list{l}
		}
		res.version = max(rr.ModelVersion, rr.RouteEpoch)
	case kindBatch:
		var br wire.BatchResponse
		if err := wire.DecodeBatchResponse(body, &br); err != nil {
			return err
		}
		if len(br.Counts) != len(req.users) {
			return fmt.Errorf("/v2/batch: %d lists for %d users", len(br.Counts), len(req.users))
		}
		res.version = br.ModelVersion
		res.n = len(br.Counts)
		at := 0
		for n, cnt := range br.Counts {
			if br.Status[n]&(wire.StatusError|wire.StatusDegraded) != 0 {
				return fmt.Errorf("/v2/batch: user %d answered with status %#x", req.users[n], br.Status[n])
			}
			cached := br.Status[n]&wire.StatusCached != 0
			if cached {
				res.hits++
			}
			if res.keep {
				l := list{user: req.users[n], cached: cached}
				for k := at; k < at+int(cnt); k++ {
					l.items = append(l.items, int(br.Items[k]))
					l.scores = append(l.scores, br.Scores[k])
				}
				res.lists = append(res.lists, l)
			}
			at += int(cnt)
		}
	case kindIngest:
		var ir serve.IngestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			return fmt.Errorf("/v1/ingest: %w", err)
		}
		if ir.Appended != req.events {
			return fmt.Errorf("/v1/ingest: appended %d of %d events", ir.Appended, req.events)
		}
	}
	return nil
}

// timed is one entry of an open-loop schedule.
type timed struct {
	at  time.Duration // offset from the phase start
	req *request
}

// runOpen sends sched on its schedule, regardless of how fast answers
// come back, over at most c.conns connections. Requests whose turn
// comes while every connection is busy wait in the generator; their
// latency still counts from the scheduled send. Each result records how
// late the dispatcher released it. stop, when non-nil, is polled after
// each dispatch and ends the phase early once it returns true.
func (c *client) runOpen(ctx context.Context, base, phase string, sched []timed, stop func(time.Duration) bool) []*result {
	results := make([]*result, 0, len(sched))
	queue := make(chan *result, len(sched)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range queue {
				c.do(ctx, base, res)
			}
		}()
	}
	start := time.Now()
	for _, s := range sched {
		due := start.Add(s.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res := &result{req: s.req, phase: phase, due: due, late: time.Since(due), keep: len(results)%keepEvery == 0}
		results = append(results, res)
		queue <- res
		if stop != nil && stop(s.at) {
			break
		}
	}
	close(queue)
	wg.Wait()
	return results
}

// window is the outcome of one closed-loop window. It keeps every
// keepEvery-th result up to keepPerWindow a connection, and every failed
// one; the rest are only counted, so the generator's memory does not
// grow with the throughput it measures.
type window struct {
	kept                      []*result
	sent, failed, lists, hits int
	// minVersion and maxVersion bound the versions that answered; an
	// empty window has minVersion > maxVersion.
	minVersion, maxVersion uint64
	dur                    time.Duration
}

// sample reports whether the window keeps request i (which a traced
// pass then traces).
func (w *window) sample(i int) bool { return i%keepEvery == 0 && len(w.kept) < keepPerWindow }

func (w *window) add(res *result) {
	w.sent++
	if !res.ok() {
		w.failed++
		w.kept = append(w.kept, res)
		return
	}
	w.lists += res.n
	w.hits += res.hits
	w.minVersion = min(w.minVersion, res.version)
	w.maxVersion = max(w.maxVersion, res.version)
	if res.keep {
		w.kept = append(w.kept, res)
	}
}

// runClosed keeps c.conns requests in flight for d: each connection
// sends its next request as soon as the previous one is answered.
// Request i of the phase is next(i), made when it is due.
func (c *client) runClosed(ctx context.Context, base, phase string, next func(i int) *request, d time.Duration) window {
	var seq atomic.Int64
	per := make([]window, c.conns)
	for w := range per {
		per[w].minVersion = math.MaxUint64
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(seq.Add(1) - 1)
				res := &result{req: next(i), phase: phase, due: time.Now(), keep: per[w].sample(i)}
				c.do(ctx, base, res)
				per[w].add(res)
			}
		}(w)
	}
	wg.Wait()
	out := window{dur: time.Since(start), minVersion: math.MaxUint64}
	for _, w := range per {
		out.minVersion = min(out.minVersion, w.minVersion)
		out.maxVersion = max(out.maxVersion, w.maxVersion)
		out.kept = append(out.kept, w.kept...)
		out.sent += w.sent
		out.failed += w.failed
		out.lists += w.lists
		out.hits += w.hits
	}
	return out
}

// rounds is the outcome of runRounds.
type rounds struct {
	open       []*result
	openTime   time.Duration // summed open windows
	closedTime time.Duration // summed closed windows
	windows    []window      // the closed windows one by one
}

// runRounds alternates open- and closed-loop windows: sched, which spans
// openDur, is cut by time into n equal slices, and each slice is
// followed by a closed-loop window of closedDur/n drawing from next.
// Interleaving spreads both measurements over the whole phase, so a
// slow spell of the host weighs on the latency and the throughput alike
// instead of on whichever phase it happened to overlap.
func (c *client) runRounds(ctx context.Context, base string, sched []timed, openDur time.Duration, next func(int) *request, closedDur time.Duration, n int) rounds {
	var out rounds
	slice := openDur / time.Duration(n)
	at := 0
	for k := 0; k < n; k++ {
		lo, end := at, time.Duration(k+1)*slice
		for at < len(sched) && (sched[at].at < end || k == n-1) {
			at++
		}
		part := make([]timed, at-lo)
		for i, s := range sched[lo:at] {
			part[i] = timed{at: s.at - time.Duration(k)*slice, req: s.req}
		}
		start := time.Now()
		out.open = append(out.open, c.runOpen(ctx, base, "open", part, nil)...)
		out.openTime += time.Since(start)
		off := 0
		for _, w := range out.windows {
			off += w.sent
		}
		w := c.runClosed(ctx, base, "closed", func(i int) *request { return next(off + i) }, closedDur/time.Duration(n))
		out.closedTime += w.dur
		out.windows = append(out.windows, w)
	}
	return out
}

// runAll sends reqs in order over the client's connections, as fast as
// they are answered — the untimed recall and check traffic.
func (c *client) runAll(ctx context.Context, base, phase string, reqs []*request) []*result {
	out := make([]*result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				res := &result{req: reqs[i], phase: phase, due: time.Now(), keep: true}
				c.do(ctx, base, res)
				out[i] = res
			}
		}()
	}
	wg.Wait()
	return out
}
