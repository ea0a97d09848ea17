package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/rank"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/wire"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // sample count behind the value
	note  string // how it was measured, for the printed table
	json  bool   // part of the final JSON line (a BENCHMARK.json metric)
}

// layerSet accumulates a pass's per-layer metrics.
type layerSet struct {
	ms []metric
}

func (s *layerSet) add(m metric) { s.ms = append(s.ms, m) }

// pct adds d's q-quantile when the sample supports it. An unsupported
// percentile carries the value -1: the table prints it as n/a, and a
// JSON metric without a value fails the run (see report.print).
func (s *layerSet) pct(name string, d *dist, q float64, unit, note string, json bool) {
	v, ok := d.pct(q)
	if !ok {
		s.add(metric{name: name, unit: unit, n: d.n(), note: "unsupported by the sample; " + note, json: json, value: -1})
		return
	}
	s.add(metric{name: name, value: v, unit: unit, n: d.n(), note: note, json: json})
}

// codecReps is how many times the wire replay codes each frame.
const codecReps = 10

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerMetrics derives the per-layer metrics of a traced pass from its
// spans, its results and in-process replays of its requests against
// modelPath.
func (e *env) layerMetrics(p *pass, modelPath string) error {
	var s layerSet
	front := "serve.handler"
	if p.workload == "hot-cluster" {
		front = "cluster.handler"
	}
	// Which trace ids belong to which requests.
	byID := map[string]*result{}
	for _, rs := range [][]*result{p.open, p.closed, p.writes} {
		for _, r := range rs {
			if r.traceID != "" {
				byID[r.traceID] = r
			}
		}
	}
	var handler, self, net, score, sel dist
	for _, t := range p.trees {
		r := byID[t.root().trace]
		if r == nil || !r.ok() || r.phase != "open" || !t.joined() {
			continue
		}
		net.add(us(t.nodes[0].self))
		for _, n := range t.nodes {
			switch n.name {
			case front:
				handler.add(us(n.dur()))
				self.add(us(n.self))
			}
		}
	}
	// Rank stage times: every score / filter_select span the ranking
	// servers recorded for the load generator's requests.
	var shardCall, shardHandler dist
	for _, t := range p.trees {
		for _, n := range t.nodes {
			switch n.name {
			case "rank.score":
				score.add(us(n.dur()))
			case "rank.select":
				sel.add(us(n.dur()))
			case "cluster.shard_call":
				shardCall.add(us(n.dur()))
			}
		}
	}
	var ingest dist
	var reload []span
	for _, sp := range p.spans {
		switch {
		case sp.name == "cluster.shard_handler":
			shardHandler.add(us(sp.dur()))
		case sp.name == "serve.handler" && sp.path == "/v1/ingest":
			ingest.add(us(sp.dur()))
		case sp.name == "serve.handler" && sp.path == "/v1/reload":
			reload = append(reload, sp)
		}
	}
	var late dist
	for _, r := range p.open {
		late.add(ms(r.late))
	}
	lists, hits := hitCount(p.open)
	cl, ch := p.closedCount()
	lists, hits = lists+cl, hits+ch
	hitRatio := ratio(hits, lists)
	// The edge is the front handler: serve.handler, or cluster.handler
	// on hot-cluster.
	s.pct("edge.handler_us.p50", &handler, 0.5, "us", "open-loop reads, wrapped "+front, true)
	s.pct("edge.handler_us.p99", &handler, 0.99, "us", "open-loop reads, wrapped "+front, true)
	s.pct("edge.self_us.p50", &self, 0.5, "us", front+" minus the program's spans", true)
	s.add(metric{name: "edge.hit_ratio", value: hitRatio, unit: "ratio", n: lists, note: "lists " + front + " answered cached", json: true})

	s.pct("rank.score_us.p50", &score, 0.5, "us", "program score spans", true)
	s.pct("rank.score_us.p99", &score, 0.99, "us", "program score spans", false)
	s.pct("rank.select_us.p50", &sel, 0.5, "us", "program filter_select spans", true)
	s.add(metric{name: "rank.ranked_ratio", value: float64(p.ranked) / float64(max(lists, 1)), unit: "ratio", n: lists,
		note: "full rankings per read list, from /metrics", json: true})

	if p.workload == "hot-cluster" {
		// Shard handler spans exist for the traced requests only.
		var traced []*result
		for _, rs := range [][]*result{p.open, p.closed} {
			for _, r := range rs {
				if r.traceID != "" {
					traced = append(traced, r)
				}
			}
		}
		tl, th := hitCount(traced)
		misses := tl - th
		s.pct("cluster.shard_call_us.p50", &shardCall, 0.5, "us", "router shard_call spans", false)
		s.pct("cluster.shard_call_us.p99", &shardCall, 0.99, "us", "router shard_call spans", false)
		s.pct("cluster.shard_handler_us.p50", &shardHandler, 0.5, "us", "wrapped shard handlers", false)
		s.add(metric{name: "cluster.calls_per_miss", value: float64(shardHandler.n()) / float64(max(misses, 1)), unit: "ratio",
			n: misses, note: "shard calls per router cache miss"})
	}
	if p.workload == "ingest-retrain" {
		s.pct("serve.ingest_us.p50", &ingest, 0.5, "us", "wrapped /v1/ingest", false)
		if len(reload) == 1 {
			s.add(metric{name: "serve.reload_ms", value: ms(reload[0].dur()), unit: "ms", n: 1, note: "wrapped /v1/reload"})
			var postReload []*result
			for _, r := range p.open {
				if r.sent.After(reload[0].end) {
					postReload = append(postReload, r)
				}
			}
			// The closed windows all run after the cycle.
			post, postHits := hitCount(postReload)
			cl, ch := p.closedCount()
			post, postHits = post+cl, postHits+ch
			s.add(metric{name: "serve.post_reload_hit_ratio", value: ratio(postHits, post), unit: "ratio", n: post})
		} else {
			p.problem("traced pass saw %d /v1/reload calls, want 1", len(reload))
		}
		e.cycleMetrics(p, &s)
	}
	s.pct("client.net_us.p50", &net, 0.5, "us", "client span minus the handler", true)
	s.pct("client.late_ms.p99", &late, 0.99, "ms", "open-loop dispatcher lateness", true)

	if err := e.replays(p, &s, modelPath); err != nil {
		return err
	}
	p.layers = s.ms
	return nil
}

// cycleMetrics reports the trainer cycle's phases and iterations.
func (e *env) cycleMetrics(p *pass, s *layerSet) {
	cy := p.cycle
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"replay", cy.ReplayDur}, {"train", cy.TrainDur}, {"save", cy.SaveDur}, {"rollout", cy.RolloutDur}, {"warm", cy.WarmDur}} {
		s.add(metric{name: "trainer." + ph.name + "_ms", value: ms(ph.d), unit: "ms", n: 1, note: "trainer.Cycle phase"})
	}
	var iters dist
	// The first iteration runs from the end of the replay (the cycle's
	// feed count before it is negligible); the rest from the previous
	// iteration's end.
	prev := p.cycleStart.Add(cy.ReplayDur)
	for _, t := range p.iterEnds {
		iters.add(ms(t.Sub(prev)))
		prev = t
	}
	s.add(metric{name: "core.train_iter_ms.p50", value: iters.median(), unit: "ms", n: iters.n(), note: "core.Config.OnIteration timestamps"})
	s.add(metric{name: "core.train_iters", value: float64(cy.Iterations), unit: "count", n: 1})
}

// replayUsers picks the users of the pass's open-loop reads the replays
// rank again.
func (e *env) replayUsers(p *pass) []int {
	var users []int
	for _, r := range p.open {
		if r.req.kind.read() {
			users = append(users, r.req.users...)
		}
	}
	n := min(e.in.sc.ReplayUsers, len(users))
	out := make([]int, n)
	for k := range out {
		out[k] = users[k*len(users)/n]
	}
	return out
}

// replays times public calls in-process on the pass's own requests:
// opening the model, ScoreUser, the filtered selection through
// Engine.TopMStagedTimed, MergeTopM over two item ranges, the wire
// codecs on the frames the pass sent and received, and feed appends of
// its ingest events.
func (e *env) replays(p *pass, s *layerSet, modelPath string) error {
	var open dist
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		mm, err := core.OpenMappedModel(modelPath)
		if err != nil {
			return err
		}
		open.add(ms(time.Since(t0)))
		mm.Close()
	}
	s.add(metric{name: "core.open_ms", value: open.median(), unit: "ms", n: open.n(), note: "core.OpenMappedModel, median", json: true})

	ref, err := newReference(e.in, modelPath)
	if err != nil {
		return err
	}
	defer ref.close()
	users := e.replayUsers(p)
	buf := make([]float64, ref.mm.NumItems())
	var scoreUser, filtered dist
	r := rng.New(e.in.seed ^ 0x4e91a7)
	for _, u := range users {
		t0 := time.Now()
		ref.mm.ScoreUser(u, buf)
		scoreUser.add(us(time.Since(t0)))
		var tm rank.Timings
		ex := r.Sample(e.in.sc.Items, 100)
		ref.eng.TopMStagedTimed(u, 50, nil, &tm, rank.TrainRow(e.in.train, u), rank.ExcludeItems(ex), ref.deny)
		filtered.add(us(tm.Select))
	}
	s.pct("core.score_user_us.p50", &scoreUser, 0.5, "us", "MappedModel.ScoreUser replay", true)
	s.pct("rank.select_filtered_us.p50", &filtered, 0.5, "us", "TopMStagedTimed replay, 100 excludes + tag deny", true)

	if p.workload == "hot-cluster" {
		if err := e.mergeReplay(s, modelPath, users); err != nil {
			return err
		}
	}

	// Wire codecs on the frames this pass exchanged: the closed loop's
	// on hot-cluster, the recall sample's elsewhere. Each frame is coded
	// codecReps times; a call takes well under a microsecond.
	frames := p.recallRes
	if p.workload == "hot-cluster" {
		frames = p.closed
	}
	var dec, enc, size dist
	var req wire.BatchRequest
	var resp wire.BatchResponse
	var out []byte
	for _, r := range frames {
		// Only kept results carry their lists' items and scores.
		if r.req.kind != kindBatch || !r.ok() || !r.keep || size.n() == 400 {
			continue
		}
		for k := 0; k < codecReps; k++ {
			t0 := time.Now()
			if err := wire.DecodeBatchRequest(r.req.body, &req); err != nil {
				return err
			}
			dec.add(us(time.Since(t0)))
		}
		resp = wire.BatchResponse{M: uint32(r.req.m), ModelVersion: r.version}
		for _, l := range r.lists {
			st := uint8(0)
			if l.cached {
				st = wire.StatusCached
			}
			resp.Status = append(resp.Status, st)
			resp.Counts = append(resp.Counts, uint32(len(l.items)))
			for k := range l.items {
				resp.Items = append(resp.Items, uint32(l.items[k]))
				resp.Scores = append(resp.Scores, l.scores[k])
			}
		}
		for k := 0; k < codecReps; k++ {
			t0 := time.Now()
			out = wire.AppendBatchResponse(out[:0], &resp)
			enc.add(us(time.Since(t0)))
		}
		size.add(float64(r.bytes))
	}
	s.pct("wire.decode_us.p50", &dec, 0.5, "us", "DecodeBatchRequest replay", true)
	s.pct("wire.encode_us.p50", &enc, 0.5, "us", "AppendBatchResponse replay", true)
	s.add(metric{name: "wire.resp_bytes", value: size.mean(), unit: "bytes", n: size.n(), note: "mean /v2/batch response frame", json: true})

	if len(p.writes) > 0 {
		if err := e.feedReplay(p, s); err != nil {
			return err
		}
	}
	return nil
}

// mergeReplay ranks the replay users on two item-range mappings of the
// model, as the shards do, and times MergeTopM over the two partials.
func (e *env) mergeReplay(s *layerSet, modelPath string, users []int) error {
	half := e.in.sc.Items / 2
	var engines []*rank.Engine
	var ranges []*core.MappedModelRange
	for _, r := range [][2]int{{0, half}, {half, -1}} {
		rr, err := core.OpenMappedModelRange(modelPath, r[0], r[1])
		if err != nil {
			return err
		}
		defer rr.Close()
		ranges = append(ranges, rr)
		engines = append(engines, rank.NewEngine(rangeScorer{rr}, rank.Config{CacheSize: -1}))
	}
	var merge dist
	for _, u := range users {
		parts := make([]rank.Partial, len(ranges))
		for k, rr := range ranges {
			items, scores, _ := engines[k].TopM(u, 20, rank.OffsetRange(rank.TrainRow(e.in.train, u), rr.ItemLo(), rr.ItemHi()))
			global := make([]int, len(items))
			for n, i := range items {
				global[n] = i + rr.ItemLo()
			}
			parts[k] = rank.Partial{Items: global, Scores: scores}
		}
		t0 := time.Now()
		rank.MergeTopM(20, parts...)
		merge.add(us(time.Since(t0)))
	}
	s.pct("cluster.merge_us.p50", &merge, 0.5, "us", "MergeTopM replay over two ranges", false)
	return nil
}

// rangeScorer ranks one item range of a mapped model.
type rangeScorer struct{ rr *core.MappedModelRange }

func (r rangeScorer) ScoreUser(u int, dst []float64) { r.rr.ScoreItems(u, dst) }
func (r rangeScorer) NumItems() int                  { return r.rr.Len() }

// feedReplay appends the pass's ingest events to a scratch feed, one
// Append per request.
func (e *env) feedReplay(p *pass, s *layerSet) error {
	dir := filepath.Join(e.work, "feed-replay")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	fl, err := feed.Open(dir, feed.Options{})
	if err != nil {
		return err
	}
	var app dist
	for _, r := range p.writes {
		var evs []feed.Event
		if err := decodeIngest(r.req.body, &evs); err != nil {
			fl.Close()
			return err
		}
		t0 := time.Now()
		if err := fl.Append(evs...); err != nil {
			fl.Close()
			return err
		}
		app.add(us(time.Since(t0)))
	}
	if err := fl.Close(); err != nil {
		return err
	}
	s.pct("feed.append_us.p50", &app, 0.5, "us", "feed.Log.Append replay", false)
	return os.RemoveAll(dir)
}

// decodeIngest turns an ingest request body back into feed events.
func decodeIngest(body []byte, out *[]feed.Event) error {
	var req serve.IngestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	for _, ev := range req.Events {
		*out = append(*out, feed.Event{User: uint32(*ev.User), Item: uint32(*ev.Item)})
	}
	return nil
}

// layerTables renders the pass's self-time tables: read requests, and on
// ingest-retrain the trainer cycle.
func (p *pass) layerTables() []string {
	var b bytes.Buffer
	layerTable(&b, p.workload+" open-loop reads", p.phaseTrees("open"))
	if p.workload == "hot-cluster" {
		layerTable(&b, p.workload+" closed-loop /v2/batch", p.phaseTrees("closed"))
	}
	if p.cycle != nil {
		cycleTable(&b, p)
	}
	return strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
}

func (p *pass) phaseTrees(phase string) []*tree {
	ids := map[string]bool{}
	rs := p.open
	if phase == "closed" {
		rs = p.closed
	}
	for _, r := range rs {
		if r.ok() && r.req.kind.read() {
			ids[r.traceID] = true
		}
	}
	var out []*tree
	for _, t := range p.trees {
		if ids[t.root().trace] && t.joined() {
			out = append(out, t)
		}
	}
	return out
}

// cycleTable lays the trainer cycle out as a span tree from its phase
// durations and iteration timestamps, with the wrapped /v1/reload call
// under the rollout, and prints its self times.
func cycleTable(w *bytes.Buffer, p *pass) {
	cy := p.cycle
	root := span{trace: "cycle", name: "trainer.cycle", start: p.cycleStart, end: p.cycleEnd}
	spans := []span{root}
	at := p.cycleStart
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"trainer.replay", cy.ReplayDur}, {"trainer.train", cy.TrainDur}, {"trainer.save", cy.SaveDur}, {"trainer.rollout", cy.RolloutDur}, {"trainer.warm", cy.WarmDur}} {
		spans = append(spans, span{trace: "cycle", name: ph.name, start: at, end: at.Add(ph.d)})
		at = at.Add(ph.d)
	}
	t := &tree{nodes: []node{{span: root, parent: -1}}}
	for _, sp := range spans[1:] {
		t.nodes = append(t.nodes, node{span: sp, parent: 0, depth: 1})
	}
	prev := p.cycleStart.Add(cy.ReplayDur)
	for _, end := range p.iterEnds {
		t.nodes = append(t.nodes, node{span: span{name: "core.train_iter", start: prev, end: minTime(end, p.cycleEnd)}, parent: 2, depth: 2})
		prev = end
	}
	for _, sp := range p.spans {
		if sp.name == "serve.handler" && (sp.path == "/v1/reload" || sp.path == "/v1/batch") &&
			!sp.start.Before(p.cycleStart) && !sp.end.After(p.cycleEnd) {
			parent := 4 // rollout
			if sp.path == "/v1/batch" {
				parent = 5 // warm
			}
			pn := t.nodes[parent]
			sp.start, sp.end = maxTime(sp.start, pn.start), minTime(sp.end, pn.end)
			if sp.end.After(sp.start) {
				t.nodes = append(t.nodes, node{span: sp, parent: parent, depth: 2})
			}
		}
	}
	t.computeSelf()
	// The rollout's reload and the warm's batches nest under the phases
	// the trainer reports; print the cycle as its own one-request table.
	fmt.Fprintf(w, "%s trainer cycle (%.0f ms):\n", p.workload, ms(p.cycleEnd.Sub(p.cycleStart)))
	layerTable(w, "  cycle", []*tree{t})
}
