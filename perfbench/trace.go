package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval the benchmark recorded itself, or one the
// program exposed at /debug/traces, joined by trace id.
type span struct {
	trace  string
	name   string // layer name, e.g. "client", "serve.handler", "rank.score"
	server string // the handler span name of the server that recorded it
	path   string
	start  time.Time
	end    time.Time
	// program marks a span the program exposed at /debug/traces.
	program bool
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// untracedIDPrefix starts the trace ids of the requests a traced pass
// does not trace; their spans are dropped.
const untracedIDPrefix = "untraced-"

// recorder keeps every span in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset returns the spans recorded so far and starts afresh.
func (r *recorder) reset() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// writeSpans writes spans to path, one JSON object a line, times in
// Unix nanoseconds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		err := enc.Encode(struct {
			Trace   string `json:"trace"`
			Name    string `json:"name"`
			Server  string `json:"server,omitempty"`
			Path    string `json:"path,omitempty"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{s.trace, s.name, s.server, s.path, s.start.UnixNano(), s.end.UnixNano()})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// programSpanNames maps the span names the program records in its own
// traces to the layer they time.
var programSpanNames = map[string]string{
	"score":         "rank.score",
	"filter_select": "rank.select",
	"rerank":        "rank.rerank",
	"rank":          "rank.cache_hit",
	"batch_rank":    "rank.batch",
	"cache":         "cluster.cache",
	"shard_call":    "cluster.shard_call",
	"merge":         "cluster.merge",
}

// collector polls the /debug/traces rings of the tier's servers while a
// traced phase runs, so records are read before the ring overwrites
// them, and keeps each record once.
type collector struct {
	hc   *http.Client
	ls   []*listener
	mu   sync.Mutex
	seen map[string]map[string]*obs.Trace // server URL → trace id → record
}

func newCollector(ls []*listener) *collector {
	c := &collector{hc: &http.Client{Timeout: 10 * time.Second}, ls: ls, seen: map[string]map[string]*obs.Trace{}}
	for _, l := range ls {
		c.seen[l.url] = map[string]*obs.Trace{}
	}
	return c
}

// poll reads every ring once.
func (c *collector) poll(ctx context.Context) error {
	for _, l := range c.ls {
		var body struct {
			Traces []*obs.Trace `json:"traces"`
		}
		if err := getJSON(ctx, c.hc, l.url+"/debug/traces", &body); err != nil {
			return err
		}
		c.mu.Lock()
		for _, tr := range body.Traces {
			if !strings.HasPrefix(tr.ID, untracedIDPrefix) {
				c.seen[l.url][tr.ID] = tr
			}
		}
		c.mu.Unlock()
	}
	return nil
}

// run polls every interval until ctx ends, then once more.
func (c *collector) run(ctx context.Context, every time.Duration) error {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return c.poll(context.Background())
		case <-t.C:
			if err := c.poll(ctx); err != nil && ctx.Err() == nil {
				return err
			}
		}
	}
}

// programSpans returns the program's own spans of every collected
// record, as children-to-be of the handler spans sharing their trace id.
func (c *collector) programSpans() []span {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []span
	for _, l := range c.ls {
		for _, tr := range c.seen[l.url] {
			for _, sp := range tr.Spans {
				name, ok := programSpanNames[sp.Name]
				if !ok {
					name = "program." + sp.Name
				}
				start := tr.Start.Add(time.Duration(sp.StartMicros) * time.Microsecond)
				out = append(out, span{
					trace: tr.ID, name: name, server: l.name + "@" + l.url,
					start: start, end: start.Add(time.Duration(sp.DurMicros) * time.Microsecond), program: true,
				})
			}
		}
	}
	return out
}

// node is one span of a request's tree.
type node struct {
	span
	parent int
	depth  int
	self   time.Duration
}

// tree is one request: the client span at index 0 and everything the
// client caused, each span clipped to its parent's interval.
type tree struct {
	nodes []node
}

// buildTrees groups spans by trace id and links each into the tree
// rooted at that trace's client span. Parents are chosen by layer: a
// front handler span belongs to the client, a program span to the
// handler span of the server that recorded it, a shard handler span to
// the router's shard call that covers most of it, and a shard's program
// spans to that shard's handler span. Traces without a client span are
// not requests of the load generator and are dropped.
func buildTrees(spans []span) []*tree {
	byTrace := map[string][]span{}
	for _, s := range spans {
		if s.trace != "" {
			byTrace[s.trace] = append(byTrace[s.trace], s)
		}
	}
	ids := make([]string, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out []*tree
	for _, id := range ids {
		if t := linkTree(byTrace[id]); t != nil {
			out = append(out, t)
		}
	}
	return out
}

func linkTree(spans []span) *tree {
	root := -1
	for n, s := range spans {
		if s.name == "client" {
			root = n
			break
		}
	}
	if root < 0 {
		return nil
	}
	t := &tree{nodes: []node{{span: spans[root], parent: -1}}}
	// Order the rest so parents are placed before their children:
	// front handler, front program spans, shard handlers, shard program
	// spans.
	rest := make([]span, 0, len(spans)-1)
	for n, s := range spans {
		if n != root {
			rest = append(rest, s)
		}
	}
	level := func(s span) int {
		switch {
		case s.name == "serve.handler" || s.name == "cluster.handler":
			return 1
		case s.name == "cluster.shard_handler":
			return 3
		case strings.HasPrefix(s.server, "cluster.shard_handler@"):
			return 4
		}
		return 2
	}
	sort.SliceStable(rest, func(a, b int) bool {
		la, lb := level(rest[a]), level(rest[b])
		if la != lb {
			return la < lb
		}
		return rest[a].start.Before(rest[b].start)
	})
	for _, s := range rest {
		parent := 0
		switch level(s) {
		case 2, 4:
			// The handler span of the server that recorded it.
			handler := s.server[:strings.IndexByte(s.server+"@", '@')]
			parent = t.bestParent(s, func(p node) bool { return p.server == s.server && p.name == handler }, 0)
		case 3:
			parent = t.bestParent(s, func(p node) bool { return p.name == "cluster.shard_call" }, -1)
			if parent < 0 {
				parent = t.bestParent(s, func(p node) bool { return p.name == "cluster.handler" }, 0)
			}
		default:
			parent = 0
		}
		p := t.nodes[parent]
		s.start = maxTime(s.start, p.start)
		s.end = minTime(maxTime(s.end, s.start), p.end)
		if s.end.Before(s.start) {
			s.end = s.start
		}
		t.nodes = append(t.nodes, node{span: s, parent: parent, depth: p.depth + 1})
	}
	t.computeSelf()
	return t
}

// bestParent returns the node accepted by ok that overlaps s the most,
// or fallback when none overlaps.
func (t *tree) bestParent(s span, ok func(node) bool, fallback int) int {
	best, bestOver := fallback, time.Duration(-1)
	for n, p := range t.nodes {
		if !ok(p) {
			continue
		}
		over := minTime(s.end, p.end).Sub(maxTime(s.start, p.start))
		if over > bestOver {
			best, bestOver = n, over
		}
	}
	return best
}

// computeSelf sets every node's self time: its duration minus the part
// of it its children cover. Each instant of the root's interval is
// charged to the deepest spans covering it, split evenly when several
// siblings overlap (parallel shard calls), so the self times of a tree
// sum exactly to the root span's duration.
func (t *tree) computeSelf() {
	var cuts []time.Time
	for k := range t.nodes {
		// Compare wall clocks only: the program's spans carry no
		// monotonic reading, and mixing the two would skew durations.
		n := &t.nodes[k]
		n.start, n.end, n.self = n.start.Round(0), n.end.Round(0), 0
		cuts = append(cuts, n.start, n.end)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a].Before(cuts[b]) })
	for k := 1; k < len(cuts); k++ {
		a, b := cuts[k-1], cuts[k]
		seg := b.Sub(a)
		if seg <= 0 {
			continue
		}
		deepest, owners := -1, []int(nil)
		for n, nd := range t.nodes {
			if nd.start.After(a) || nd.end.Before(b) {
				continue
			}
			switch {
			case nd.depth > deepest:
				deepest, owners = nd.depth, []int{n}
			case nd.depth == deepest:
				owners = append(owners, n)
			}
		}
		for i, n := range owners {
			share := seg / time.Duration(len(owners))
			if i == 0 {
				share += seg % time.Duration(len(owners))
			}
			t.nodes[n].self += share
		}
	}
}

// selfByLayer sums the tree's self time per layer name.
func (t *tree) selfByLayer() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, n := range t.nodes {
		out[n.name] += n.self
	}
	return out
}

func (t *tree) root() node { return t.nodes[0] }

// joined reports whether the program's record of the request was
// collected. Under the closed loop's request rate the trace ring can
// overwrite a record between two polls; without it, the handler's self
// time would take in the program's spans.
func (t *tree) joined() bool {
	for _, n := range t.nodes {
		if n.program {
			return true
		}
	}
	return false
}

// layerTable prints the mean self time of every layer over trees, which
// sums to the mean client span, with each layer's share.
func layerTable(w io.Writer, title string, trees []*tree) {
	if len(trees) == 0 {
		fmt.Fprintf(w, "%s: no joined traces\n", title)
		return
	}
	sums := map[string]time.Duration{}
	present := map[string]*dist{}
	var total time.Duration
	for _, t := range trees {
		total += t.root().dur()
		for name, d := range t.selfByLayer() {
			sums[name] += d
			if present[name] == nil {
				present[name] = &dist{}
			}
			present[name].add(float64(d) / 1e3)
		}
	}
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return sums[names[a]] > sums[names[b]] })
	n := float64(len(trees))
	fmt.Fprintf(w, "%s: self time per layer over %d traced requests\n", title, len(trees))
	fmt.Fprintf(w, "  %-24s %12s %7s  %s\n", "layer", "mean_us", "share", "self time where present (us)")
	var sum time.Duration
	for _, name := range names {
		sum += sums[name]
		fmt.Fprintf(w, "  %-24s %12.1f %6.1f%%  %s\n", name, float64(sums[name])/1e3/n,
			100*float64(sums[name])/float64(total), present[name].describe(""))
	}
	fmt.Fprintf(w, "  %-24s %12.1f          root span mean %.1f us (self times sum to it: %v)\n",
		"sum", float64(sum)/1e3/n, float64(total)/1e3/n, sum == total)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
