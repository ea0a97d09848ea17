package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
)

// genSmall generates small-scale inputs for seed into a fresh directory.
func genSmall(t *testing.T, seed uint64) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "inputs")
	if err := generate(dir, seed, smallScale); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestSameSeedByteIdenticalInputs(t *testing.T) {
	a, b := genSmall(t, 7), genSmall(t, 7)
	names := []string{modelFile, trainFile, heldoutFile, tagsFile, metaFile, doneFile}
	for _, name := range names {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two generations of seed 7", name)
		}
	}
	other := genSmall(t, 8)
	x, _ := os.ReadFile(filepath.Join(a, trainFile))
	y, _ := os.ReadFile(filepath.Join(other, trainFile))
	if bytes.Equal(x, y) {
		t.Error("seeds 7 and 8 generated the same training split")
	}

	// The request schedules are a function of the seed too: exclude
	// lists, Zipf users, batch frames and ingest events, new items
	// included.
	schedule := func(dir string) [][]byte {
		in, err := loadInputs(dir, 7, smallScale)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(7)
		uni, zipf := in.uniform(r), in.zipf(r)
		top := in.zipfTop(rng.New(7), 5)
		for k := 0; k < 200; k++ {
			if u := top(); !slices.Contains(in.hot[:5], u) {
				t.Fatalf("zipfTop(5) drew user %d, not one of the 5 most active %v", u, in.hot[:5])
			}
		}
		var bodies [][]byte
		for k := 0; k < 50; k++ {
			bodies = append(bodies, in.coldRequest(r, uni).body)
			bodies = append(bodies, batchRequest([]int{zipf(), zipf(), zipf()}, 20).body)
		}
		for _, evs := range in.ingestEvents(r, 10) {
			bodies = append(bodies, ingestRequest(evs).body)
		}
		for _, req := range in.recallRequests() {
			bodies = append(bodies, req.body)
		}
		return bodies
	}
	sa, sb := schedule(a), schedule(b)
	if len(sa) != len(sb) {
		t.Fatalf("schedules have %d and %d requests", len(sa), len(sb))
	}
	for k := range sa {
		if !bytes.Equal(sa[k], sb[k]) {
			t.Fatalf("request %d differs between two schedules of seed 7", k)
		}
	}
}

// TestClosedWindowCounts checks that a closed-loop window counts every
// answer, bounds the versions that answered, and keeps only a capped
// sample of successes but every failure.
func TestClosedWindowCounts(t *testing.T) {
	w := window{minVersion: math.MaxUint64}
	for i := 0; i < 2000; i++ {
		res := &result{n: 16, hits: 15, version: uint64(2 + i%2), keep: w.sample(i)}
		if i%500 == 499 { // after the sample has filled
			res.err = errors.New("refused")
		}
		w.add(res)
	}
	if w.sent != 2000 || w.failed != 4 {
		t.Errorf("sent %d failed %d, want 2000 and 4", w.sent, w.failed)
	}
	if w.lists != 1996*16 || w.hits != 1996*15 {
		t.Errorf("lists %d hits %d, want %d and %d", w.lists, w.hits, 1996*16, 1996*15)
	}
	if w.minVersion != 2 || w.maxVersion != 3 {
		t.Errorf("versions %d..%d, want 2..3", w.minVersion, w.maxVersion)
	}
	failed := 0
	for _, r := range w.kept {
		if !r.ok() {
			failed++
		}
	}
	if failed != 4 || len(w.kept)-failed != keepPerWindow {
		t.Errorf("kept %d successes and %d failures, want %d and 4", len(w.kept)-failed, failed, keepPerWindow)
	}
}

func TestPercentilesAndSampleCounts(t *testing.T) {
	var d dist
	for v := 1000; v >= 1; v-- {
		d.add(float64(v))
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, ok := d.pct(c.q)
		if !ok || got != c.want {
			t.Errorf("pct(%v) over 1..1000 = %v, %v; want %v, true", c.q, got, ok, c.want)
		}
	}
	if _, ok := d.pct(0.999); ok {
		t.Error("p99.9 of 1000 samples has one sample beyond it, yet was reported")
	}
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{0, 0.5, false}, {19, 0.5, false}, {20, 0.5, true}, {99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true}, {9999, 0.999, false}, {10000, 0.999, true}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	var d1000 dist
	for v := 1; v <= 1000; v++ {
		d1000.add(float64(v))
	}
	if got, want := d1000.describe("ms"), "n=1000 p50=500ms p90=900ms p99=990ms"; got != want {
		t.Errorf("describe = %q, want %q", got, want)
	}
	var small dist
	for v := 0; v < 19; v++ {
		small.add(float64(v))
	}
	if _, ok := small.pct(0.5); ok {
		t.Error("p50 of 19 samples reported")
	}
	if got := small.describe("ms"); got != "n=19" {
		t.Errorf("describe of 19 samples = %q, want only the count", got)
	}
	var failed dist
	for v := 0; v < 100; v++ {
		failed.add(1)
	}
	for v := 0; v < 20; v++ {
		failed.add(inf)
	}
	if got, _ := failed.pct(0.9); got != inf {
		t.Errorf("p90 with 1 in 6 failed = %v, want +Inf (failures miss every limit)", got)
	}
	if got := failed.median(); got != 1 {
		t.Errorf("median = %v, want 1", got)
	}
}

func TestSelfTimeSyntheticTree(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	const front, shardA, shardB = "cluster.handler@a", "cluster.shard_handler@b", "cluster.shard_handler@c"
	spans := []span{
		{trace: "x", name: "client", start: at(0), end: at(100)},
		{trace: "x", name: "cluster.handler", server: front, start: at(10), end: at(90)},
		// Two shard calls overlapping on [30,60].
		{trace: "x", name: "cluster.shard_call", server: front, start: at(20), end: at(60)},
		{trace: "x", name: "cluster.shard_call", server: front, start: at(30), end: at(70)},
		{trace: "x", name: "cluster.merge", server: front, start: at(72), end: at(76)},
		{trace: "x", name: "cluster.shard_handler", server: shardA, start: at(22), end: at(58)},
		{trace: "x", name: "rank.score", server: shardA, start: at(24), end: at(44)},
		// Sticks out of its handler: clipped to [44,58].
		{trace: "x", name: "rank.select", server: shardA, start: at(44), end: at(61)},
		{trace: "y", name: "serve.handler", server: "serve.handler@d", start: at(0), end: at(5)},
	}
	trees := buildTrees(spans)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1 (trace y has no client span)", len(trees))
	}
	tr := trees[0]
	self := tr.selfByLayer()
	want := map[string]time.Duration{
		"client":                20 * time.Microsecond, // [0,10) + [90,100)
		"cluster.handler":       26 * time.Microsecond, // [10,20) + [70,72) + [76,90)
		"cluster.merge":         4 * time.Microsecond,
		"cluster.shard_handler": 2 * time.Microsecond, // [22,24); the rest is its children's
		"rank.score":            20 * time.Microsecond,
		"rank.select":           14 * time.Microsecond, // clipped to its handler
		// The first call alone on [20,22), both calls on [58,60) (split
		// 1+1), the second alone on [60,70); on [30,58) the deeper shard
		// subtree owns the time.
		"cluster.shard_call": 14 * time.Microsecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != tr.root().dur() {
		t.Errorf("self times sum to %v, client span is %v", sum, tr.root().dur())
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) != 7 {
		t.Errorf("layers %v, want 7", names)
	}
}

// TestSmokeWorkloads runs every workload at small scale, traced (which
// runs the untraced pass first), and checks that it passes its output
// checks and prints exactly the metrics BENCHMARK.json names.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var bench struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(bench.Workloads), len(workloads))
	}
	dir := genSmall(t, 5)
	for n, w := range workloads {
		if bw := bench.Workloads[n]; bw.Name != w.name || bw.Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), want %q (%q)", n, bw.Name, bw.Why, w.name, w.why)
		}
		for _, trace := range []bool{false, true} {
			if trace && testing.Short() {
				continue
			}
			rep, err := measureRun(runOptions{
				workload: w.name, seed: 5, seconds: 2.5, trace: trace,
				inputs: dir, work: t.TempDir(), scale: smallScale,
			})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s: last line is not the JSON result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				}
			}
		}
	}
}
