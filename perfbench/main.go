// Command perfbench is the end-to-end benchmark of the OCuLaR serving
// and retraining stack. It builds the real serving tier inside its own
// process — serve.NewFromFile, serve.NewShardFromFile and cluster.New
// behind loopback listeners — over seeded, generated inputs (a planted
// co-cluster catalogue of 10⁵ items, a trained v2+f32 model file, a tag
// table and a held-out split), drives it from one load generator holding
// at most nproc connections, checks the served lists bit for bit against
// a direct rank.Engine ranking, and prints every metric with its unit and
// sample count. The last line of standard output is one JSON object.
//
// Usage (run.sh builds the command and generates the inputs first):
//
//	perfbench gen --seed 1 --out DIR
//	perfbench run --workload cold-recommend --seed 1 --seconds 25 --trace 0 --inputs DIR --work DIR
//
// With --trace 1 the run measures the workload twice, untraced and then
// traced, and reports per-layer metrics, the self time of every layer
// and the tracing overhead instead of the end-to-end metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench gen|run [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		var ok bool
		ok, err = cmdRun(os.Args[2:], os.Stdout)
		if err == nil && !ok {
			os.Exit(1)
		}
	default:
		err = fmt.Errorf("unknown command %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// keepInputs is how many generated input directories (about 55 MB each)
// gen keeps side by side; older ones are removed.
const keepInputs = 12

// cmdGen generates the inputs of one seed into --out unless they are
// already there.
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "input seed")
	out := fs.String("out", "", "input directory to create")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("gen: --out is required")
	}
	if _, err := os.Stat(filepath.Join(*out, doneFile)); err == nil {
		return nil
	}
	tmp := *out + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := generate(tmp, *seed, fullScale); err != nil {
		return err
	}
	if err := os.RemoveAll(*out); err != nil {
		return err
	}
	if err := os.Rename(tmp, *out); err != nil {
		return err
	}
	return prune(filepath.Dir(*out), keepInputs)
}

// prune removes the oldest input directories beyond keep.
func prune(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type aged struct {
		path string
		mod  int64
	}
	var dirs []aged
	for _, e := range entries {
		info, err := e.Info()
		if err != nil || !e.IsDir() {
			continue
		}
		dirs = append(dirs, aged{filepath.Join(dir, e.Name()), info.ModTime().UnixNano()})
	}
	sort.Slice(dirs, func(a, b int) bool { return dirs[a].mod > dirs[b].mod })
	for k := keep; k < len(dirs); k++ {
		if err := os.RemoveAll(dirs[k].path); err != nil {
			return err
		}
	}
	return nil
}

// runOptions are the settings of one measured run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	inputs   string
	work     string
	scale    Scale
}

// cmdRun measures one workload and prints the report; ok is false when
// an output check failed.
func cmdRun(args []string, stdout io.Writer) (ok bool, err error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: cold-recommend, hot-cluster or ingest-retrain")
	seed := fs.Uint64("seed", 1, "input and schedule seed")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	in := fs.String("inputs", "", "generated input directory")
	work := fs.String("work", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if *in == "" || *work == "" {
		return false, errors.New("run: --inputs and --work are required")
	}
	rep, err := measureRun(runOptions{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		inputs: *in, work: *work, scale: fullScale,
	})
	if err != nil {
		return false, err
	}
	if err := rep.print(stdout); err != nil {
		return false, err
	}
	return rep.correct(), nil
}

// report is one run's printed result.
type report struct {
	opts      runOptions
	untraced  *pass
	traced    *pass
	e2e       []metric
	spanFile  string // the traced pass's spans, one JSON object a line
	attempted int
	failed    int
	problems  []string
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// measureRun runs the workload's untraced pass and, with tracing, the
// traced pass after it.
func measureRun(o runOptions) (*report, error) {
	in, err := loadInputs(o.inputs, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	e := &env{in: in, work: o.work, seconds: o.seconds, conns: runtime.NumCPU()}
	rep := &report{opts: o}
	if rep.untraced, err = runPass(o.workload, e); err != nil {
		return nil, err
	}
	passes := []*pass{rep.untraced}
	if o.trace {
		te := *e
		te.rec = &recorder{}
		if rep.traced, err = runPass(o.workload, &te); err != nil {
			return nil, err
		}
		if err := te.layerMetrics(rep.traced, rep.traced.modelPath); err != nil {
			return nil, err
		}
		rep.traced.tables = rep.traced.layerTables()
		rep.spanFile = filepath.Join(o.work, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(rep.spanFile, rep.traced.spans); err != nil {
			return nil, err
		}
		passes = append(passes, rep.traced)
	}
	rep.e2e = endToEnd(rep.untraced)
	for _, p := range passes {
		a, f := p.counts()
		rep.attempted += a
		rep.failed += f
		rep.problems = append(rep.problems, p.problems...)
	}
	return rep, nil
}

// endToEnd computes a pass's end-to-end metrics. Those with json set are
// the BENCHMARK.json metrics every workload reports; the rest are
// printed for the workloads they apply to.
//
// The open-loop tail (p90_ms, p99_ms) is printed, not gated. On a
// two-vCPU virtual machine it follows the hypervisor: a read in flight
// when its vCPU is descheduled waits out the steal, so with a few
// percent of steal the slowest percent of reads measure the host, not
// the program (cold-recommend p99_ms ran 11–64 ms over runs of one
// build). p50_ms holds. miss_p50_ms, the median of the reads no cache
// answered, is printed too: on hot-cluster those wait for two shard
// calls in parallel, which one descheduled vCPU serializes (5.2–9.5 ms
// over runs of one build). So is throughput_rps: a closed loop keeps
// both vCPUs busy, and cold-recommend's rate followed the host from run
// to run (253–366 lists/s over ten runs of one build, lowest where the
// steal was highest), a spread as wide as any bound.
//
// On ingest-retrain, the latencies cover the reads sent after the
// trainer cycle, served by the retrained model; the reads sent while the
// writes and the cycle ran are reported as cycle_p50_ms and
// cycle_p99_ms.
func endToEnd(p *pass) []metric {
	lat, miss, during := openLatency(p)
	var ingest dist
	for _, r := range p.writes {
		ingest.add(latencyMS(r))
	}
	a, f := p.counts()
	closedLists, closedHits := p.closedCount()
	out := []metric{
		{name: "setup_s", value: p.setup.median(), unit: "s", n: p.setup.n(), note: "median set-up to first timed request", json: true},
	}
	for _, q := range []struct {
		name string
		d    *dist
		q    float64
		note string
		json bool
	}{
		{"p50_ms", &lat, 0.5, "open-loop reads, from the scheduled send", true},
		{"miss_p50_ms", &miss, 0.5, "open-loop reads no cache answered", false},
		{"p90_ms", &lat, 0.9, "open-loop reads", false},
		{"p99_ms", &lat, 0.99, "open-loop reads", false},
	} {
		v, ok := q.d.pct(q.q)
		m := metric{name: q.name, value: v, unit: "ms", n: q.d.n(), note: q.note, json: q.json}
		if !ok {
			m.value, m.note = -1, "unsupported by the sample"
			if q.json {
				p.problem("%s: %d open-loop samples do not support it", q.name, q.d.n())
			}
		}
		out = append(out, m)
	}
	closedNote := "closed-loop /v1/recommend completions per second"
	if p.workload == "hot-cluster" {
		closedNote = "closed-loop /v2/batch users answered per second (batch_users_per_s)"
	}
	out = append(out,
		metric{name: "throughput_rps", value: p.closedRate, unit: "1/s", n: closedLists, note: closedNote},
		metric{name: "closed_hit_ratio", value: ratio(closedHits, closedLists), unit: "ratio", n: closedLists, note: "closed-loop lists answered cached"},
		metric{name: "recall_at_50", value: p.recall, unit: "ratio", n: p.recallN, note: "fixed user sample vs held-out positives"},
		metric{name: "rss_mb", value: p.rssMB, unit: "MB", n: 1, note: "peak resident memory (VmHWM)", json: true},
		metric{name: "error_ratio", value: float64(f) / float64(max(a, 1)), unit: "ratio", n: a, note: "failed, refused or mismatched over attempted"},
	)
	if p.cycle != nil {
		v, ok := ingest.pct(0.5)
		if !ok {
			v = -1
		}
		out = append(out,
			metric{name: "ingest_p50_ms", value: v, unit: "ms", n: ingest.n(), note: "open-loop /v1/ingest, from the scheduled send"},
			metric{name: "cycle_s", value: p.cycle.Duration.Seconds(), unit: "s", n: 1, note: "trainer.RunOnce, replay to warm"},
		)
		for _, q := range []struct {
			name string
			q    float64
		}{{"cycle_p50_ms", 0.5}, {"cycle_p99_ms", 0.99}} {
			v, ok := during.pct(q.q)
			if !ok {
				v = -1
			}
			out = append(out, metric{name: q.name, value: v, unit: "ms", n: during.n(), note: "open-loop reads sent during the writes and the cycle"})
		}
	}
	return out
}

// openLatency splits the pass's open-loop read latencies (ms) into those
// p50_ms covers, the misses among them, and, on ingest-retrain, those
// sent before the trainer cycle ended.
func openLatency(p *pass) (lat, miss, during dist) {
	for _, r := range p.open {
		if !p.cycleEnd.IsZero() && r.due.Before(p.cycleEnd) {
			during.add(latencyMS(r))
			continue
		}
		lat.add(latencyMS(r))
		if r.hits == 0 { // a failed read counts as a miss
			miss.add(latencyMS(r))
		}
	}
	return lat, miss, during
}

// hitCount counts the lists the successful reads among rss answered and
// how many of them came from a cache.
func hitCount(rss ...[]*result) (lists, hits int) {
	for _, rs := range rss {
		for _, r := range rs {
			if r.ok() {
				lists += r.n
				hits += r.hits
			}
		}
	}
	return lists, hits
}

func ratio(a, b int) float64 { return float64(a) / float64(max(b, 1)) }

func latencyMS(r *result) float64 {
	if !r.ok() {
		return inf
	}
	return ms(r.latency())
}

// print writes the human-readable report and, last, the JSON line.
func (r *report) print(w io.Writer) error {
	o := r.opts
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v scale=%s nproc=%d\n",
		o.workload, o.seed, o.seconds, o.trace, o.scale.Name, runtime.NumCPU())
	for _, wl := range workloads {
		if wl.name == o.workload {
			fmt.Fprintf(w, "why: %s\n", wl.why)
		}
	}
	for _, p := range []*pass{r.untraced, r.traced} {
		if p == nil {
			continue
		}
		kind := "untraced"
		if p.traced {
			kind = "traced"
		}
		fmt.Fprintf(w, "%s pass phases:\n", kind)
		for _, st := range p.phases {
			fmt.Fprintf(w, "  %-16s sent=%d succeeded=%d failed=%d dur=%.2fs\n", st.name, st.sent, st.ok, st.failed, st.dur.Seconds())
		}
		var late dist
		for _, res := range p.open {
			late.add(ms(res.late))
		}
		fmt.Fprintf(w, "  generator lateness (ms): %s\n", late.describe(""))
		if p.steal >= 0 {
			fmt.Fprintf(w, "  CPU time the hypervisor took (steal) while measuring: %.2f%%\n", 100*p.steal)
		}
		if len(p.windows) > 0 {
			fmt.Fprintf(w, "  closed windows (lists/s):")
			for _, win := range p.windows {
				fmt.Fprintf(w, " %.4g", float64(win.lists)/win.dur.Seconds())
			}
			fmt.Fprintln(w)
		}
		timeline(w, p)
	}
	fmt.Fprintln(w, "end-to-end (untraced pass):")
	printMetrics(w, r.e2e)
	metrics := map[string]any{}
	if p := r.traced; p != nil {
		fmt.Fprintln(w, "per-layer (traced pass):")
		printMetrics(w, p.layers)
		for _, line := range p.tables {
			fmt.Fprintln(w, line)
		}
		lat := func(p *pass) float64 {
			d, _, _ := openLatency(p)
			v, _ := d.pct(0.5)
			return v
		}
		overhead := lat(p) - lat(r.untraced)
		fmt.Fprintf(w, "tracing overhead: traced p50_ms - untraced p50_ms = %.4f ms\n", overhead)
		fmt.Fprintf(w, "spans: %d written to %s\n", len(p.spans), r.spanFile)
		for _, m := range p.layers {
			if m.json {
				metrics[m.name] = jsonMetric(m)
			}
		}
		metrics["trace.overhead_ms"] = map[string]any{"value": overhead, "unit": "ms"}
	} else {
		for _, m := range r.e2e {
			if m.json {
				metrics[m.name] = jsonMetric(m)
			}
		}
	}
	for name, m := range metrics {
		if v := m.(map[string]any)["value"].(float64); v < 0 && name != "trace.overhead_ms" {
			r.problems = append(r.problems, name+": no supported value")
		}
	}
	fmt.Fprintf(w, "checks: %d served lists recomputed; %d problems\n", r.checkedLists(), len(r.problems))
	for _, pr := range r.problems {
		fmt.Fprintf(w, "  FAIL %s\n", pr)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d\n", r.attempted, r.failed)
	line, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// timeline prints the open-loop read latency second by second, marking
// the trainer cycle, so a tail can be traced to the phase that caused
// it.
func timeline(w io.Writer, p *pass) {
	if len(p.open) == 0 {
		return
	}
	start := p.open[0].due
	var secs []dist
	for _, r := range p.open {
		k := int(r.due.Sub(start).Seconds())
		for len(secs) <= k {
			secs = append(secs, dist{})
		}
		secs[k].add(latencyMS(r))
	}
	fmt.Fprintln(w, "  open-loop read latency by second (ms):")
	for k := range secs {
		d := &secs[k]
		if d.n() == 0 {
			continue // a closed-loop window
		}
		mark := ""
		at := start.Add(time.Duration(k) * time.Second)
		if !p.cycleStart.IsZero() && !at.Add(time.Second).Before(p.cycleStart) && at.Before(p.cycleEnd) {
			mark = " (trainer cycle)"
		}
		d.sort()
		fmt.Fprintf(w, "    t=%2ds n=%-4d median=%-8.3g max=%-8.3g%s\n", k, d.n(), d.median(), d.xs[len(d.xs)-1], mark)
	}
}

func (r *report) checkedLists() int {
	n := r.untraced.checked
	if r.traced != nil {
		n += r.traced.checked
	}
	return n
}

// jsonMetric renders a metric for the JSON line; an infinite latency
// (a failed operation at that percentile) becomes 1e12.
func jsonMetric(m metric) map[string]any {
	v := m.value
	if math.IsInf(v, 0) {
		v = 1e12
	}
	return map[string]any{"value": v, "unit": m.unit}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		v := strconv.FormatFloat(m.value, 'g', 6, 64)
		if m.value < 0 && m.name != "trace.overhead_ms" {
			v = "n/a"
		}
		tag := ""
		if m.json {
			tag = " *"
		}
		fmt.Fprintf(w, "  %-30s %12s %-6s n=%-7d %s%s\n", m.name, v, m.unit, m.n, m.note, tag)
	}
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return -1
}

// cpuTicks reads the machine's stolen and total CPU time, in clock
// ticks, from /proc/stat; ok is false where it cannot.
func cpuTicks() (steal, total float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for k, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, false
		}
		if k < 8 { // user … steal; guest time is already in user
			total += x
		}
		if k == 7 {
			steal = x
		}
	}
	return steal, total, true
}
