package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// listener is one server of the tier behind a real loopback listener.
type listener struct {
	name string // span name of its handler: serve.handler, cluster.handler, cluster.shard_handler
	url  string
	srv  *http.Server
	done chan struct{}
}

// listen serves h on a fresh loopback port. With rec non-nil, every
// request is wrapped in a span named name, keyed by the trace id the
// request carries (or the one the server minted and echoed).
func listen(name string, h http.Handler, rec *recorder) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	url := "http://" + ln.Addr().String()
	if rec != nil {
		h = middleware(name, url, h, rec)
	}
	l := &listener{name: name, url: url, srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		}
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// middleware times the wrapped handler from the outside. The
// benchmark's own reads of /metrics and /debug/traces are not timed.
func middleware(name, url string, h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" || r.URL.Path == "/debug/traces" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id := r.Header.Get(obs.TraceHeader)
		if id == "" {
			id = w.Header().Get(obs.TraceHeader)
		}
		if strings.HasPrefix(id, untracedIDPrefix) {
			return
		}
		rec.add(span{trace: id, name: name, server: name + "@" + url, path: r.URL.Path, start: start, end: end})
	})
}

// tier is the serving tier of one workload, built from the generated
// inputs inside this process.
type tier struct {
	front     string // base URL the load generator talks to
	listeners []*listener
	server    *serve.Server // single-process workloads
	feed      *feed.Log     // ingest-retrain
}

func (t *tier) close() {
	for _, l := range t.listeners {
		l.close()
	}
	if t.feed != nil {
		if err := t.feed.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: closing the feed: %v\n", err)
		}
	}
}

// byName returns the listeners whose handler spans carry name.
func (t *tier) byName(name string) []*listener {
	var out []*listener
	for _, l := range t.listeners {
		if l.name == name {
			out = append(out, l)
		}
	}
	return out
}

// loaded is what a tier reads from the inputs at start-up, as a serving
// process would: the training matrix (exclusions) and the tag table.
type loaded struct {
	train *sparse.Matrix
	tags  *rank.TagTable
}

func loadServingInputs(in *inputs) (loaded, error) {
	train, err := readMatrix(filepath.Join(in.dir, trainFile))
	if err != nil {
		return loaded{}, err
	}
	tags, err := rank.LoadTagTableFile(filepath.Join(in.dir, tagsFile), train.Cols())
	if err != nil {
		return loaded{}, err
	}
	return loaded{train: train, tags: tags}, nil
}

// startSingle builds one serve process over modelPath. feedDir, when
// non-empty, opens an ingest feed there, and the server then ranks
// batches on one core (serve.Config.Workers=1), so the trainer's
// post-rollout cache warm leaves the other core to the reads.
func startSingle(in *inputs, modelPath, feedDir string, rec *recorder) (*tier, error) {
	ld, err := loadServingInputs(in)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{ModelPath: modelPath, Train: ld.train, ItemTags: ld.tags}
	if feedDir != "" {
		cfg.Workers = 1
	}
	t := &tier{}
	if feedDir != "" {
		fl, err := feed.Open(feedDir, feed.Options{})
		if err != nil {
			return nil, err
		}
		t.feed = fl
		cfg.Feed = fl
	}
	s, err := serve.NewFromFile(cfg)
	if err != nil {
		t.close()
		return nil, err
	}
	l, err := listen("serve.handler", s.Handler(), rec)
	if err != nil {
		t.close()
		return nil, err
	}
	t.server, t.front, t.listeners = s, l.url, []*listener{l}
	return t, nil
}

// startCluster builds two item-range shards over modelPath and a router
// over them with every router setting at its default.
func startCluster(in *inputs, modelPath string, rec *recorder) (*tier, error) {
	ld, err := loadServingInputs(in)
	if err != nil {
		return nil, err
	}
	t := &tier{}
	half := ld.train.Cols() / 2
	var urls []string
	for _, r := range [][2]int{{0, half}, {half, -1}} {
		s, err := serve.NewShardFromFile(serve.Config{
			ModelPath: modelPath, Train: ld.train, ItemTags: ld.tags, ShardLo: r[0], ShardHi: r[1],
		})
		if err != nil {
			t.close()
			return nil, err
		}
		l, err := listen("cluster.shard_handler", s.Handler(), rec)
		if err != nil {
			t.close()
			return nil, err
		}
		t.listeners = append(t.listeners, l)
		urls = append(urls, l.url)
	}
	rt, err := cluster.New(cluster.Config{Shards: urls})
	if err != nil {
		t.close()
		return nil, err
	}
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.close()
		return nil, err
	}
	l, err := listen("cluster.handler", rt.Handler(), rec)
	if err != nil {
		t.close()
		return nil, err
	}
	t.listeners = append(t.listeners, l)
	t.front = l.url
	return t, nil
}

// getJSON fetches url and decodes its JSON body into out.
func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}

// rankedCount sums the full rankings the servers behind ls performed, as
// their /metrics report them.
func rankedCount(ctx context.Context, hc *http.Client, ls []*listener) (int64, error) {
	var total int64
	for _, l := range ls {
		var m struct {
			Cache struct {
				Ranked int64 `json:"ranked"`
			} `json:"cache"`
		}
		if err := getJSON(ctx, hc, l.url+"/metrics", &m); err != nil {
			return 0, err
		}
		total += m.Cache.Ranked
	}
	return total, nil
}
