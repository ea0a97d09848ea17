package serve

import (
	"encoding/json"
	"expvar"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/rank"
)

// Per-endpoint latency lives in obs.Histogram: log-scale buckets
// (half-decade steps from 10µs to 10s) with coherent snapshots —
// count, error count, sum and buckets all read from the same drained
// cell, so the derived mean and the interpolated p50/p95/p99 can never
// mix a fresh count with a stale sum the way the old six-bucket
// expvar histogram could mid-burst.

// Metrics aggregates serving statistics across all endpoints of a Server.
// Cache and coalescing counters live in the shared rank.Stats, fed by the
// snapshots' ranking engines; sharing one Stats across reloads keeps them
// cumulative.
type Metrics struct {
	start     time.Time
	endpoints map[string]*obs.Histogram
	rank      *rank.Stats
	tracer    *obs.Tracer // nil when tracing is disabled
	reloads   expvar.Int
	inFlight  expvar.Int
	// writeErrors counts response writes that failed (client gone,
	// broken pipe) — the encoder errors writeJSON and the binary frame
	// writer otherwise discard.
	writeErrors expvar.Int
	// deadlineAborts counts shard requests aborted because their
	// propagated deadline budget (see DeadlineHeader) had already expired
	// before scoring started — wasted work the deadline check saved.
	deadlineAborts expvar.Int
	// batchBinary tracks the binary columnar transport (/v2/batch and the
	// shard /v2/shard/topm) separately from the per-endpoint histograms,
	// so the JSON/binary transport split is observable: users is the
	// summed batch fan-out, bytesOut the frame bytes written, and
	// decodeRejects the frames refused by the wire decoder (bad magic,
	// version, flags, or layout) — the counter to watch when a client
	// upgrade goes wrong.
	batchBinary struct {
		requests      expvar.Int
		users         expvar.Int
		bytesOut      expvar.Int
		decodeRejects expvar.Int
	}
}

func newMetrics(endpointNames []string, stats *rank.Stats) *Metrics {
	m := &Metrics{
		start:     time.Now(),
		endpoints: make(map[string]*obs.Histogram, len(endpointNames)),
		rank:      stats,
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &obs.Histogram{}
	}
	return m
}

// CacheHitRate returns hits / (hits + misses), or 0 before any lookup.
// Coalesced waiters count as neither: they are misses that borrowed
// another request's computation.
func (m *Metrics) CacheHitRate() float64 {
	h, miss := m.rank.Hits(), m.rank.Misses()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// snapshot renders the full metrics tree for the /metrics endpoint.
// gate may be nil (admission control disabled). The same tree feeds
// both the JSON and the Prometheus views (obs.Labeled keeps the JSON
// identical while naming the endpoint label for the exposition).
func (m *Metrics) snapshot(version uint64, cacheEntries int, gate *Gate) map[string]any {
	eps := make(map[string]map[string]any, len(m.endpoints))
	for name, h := range m.endpoints {
		eps[name] = obs.EndpointSnapshot(h)
	}
	out := map[string]any{
		"uptime_seconds":        time.Since(m.start).Seconds(),
		"model_version":         version,
		"model_reloads":         m.reloads.Value(),
		"in_flight":             m.inFlight.Value(),
		"deadline_aborts":       m.deadlineAborts.Value(),
		"response_write_errors": m.writeErrors.Value(),
		"cache": map[string]any{
			"hits": m.rank.Hits(),
			// misses counts requests not answered from the cache;
			// coalesced is the subset of concurrent duplicates that shared
			// another miss's computation, and ranked the full
			// score→filter→select computations actually performed.
			"misses":    m.rank.Misses(),
			"coalesced": m.rank.Coalesced(),
			"ranked":    m.rank.Ranked(),
			// support_ranked is the subset of ranked that scored only
			// the items sharing a co-cluster with the user, and
			// support_candidates the items those rankings scored.
			"support_ranked":     m.rank.SupportRanked(),
			"support_candidates": m.rank.SupportCandidates(),
			"hit_rate":           m.CacheHitRate(),
			"entries":            cacheEntries,
		},
		"endpoints": obs.Labeled{Label: "endpoint", Rows: eps},
		"batch_binary": map[string]any{
			"requests":       m.batchBinary.requests.Value(),
			"users":          m.batchBinary.users.Value(),
			"bytes_out":      m.batchBinary.bytesOut.Value(),
			"decode_rejects": m.batchBinary.decodeRejects.Value(),
		},
	}
	if adm := gate.Snapshot(); adm != nil {
		out["admission"] = adm
	}
	return out
}

// untraced endpoints never produce trace records: health probes and
// metrics scrapes would otherwise flush every interesting trace out of
// the ring within one scrape interval.
var untraced = map[string]bool{
	"healthz": true, "readyz": true, "metrics": true, "debug_traces": true,
}

// countingWriter wraps the response writer to count failed writes —
// once per request, however many Write calls the encoder makes.
type countingWriter struct {
	http.ResponseWriter
	errs   *expvar.Int
	failed bool
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	if err != nil && !cw.failed {
		cw.failed = true
		cw.errs.Add(1)
	}
	return n, err
}

// instrument wraps an endpoint handler with request counting, latency
// observation, in-flight tracking, failed-write counting and — for the
// data endpoints — request tracing: the trace header is adopted or
// minted, echoed in the response, and the recorder rides the request
// context so pipeline hooks can attach spans. The endpoint name must
// have been registered at Metrics construction.
func (m *Metrics) instrument(name string, h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	em := m.endpoints[name]
	traced := !untraced[name]
	return func(w http.ResponseWriter, r *http.Request) {
		m.inFlight.Add(1)
		var act *obs.Active
		if traced {
			if act = m.tracer.Start(name, r.Header.Get(obs.TraceHeader)); act != nil {
				r = r.WithContext(obs.WithActive(r.Context(), act))
				w.Header().Set(obs.TraceHeader, act.ID())
			}
		}
		cw := &countingWriter{ResponseWriter: w, errs: &m.writeErrors}
		start := time.Now()
		// net/http recovers handler panics per-connection; the deferred
		// observation keeps the in-flight gauge, histogram and trace ring
		// honest even then (a panic is recorded as a 500).
		status := http.StatusInternalServerError
		defer func() {
			em.Observe(time.Since(start), status >= 400)
			m.tracer.Finish(act, status)
			m.inFlight.Add(-1)
		}()
		status = h(cw, r)
	}
}

// recordRankSpans translates one rank call's Timings into trace spans:
// a hit is a single "rank" span noted cache_hit or coalesced; a miss
// becomes sequential "score", "filter_select" and (if staged) "rerank"
// spans laid out from start by the stage durations. Nil-safe via the
// recorder: callers only pay for the clock reads when tracing.
func recordRankSpans(act *obs.Active, start time.Time, tm *rank.Timings) {
	if act == nil {
		return
	}
	if tm.Cached {
		note := "cache_hit"
		if tm.Coalesced {
			note = "coalesced"
		}
		act.Record("rank", start, time.Since(start), note)
		return
	}
	act.Record("score", start, tm.Score, "")
	t := start.Add(tm.Score)
	act.Record("filter_select", t, tm.Select, "")
	if tm.Stages > 0 {
		act.Record("rerank", t.Add(tm.Select), tm.Stages, "")
	}
}

// writeJSON encodes v with status code, reporting the status back to the
// instrumentation wrapper. Write failures are counted by the
// instrumentation's response writer rather than inspected here.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
	return status
}

// writeError encodes {"error": msg} with the given status.
func writeError(w http.ResponseWriter, status int, msg string) int {
	return writeJSON(w, status, map[string]string{"error": msg})
}

// writeErrorCode encodes {"code": code, "error": msg} — the
// machine-readable error shape of the multi-model platform (e.g.
// "unknown_tenant"), so clients branch on a stable code, not a message.
func writeErrorCode(w http.ResponseWriter, status int, code, msg string) int {
	return writeJSON(w, status, map[string]string{"code": code, "error": msg})
}
