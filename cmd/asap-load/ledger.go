package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"github.com/asap-go/asap/internal/obs"
)

// ledger is the traced run's per-layer record: every server process
// scraped at the start and end of the window, the server's retained
// traces, and the in-process layer replay.
type ledger struct {
	before, after []scrape             // by process, in run.servers() order
	spanUS        map[string][]float64 // server span name → durations (µs) in retained traces
	replay        *replayResult
}

// scrape is one process's observability surfaces at one instant.
type scrape struct {
	fams      map[string]*obs.ExpoFamily // GET /metrics, through obs.ParseExposition
	broadcast broadcastStats             // GET /stats
	recovery  recoveryStats              // GET /healthz
	mem       memStats                   // pprof heap?debug=1
}

type broadcastStats struct {
	Published float64 `json:"published"`
	Delivered float64 `json:"delivered"`
	Evicted   float64 `json:"evicted"`
}

type recoveryStats struct {
	PointsReplayed  float64 `json:"points_replayed"`
	RecordsReplayed float64 `json:"records_replayed"`
	DurationMS      float64 `json:"duration_ms"`
}

// memStats holds the runtime.MemStats counters pprof's debug=1 heap
// profile prints.
type memStats struct {
	mallocs, totalAlloc, numGC float64
}

// scrapeAll scrapes every server process, in order.
func scrapeAll(servers []*instance) ([]scrape, error) {
	var out []scrape
	for _, s := range servers {
		sc, err := scrapeServer(s)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", s.name, err)
		}
		out = append(out, sc)
	}
	return out, nil
}

func scrapeServer(s *instance) (scrape, error) {
	var sc scrape
	resp, err := s.c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return sc, err
	}
	if sc.fams, err = obs.ParseExposition(bytes.NewReader(resp.body)); err != nil {
		return sc, fmt.Errorf("/metrics: %w", err)
	}
	var stats struct {
		Stream broadcastStats `json:"stream"`
	}
	if err := s.c.getJSON("/stats", &stats); err != nil {
		return sc, err
	}
	sc.broadcast = stats.Stream
	var health struct {
		WAL struct {
			LastRecovery recoveryStats `json:"last_recovery"`
		} `json:"wal"`
	}
	if err := s.c.getJSON("/healthz", &health); err != nil {
		return sc, err
	}
	sc.recovery = health.WAL.LastRecovery
	pc := newClient(s.pprof)
	defer pc.close()
	resp, err = pc.do(http.MethodGet, "/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return sc, err
	}
	sc.mem, err = parseMemStats(resp.body)
	return sc, err
}

// parseMemStats reads the "# Mallocs = N" style lines of a debug=1
// heap profile.
func parseMemStats(b []byte) (memStats, error) {
	var m memStats
	fields := map[string]*float64{"Mallocs": &m.mallocs, "TotalAlloc": &m.totalAlloc, "NumGC": &m.numGC}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if dst := fields[k]; ok && dst != nil {
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return m, fmt.Errorf("heap profile %s: %w", k, err)
			}
			*dst = n
			found++
		}
	}
	if found != len(fields) {
		return m, fmt.Errorf("heap profile: %d of %d MemStats fields", found, len(fields))
	}
	return m, nil
}

// breakdownSpans are the server spans whose mean duration the ledger
// reports, from the traces the server's tail sampler retained.
var breakdownSpans = []string{"parse", "hub.push", "wal.append", "wal.fsync", "refresh", "broadcast.publish", "sse.flush"}

// collectTraces fetches every retained trace from every process and
// records the durations of the breakdown spans.
func (l *ledger) collectTraces(r *run) error {
	want := map[string]bool{}
	for _, n := range breakdownSpans {
		want[n] = true
	}
	l.spanUS = map[string][]float64{}
	for _, s := range r.servers() {
		var list struct {
			Traces []struct {
				TraceID string `json:"trace_id"`
			} `json:"traces"`
		}
		if err := s.c.getJSON("/traces?limit=256", &list); err != nil {
			return err
		}
		for _, t := range list.Traces {
			var ex struct {
				Spans []*spanNode `json:"spans"`
			}
			if err := s.c.getJSON("/traces/"+t.TraceID, &ex); err != nil {
				continue // evicted from the ring since the listing
			}
			walkSpans(ex.Spans, func(n *spanNode) {
				if want[n.Name] {
					l.spanUS[n.Name] = append(l.spanUS[n.Name], float64(n.DurationNS)/1e3)
				}
			})
		}
	}
	return nil
}

type spanNode struct {
	Name       string      `json:"name"`
	DurationNS int64       `json:"duration_ns"`
	Children   []*spanNode `json:"children"`
}

func walkSpans(nodes []*spanNode, fn func(*spanNode)) {
	for _, n := range nodes {
		fn(n)
		walkSpans(n.Children, fn)
	}
}

// delta is a family's change over the window on process i.
func (l *ledger) delta(i int, name string, match map[string]string) float64 {
	return counterValue(l.after[i].fams, name, match) - counterValue(l.before[i].fams, name, match)
}

// histogram is a histogram's observations over the window on process i.
func (l *ledger) histogram(i int, name string, match map[string]string) hist {
	b, _ := histFrom(l.before[i].fams, name, match)
	a, _ := histFrom(l.after[i].fams, name, match)
	return histDelta(b, a)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer is the traced run's ledger, with base the untraced run of
// the same workload (for the tracing overhead). Each layer is measured
// from outside: its /metrics histograms and counters, /stats, /healthz
// and pprof, and the timed replay of its Go entry points.
func (r *run) perLayer(base *run) ([]metric, error) {
	l := r.led
	if l == nil || l.replay == nil || len(l.after) == 0 {
		return nil, fmt.Errorf("traced run has no ledger")
	}
	win := r.t1.Sub(r.t0).Seconds()
	pts := float64(r.ptsAcked)
	var m []metric
	add := func(name string, v float64, unit string) { m = append(m, metric{name: name, value: v, unit: unit}) }
	route := func(rt string) map[string]string { return map[string]string{"route": rt} }
	const primary = 0

	// http: per-route server time, and what the client saw beyond it.
	ing := l.histogram(primary, "asap_http_request_duration_seconds", route("/ingest"))
	add("http.ingest_server_ms", ing.mean()*1e3, "ms")
	if r.w.readRate > 0 {
		add("http.frame_server_ms", l.histogram(primary, "asap_http_request_duration_seconds", route("/frame")).mean()*1e3, "ms")
		add("http.plot_server_ms", l.histogram(primary, "asap_http_request_duration_seconds", route("/plot.svg")).mean()*1e3, "ms")
	}
	add("http.ingest_busy_frac", ing.sum/win, "ratio")
	add("http.client_gap_ms", mean(r.ingestMS)-ing.mean()*1e3, "ms")
	non2xx := 0.0
	for i := range l.after {
		non2xx += l.delta(i, "asap_http_requests_total", map[string]string{"code": "4xx"}) +
			l.delta(i, "asap_http_requests_total", map[string]string{"code": "5xx"})
	}
	add("http.non2xx", non2xx, "count")

	// parse and hub: self times from the replay.
	rp := l.replay
	parseUS, hubSelfUS := rp.selfTimes()
	add("parse.us_per_pt", parseUS, "us/pt")
	add("hub.self_us_per_pt", hubSelfUS, "us/pt")
	add("hub.replay_pts_per_s", ratio(rp.points, rp.hubS), "pts/s")

	// stream: the refresh histogram and the search counters.
	ref := l.histogram(primary, "asap_stream_refresh_duration_seconds", nil)
	add("stream.refresh_busy_s", ref.sum, "s")
	add("stream.refresh_mean_us", ref.mean()*1e6, "us")
	add("stream.refresh_p99_us", ref.quantile(0.99)*1e6, "us")
	searches := l.delta(primary, "asap_stream_searches_total", nil)
	coalesced := l.delta(primary, "asap_stream_searches_coalesced_total", nil)
	ran := searches - coalesced - l.delta(primary, "asap_stream_searches_skipped_total", nil)
	add("stream.searches_run", ran, "count")
	add("stream.coalesced_frac", ratio(coalesced, searches), "ratio")
	add("stream.candidates_per_search", ratio(l.delta(primary, "asap_stream_candidates_total", nil), ran), "count")
	add("stream.frames_observed_frac", ratio(float64(r.framesObserved), float64(r.framesEmitted)), "ratio")
	add("stream.replay_us_per_search", ratio(rp.streamS*1e6, rp.searches), "us")

	if r.w.durable {
		app := l.histogram(primary, "asap_wal_append_duration_seconds", nil)
		add("wal.append_mean_us", app.mean()*1e6, "us")
		add("wal.append_p99_us", app.quantile(0.99)*1e6, "us")
		add("wal.fsyncs_per_req", ratio(l.delta(primary, "asap_wal_syncs_total", nil), float64(r.requests)), "count")
		add("wal.records_per_fsync", l.histogram(primary, "asap_wal_fsync_batch_records", nil).mean(), "count")
		add("wal.fsync_mean_ms", l.histogram(primary, "asap_wal_fsync_duration_seconds", nil).mean()*1e3, "ms")
		add("wal.bytes_per_pt", ratio(float64(r.walBytes), pts), "B/pt")
		if r.w.restart {
			rec := l.after[primary].recovery
			add("wal.recovery_s", rec.DurationMS/1e3, "s")
			add("wal.recovery_pts_per_s", ratio(rec.PointsReplayed, rec.DurationMS/1e3), "pts/s")
		}
		add("wal.replay_us_per_record", ratio(rp.walOpenS*1e6, rp.walRecords), "us")
	}

	if r.w.subscribe {
		sub := len(l.after) - 1 // the follower when there is one, else the primary
		del := l.histogram(sub, "asap_broadcast_delivery_duration_seconds", nil)
		add("broadcast.delivery_p50_ms", del.quantile(0.5)*1e3, "ms")
		add("broadcast.delivery_p99_ms", del.quantile(0.99)*1e3, "ms")
		b0, b1 := l.before[sub].broadcast, l.after[sub].broadcast
		add("broadcast.delivered_frac", ratio(b1.Delivered-b0.Delivered, b1.Published-b0.Published), "ratio")
		add("broadcast.evicted", b1.Evicted-b0.Evicted, "count")
		add("sse.bytes_per_frame", ratio(float64(r.sseBytes), float64(r.sseFrames)), "B")
	}

	add("plot.replay_us_per_svg", ratio(rp.plotS*1e6, float64(rp.plots)), "us")

	if r.w.follower {
		const f = 1
		polls := l.delta(f, "asap_replica_polls_total", nil)
		add("replica.polls_per_s", polls/win, "1/s")
		add("replica.records_per_poll", ratio(l.delta(f, "asap_replica_records_applied_total", nil), polls), "count")
		add("replica.bytes_fetched_per_pt", ratio(l.delta(f, "asap_replica_bytes_fetched_total", nil), pts), "B/pt")
		add("replica.cpu_us_per_pt", ratio(r.cpuFollower*1e6, pts), "us/pt")
		add("replica.retries", l.delta(f, "asap_replica_retries_total", nil), "count")
		add("replica.resyncs", l.delta(f, "asap_replica_resyncs_total", nil), "count")
		add("replica.poll_errors", l.delta(f, "asap_replica_poll_errors_total", nil), "count")
	}

	// runtime: summed over the server processes.
	var mallocs, bytes, gcs float64
	for i := range l.after {
		a, b := l.after[i].mem, l.before[i].mem
		mallocs += a.mallocs - b.mallocs
		bytes += a.totalAlloc - b.totalAlloc
		gcs += a.numGC - b.numGC
	}
	add("runtime.allocs_per_pt", ratio(mallocs, pts), "allocs/pt")
	add("runtime.bytes_per_pt", ratio(bytes, pts), "B/pt")
	add("runtime.gc_per_s", gcs/win, "1/s")
	add("runtime.cpu_util", r.cpuServers/win/float64(r.e.nproc), "ratio")

	// trace: the server's own spans.
	add("trace.spans_per_req", ratio(l.delta(primary, "asap_trace_spans_started_total", nil),
		float64(r.requests+r.readsDone)), "count")
	for _, n := range breakdownSpans {
		if us := l.spanUS[n]; len(us) > 0 {
			m = append(m, metric{name: "trace.breakdown." + n + "_us", value: mean(us), unit: "us", n: len(us)})
		}
	}

	// loadgen: validity of the generator itself.
	add("loadgen.late_p99_ms", percentile(r.lateMS, 99), "ms")
	add("loadgen.cpu_util", r.cpuSelf/win/float64(r.e.nproc), "ratio")
	add("loadgen.frames_verified", float64(r.framesVerified), "count")
	add("loadgen.reads_verified", float64(r.readsVerified), "count")
	p50, base50 := percentile(r.ingestMS, 50), percentile(base.ingestMS, 50)
	add("loadgen.trace_overhead_frac", ratio(p50-base50, base50), "ratio")
	return m, nil
}
