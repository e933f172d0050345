package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/asap-go/asap"
	"github.com/asap-go/asap/internal/server"
	"github.com/asap-go/asap/internal/wal"
)

// replayResult is the single-threaded, in-process replay of a traced
// run's inputs through each layer's Go entry point: the warm-up
// untimed, then the first measured requests timed. Times are summed
// seconds over the timed calls.
type replayResult struct {
	points                     float64 // points in the timed requests
	streamS, walS, hubS, httpS float64 // Streamer.PushBatch, Log.Append, Hub.PushBatch, Handler.ServeHTTP
	searches                   float64 // searches the timed Streamer pushes ran
	walOpenS, walRecords       float64 // reopening the replay's log, and the records it replayed
	plotS                      float64
	plots                      int
}

// selfTimes splits the nested layers by subtraction, per point: the
// handler's time beyond the hub's is parse plus the HTTP layer, and
// the hub's beyond the Streamer's and the WAL's is the hub's own.
func (rp *replayResult) selfTimes() (parseUS, hubSelfUS float64) {
	return ratio((rp.httpS-rp.hubS)*1e6, rp.points), ratio((rp.hubS-rp.streamS-rp.walS)*1e6, rp.points)
}

// replayInputs splits the acknowledged log into what preceded the
// window and its first replayRequests requests.
func (r *run) replayInputs() (warm, timed []ingestReq) {
	for _, rq := range r.log {
		switch {
		case !rq.acked:
		case !rq.inWindow:
			warm = append(warm, rq)
		case len(timed) < r.sh.replayRequests:
			timed = append(timed, rq)
		}
	}
	return warm, timed
}

// layers is one independent copy of each layer the replay times. The
// hub is that of a server of its own, so its WAL opens exactly as the
// server opens one.
type layers struct {
	st      []*asap.Streamer
	wal     *wal.Log // nil for a memory-only workload
	walCfg  wal.Config
	hubSrv  *server.Server
	hub     *server.Hub
	srv     *server.Server
	handler http.Handler
}

func (l *layers) close() {
	if l.wal != nil {
		l.wal.Close()
	}
	for _, s := range []*server.Server{l.hubSrv, l.srv} {
		if s != nil {
			s.Close()
		}
	}
}

// newLayers builds the layers over fresh scratch directories, with the
// workload's fsync mode where it has a WAL.
func (r *run) newLayers() (*layers, error) {
	l := &layers{st: make([]*asap.Streamer, r.w.series)}
	for s := range l.st {
		var err error
		if l.st[s], err = asap.NewStreamer(r.e.stream); err != nil {
			return l, err
		}
	}
	var hubDir string
	var err error
	if l.hubSrv, hubDir, err = r.newServer(); err != nil {
		return l, err
	}
	l.hub = l.hubSrv.Hub()
	if l.srv, _, err = r.newServer(); err != nil {
		return l, err
	}
	l.handler = l.srv.Handler()
	if !r.w.durable {
		return l, nil
	}
	// The standalone log takes the shard count the server chose for its
	// own, as recorded in its data directory.
	shards, _, err := wal.MetaShards(hubDir)
	if err != nil {
		return l, err
	}
	dir, err := r.e.procs.mkdir(r.e.work, "replay-wal-")
	if err != nil {
		return l, err
	}
	l.walCfg = wal.Config{Dir: dir, Shards: shards, FsyncEvery: r.fsyncEvery(), Logf: func(string, ...interface{}) {}}
	l.wal, err = wal.Open(l.walCfg)
	return l, err
}

// newServer builds an in-process server with the stream configuration
// and fsync mode of the workload's, over a fresh data directory (which
// it returns) where the workload has a WAL.
func (r *run) newServer() (*server.Server, string, error) {
	cfg := server.Config{
		Hub:        server.HubConfig{Stream: r.e.stream},
		FsyncEvery: r.fsyncEvery(),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if r.w.durable {
		var err error
		if cfg.DataDir, err = r.e.procs.mkdir(r.e.work, "replay-server-"); err != nil {
			return nil, "", err
		}
	}
	s, err := server.New(cfg)
	return s, cfg.DataDir, err
}

// fsyncEvery is the workload's fsync interval: 0 in strict mode,
// otherwise the server's default.
func (r *run) fsyncEvery() time.Duration {
	if r.w.strictFsync {
		return 0
	}
	return r.e.fsyncEvery
}

// replay runs after the system has stopped, so it has the machine to
// itself. Each batch goes through every layer back to back —
// Streamer.PushBatch, Log.Append and Hub.PushBatch per series, then the
// server's full handler for the request body — so the subtractions
// compare calls made microseconds apart, under the same conditions.
// Then it renders the final frames through GET /plot.svg and times
// reopening the log.
func (r *run) replay() (*replayResult, error) {
	end := r.o.spans.begin("phase.replay")
	defer end()
	l, err := r.newLayers()
	defer l.close()
	if err != nil {
		return nil, err
	}
	warm, timed := r.replayInputs()
	rp := &replayResult{}
	searches := func() float64 {
		n := 0
		for _, st := range l.st {
			c := st.Stats()
			n += c.Searches - c.SearchesCoalesced - c.SearchesSkipped
		}
		return float64(n)
	}
	cur, bodyCur := newCursor(r.ds), newCursor(r.ds)
	var body []byte
	var before float64
	for phase, reqs := range [][]ingestReq{warm, timed} {
		timing := phase == 1
		if timing {
			before = searches()
			runtime.GC() // the timed phase starts from a collected heap
		}
		call := func(span string, total *float64, fn func() error) error {
			start := time.Now()
			err := fn()
			if d := time.Since(start); timing {
				*total += d.Seconds()
				r.o.spans.add(span, laneReplay, start, d)
			}
			return err
		}
		for _, rq := range reqs {
			if timing {
				rp.points += float64(rq.points())
			}
			for k := 0; k < rq.nseries; k++ {
				s := rq.series(k, r.w.series)
				name, vals := r.ds.names[s], cur.next(s, rq.npts)
				err := call("replay.stream.push", &rp.streamS, func() error {
					if f := l.st[s].PushBatch(vals); f != nil {
						f.Release()
					}
					return nil
				})
				if err == nil && l.wal != nil {
					err = call("replay.wal.append", &rp.walS, func() error { return l.wal.Append(name, vals) })
				}
				if err == nil {
					err = call("replay.hub.push", &rp.hubS, func() error { return l.hub.PushBatch(name, vals) })
				}
				if err != nil {
					return nil, err
				}
			}
			body = appendBody(body[:0], bodyCur, rq)
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
			_ = call("replay.http.ingest", &rp.httpS, func() error { l.handler.ServeHTTP(rec, req); return nil })
			if rec.Code != http.StatusOK {
				return nil, fmt.Errorf("replayed ingest: status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	rp.searches = searches() - before
	if err := r.replayPlots(l.handler, rp); err != nil {
		return nil, err
	}
	if l.wal != nil {
		if err := r.replayRecovery(l, rp); err != nil {
			return nil, err
		}
	}
	return rp, nil
}

// replayPlots times GET /plot.svg, which renders the frame with
// plot.SVGSeries, through the replay server's handler on every series'
// final frame.
func (r *run) replayPlots(h http.Handler, rp *replayResult) error {
	for _, name := range r.ds.names[:r.w.series] {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/plot.svg?series="+name, nil)
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code == http.StatusServiceUnavailable {
			continue // no frame yet
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("replayed plot of %s: status %d: %s", name, rec.Code, rec.Body)
		}
		rp.plotS += d.Seconds()
		rp.plots++
		r.o.spans.add("replay.plot.svg", laneReplay, start, d)
	}
	return nil
}

// replayRecovery closes the replay's log and times reopening it.
func (r *run) replayRecovery(l *layers, rp *replayResult) error {
	err := l.wal.Close()
	l.wal = nil
	if err != nil {
		return err
	}
	start := time.Now()
	w, err := wal.Open(l.walCfg)
	if err != nil {
		return err
	}
	rec := w.Recover()
	d := time.Since(start)
	rp.walOpenS = d.Seconds()
	rp.walRecords = float64(rec.Stats.RecordsReplayed)
	r.o.spans.add("replay.wal.open", laneReplay, start, d, "records", rec.Stats.RecordsReplayed)
	return w.Close()
}
