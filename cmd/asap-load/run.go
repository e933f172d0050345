package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/asap-go/asap"
)

// env is what every workload run shares.
type env struct {
	work       string            // scratch for data dirs and child logs
	serverBin  string            // the freshly built cmd/asap-server
	stream     asap.StreamConfig // the server's own flag defaults
	fsyncEvery time.Duration     // the server's default -fsync-every
	procs      *procs
	nproc      int
}

type options struct {
	seed    int64
	shape   shape
	traced  bool
	spans   *spanRecorder // nil when untraced
	flipRef bool          // test hook: corrupt one reference input
}

// deliveryLimit is how long a frame may take to reach the subscriber
// before it counts as a failure.
const deliveryLimit = 5 * time.Second

// instance is one asap-server child process and its request connection.
type instance struct {
	name  string
	child *child
	base  string
	pprof string // base URL of the pprof listener; empty when untraced
	c     *client
	dir   string // its -data-dir; empty when memory-only
}

// run is one workload's run: its inputs, the live system, and
// everything measured.
type run struct {
	e        *env
	w        workload
	o        options
	sh       shape
	ds       *dataset
	verified []bool
	ratio    int // raw points per pane

	cur  *cursor     // the sender's walk through the dataset
	log  []ingestReq // every ingest request sent to the live system, in order
	rr   int         // round-robin position of the next request
	body []byte

	primary, follower *instance
	sse               *sseClient
	prepDir           string // restart: the log every set-up restarts on
	restarts          []int  // log positions where the primary restarted over its WAL

	setupS    []float64
	t0, t1    time.Time
	ingestMS  []float64
	readMS    []float64
	lateMS    []float64
	freshMS   []float64
	ptsAcked  int
	acks      []ack // acknowledged in-window requests, for per-second rates
	requests  int   // ingest requests in the window
	readsDone int   // reads in the window
	reads     [][]seen

	readsVerified, framesVerified int
	framesEmitted, framesObserved int
	attempted, failed             int
	failures                      []string

	cpuServers, cpuFollower, cpuSelf float64 // CPU seconds in the window
	rssMB                            float64
	sseBytes                         int64
	sseFrames                        int
	walBytes                         int64 // data-dir growth over the window

	led *ledger // traced runs only
}

func newRun(e *env, w workload, o options) (*run, error) {
	w = w.sized(o.shape)
	st, err := asap.NewStreamer(e.stream)
	if err != nil {
		return nil, err
	}
	ds := newDataset(w.series, o.seed)
	return &run{
		e: e, w: w, o: o, sh: o.shape, ds: ds,
		verified: pickVerified(w.series, w.verifyEvery, o.seed),
		ratio:    st.Ratio(),
		cur:      newCursor(ds),
		reads:    make([][]seen, w.series),
	}, nil
}

// runWorkload runs one workload end to end. The returned run holds
// whatever was measured, even when err reports why it stopped early.
func runWorkload(e *env, w workload, o options) (*run, error) {
	r, err := newRun(e, w, o)
	if err != nil {
		return nil, err
	}
	o.spans.workload(w.name)
	defer r.stopSystem()
	if r.w.restart {
		if err := r.prep(); err != nil {
			return r, fmt.Errorf("restart prep: %w", err)
		}
	}
	for k := 0; k < r.sh.setups; k++ {
		if err := r.setup(); err != nil {
			return r, fmt.Errorf("setup %d: %w", k+1, err)
		}
		if k < r.sh.setups-1 {
			r.stopSystem()
		}
	}
	if err := r.measure(); err != nil {
		return r, fmt.Errorf("measure: %w", err)
	}
	if err := r.verify(); err != nil {
		return r, fmt.Errorf("verify: %w", err)
	}
	if r.o.traced {
		r.stopSystem() // the replay gets the machine to itself
		if r.led.replay, err = r.replay(); err != nil {
			return r, fmt.Errorf("replay: %w", err)
		}
	}
	return r, nil
}

func (r *run) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// spawn starts one asap-server on free loopback ports and waits for
// /readyz. A port taken between choosing and binding it is retried.
func (r *run) spawn(role string, args []string) (*instance, error) {
	for attempt := 1; ; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		full := append([]string{"-addr", "127.0.0.1:" + port}, args...)
		pprof := ""
		if r.o.traced {
			pport, err := freePort()
			if err != nil {
				return nil, err
			}
			full = append(full, "-pprof-addr", "127.0.0.1:"+pport)
			pprof = "http://127.0.0.1:" + pport
		}
		c, err := r.e.procs.start(r.e.work, r.w.name+"-"+role, r.e.serverBin, full)
		if err != nil {
			return nil, err
		}
		s := &instance{name: role, child: c, base: "http://127.0.0.1:" + port, pprof: pprof}
		s.c = newClient(s.base)
		err = s.waitReady(60 * time.Second)
		if err == nil {
			return s, nil
		}
		s.stop()
		if attempt < 5 && strings.Contains(c.output(), "address already in use") {
			continue
		}
		return nil, fmt.Errorf("%s: %w", role, err)
	}
}

func (s *instance) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if s.child.exited() {
			return fmt.Errorf("exited before ready: %v: %s", s.child.err, lastLines(s.child.output(), 5))
		}
		if resp, err := s.c.do(http.MethodGet, "/readyz", nil); err == nil && resp.status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *instance) stop() {
	s.c.close()
	s.child.stop(10 * time.Second)
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// stopSystem closes the subscriber, then stops the follower before the
// primary it polls.
func (r *run) stopSystem() {
	if r.sse != nil {
		r.sse.close()
		r.sse = nil
	}
	for _, s := range []*instance{r.follower, r.primary} {
		if s != nil {
			s.stop()
		}
	}
	r.primary, r.follower = nil, nil
}

func (r *run) servers() []*instance {
	if r.follower != nil {
		return []*instance{r.primary, r.follower}
	}
	return []*instance{r.primary}
}

// startSystem spawns the primary over dir (memory-only when empty) and,
// where the workload has one, its follower.
func (r *run) startSystem(dir string) error {
	var args []string
	if dir != "" {
		args = append(args, "-data-dir", dir)
		if r.w.strictFsync {
			args = append(args, "-fsync-every", "0")
		}
	}
	var err error
	if r.primary, err = r.spawn("primary", args); err != nil {
		return err
	}
	r.primary.dir = dir
	if r.w.follower {
		fdir, err := r.e.procs.mkdir(r.e.work, "follower-")
		if err != nil {
			return err
		}
		if r.follower, err = r.spawn("follower", []string{"-follow", r.primary.base, "-data-dir", fdir}); err != nil {
			return err
		}
		r.follower.dir = fdir
	}
	return nil
}

// nextReq is the next round-robin ingest request of the workload shape.
func (r *run) nextReq() ingestReq {
	first := (r.rr * r.w.seriesPerReq) % r.w.series
	r.rr++
	return ingestReq{first: first, nseries: r.w.seriesPerReq, npts: r.w.ptsPerSeries}
}

// post sends one ingest request, logs it, and checks its
// acknowledgement: 200 with the request's own point and series counts.
func (r *run) post(c *client, rq ingestReq) error {
	r.body = appendBody(r.body[:0], r.cur, rq)
	resp, err := c.do(http.MethodPost, "/ingest", r.body)
	if err == nil {
		err = checkAck(resp, rq)
	}
	rq.acked = err == nil
	r.log = append(r.log, rq)
	return err
}

func checkAck(resp response, rq ingestReq) error {
	if resp.status != http.StatusOK {
		return fmt.Errorf("ingest: status %d: %s", resp.status, bytes.TrimSpace(resp.body))
	}
	var pts, series int
	if _, err := fmt.Sscanf(string(resp.body), "ingested %d points across %d series", &pts, &series); err != nil {
		return fmt.Errorf("ingest ack %q: %w", resp.body, err)
	}
	if pts != rq.points() || series != rq.nseries {
		return fmt.Errorf("ingest ack %d points / %d series, sent %d / %d", pts, series, rq.points(), rq.nseries)
	}
	return nil
}

// warmup gives every series one full window (or the shape's warm-up),
// in warmBatch-point batches.
func (r *run) warmup(c *client) error {
	total := r.sh.warmup
	if total <= 0 {
		total = r.e.stream.WindowPoints
	}
	for done := 0; done < total; done += r.sh.warmBatch {
		npts := min(r.sh.warmBatch, total-done)
		for first := 0; first < r.w.series; first += r.sh.warmSeriesReq {
			rq := ingestReq{first: first, nseries: min(r.sh.warmSeriesReq, r.w.series-first), npts: npts}
			if err := r.post(c, rq); err != nil {
				return err
			}
		}
	}
	return nil
}

// prep builds the restart workload's log, untimed and not counted: a
// first primary takes the warm-up plus prepRequests closed-loop
// requests, then stops on SIGTERM.
func (r *run) prep() error {
	dir, err := r.e.procs.mkdir(r.e.work, "primary-")
	if err != nil {
		return err
	}
	if err := r.startSystem(dir); err != nil {
		return err
	}
	if err := r.warmup(r.primary.c); err != nil {
		return err
	}
	for i := 0; i < r.w.prepRequests; i++ {
		if err := r.post(r.primary.c, r.nextReq()); err != nil {
			return err
		}
	}
	r.stopSystem()
	r.prepDir = dir
	return nil
}

// setup brings the system to the point where the measured phase can
// start, timing it into setup_s: spawn, /readyz on every process, the
// warm-up acknowledged, and every series holding a frame on every
// process. On restart it is spawn over the prepared log, ready, one
// pane of points per series, and a frame on every series.
func (r *run) setup() error {
	dir := r.prepDir
	if !r.w.restart {
		// Every set-up starts from nothing, so the log restarts too.
		r.cur, r.log, r.rr = newCursor(r.ds), nil, 0
		if r.w.durable {
			var err error
			if dir, err = r.e.procs.mkdir(r.e.work, "primary-"); err != nil {
				return err
			}
		}
	}
	start := time.Now()
	endSpawn := r.o.spans.begin("phase.spawn")
	err := r.startSystem(dir)
	endSpawn()
	if err != nil {
		return err
	}
	endWarm := r.o.spans.begin("phase.warmup")
	if r.w.restart {
		r.restarts = append(r.restarts, len(r.log))
		for first := 0; first < r.w.series && err == nil; first += r.w.seriesPerReq {
			err = r.post(r.primary.c, ingestReq{first: first, nseries: min(r.w.seriesPerReq, r.w.series-first), npts: r.ratio})
		}
	} else {
		err = r.warmup(r.primary.c)
	}
	if err == nil {
		err = r.waitFrames()
	}
	endWarm()
	if err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return nil
}

// waitFrames returns once every series has a frame on the primary and
// the follower has caught up to it. The frames read are kept for
// verification.
func (r *run) waitFrames() error {
	deadline := time.Now().Add(30 * time.Second)
	for s := range r.ds.names {
		sig, err := r.readFrame(r.primary.c, s)
		if err != nil {
			return err
		}
		if r.follower == nil {
			continue
		}
		for {
			fsig, ferr := r.readFrame(r.follower.c, s)
			if ferr == nil && fsig.seq >= sig.seq {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower frame for %s: %v (want sequence %d, have %d)", r.ds.names[s], ferr, sig.seq, fsig.seq)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// readFrame reads series s's current frame, keeping it for
// verification; a series with no frame yet is an error.
func (r *run) readFrame(c *client, s int) (frameSig, error) {
	resp, err := c.do(http.MethodGet, "/frame?series="+r.ds.names[s], nil)
	if err != nil {
		return frameSig{}, err
	}
	if resp.status != http.StatusOK {
		return frameSig{}, fmt.Errorf("GET /frame %s: status %d", r.ds.names[s], resp.status)
	}
	sig, ok, err := parseFrame(resp.body)
	if err != nil {
		return frameSig{}, err
	}
	if !ok {
		return frameSig{}, fmt.Errorf("series %s has no frame", r.ds.names[s])
	}
	r.reads[s] = append(r.reads[s], seen{sig: sig, at: time.Now()})
	return sig, nil
}

// measure runs the measured window.
func (r *run) measure() error {
	if r.w.subscribe {
		target := r.primary
		if r.follower != nil {
			target = r.follower
		}
		var err error
		if r.sse, err = subscribe(target.base, r.ds.names, r.o.spans); err != nil {
			return err
		}
		// The connect-time catch-up delivers every series' current frame;
		// start only once it has, so the window measures live pushes.
		deadline := time.Now().Add(deliveryLimit)
		for s := range r.ds.names {
			for r.sse.latest(s) == 0 {
				if time.Now().After(deadline) {
					return fmt.Errorf("stream catch-up missing %s", r.ds.names[s])
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if r.o.traced {
		r.led = &ledger{}
		var err error
		if r.led.before, err = scrapeAll(r.servers()); err != nil {
			return err
		}
	}
	walBefore := dirSize(r.primary.dir)
	cpu0, self0, err := r.cpuNow()
	if err != nil {
		return err
	}
	end := r.o.spans.begin("phase.measure")
	r.t0 = time.Now()
	if r.w.closed {
		r.closedLoop()
	} else {
		r.openLoop()
	}
	r.t1 = time.Now()
	end()
	cpu1, self1, err := r.cpuNow()
	if err != nil {
		return err
	}
	r.cpuSelf = self1 - self0
	for i := range cpu1 {
		r.cpuServers += cpu1[i] - cpu0[i]
	}
	if r.follower != nil {
		r.cpuFollower = cpu1[1] - cpu0[1]
	}
	r.walBytes = dirSize(r.primary.dir) - walBefore
	for _, s := range r.servers() {
		hwm, err := procHWM(s.child.pid())
		if err != nil {
			return err
		}
		r.rssMB += hwm
	}
	if r.o.traced {
		if r.led.after, err = scrapeAll(r.servers()); err != nil {
			return err
		}
		if err := r.led.collectTraces(r); err != nil {
			return err
		}
	}
	return nil
}

// cpuNow reads every server process's CPU seconds and the harness's own.
func (r *run) cpuNow() (servers []float64, self float64, err error) {
	for _, s := range r.servers() {
		c, err := procCPU(s.child.pid())
		if err != nil {
			return nil, 0, err
		}
		servers = append(servers, c)
	}
	self, err = procCPU(os.Getpid())
	return servers, self, err
}

// closedLoop sends the next request as soon as the previous response
// is in, until the window ends. Latency runs from the send.
func (r *run) closedLoop() {
	end := r.t0.Add(r.sh.window)
	free := r.t0
	for free.Before(end) {
		rq := r.nextReq()
		rq.inWindow = true
		// Building the body is the generator's own time between requests.
		r.body = appendBody(r.body[:0], r.cur, rq)
		send := time.Now()
		rq.due = send
		r.lateMS = append(r.lateMS, durMS(send.Sub(free)))
		r.ingestTimed(rq)
		free = time.Now()
	}
}

// openLoop sends every request at its fixed due time on the one
// request connection: ingest at ingestRate and reads at readRate,
// interleaved. Latency runs from the due time, so a request queued
// behind a slow one carries that wait.
func (r *run) openLoop() {
	end := r.t0.Add(r.sh.window)
	ingestEvery := time.Duration(float64(time.Second) / r.w.ingestRate)
	var readEvery time.Duration
	if r.w.readRate > 0 {
		readEvery = time.Duration(float64(time.Second) / r.w.readRate)
	}
	rng := rand.New(rand.NewSource(r.o.seed))
	free := r.t0
	for i, j := 0, 0; ; {
		due, isRead := r.t0.Add(time.Duration(i)*ingestEvery), false
		if readEvery > 0 {
			if rd := r.t0.Add(readEvery/2 + time.Duration(j)*readEvery); rd.Before(due) {
				due, isRead = rd, true
			}
		}
		if !due.Before(end) {
			return
		}
		var rq ingestReq
		if !isRead {
			rq = r.nextReq()
			rq.inWindow, rq.due = true, due
			r.body = appendBody(r.body[:0], r.cur, rq)
		}
		sleepUntil(due)
		send := time.Now()
		r.lateMS = append(r.lateMS, durMS(send.Sub(later(due, free))))
		if isRead {
			r.readTimed(due, rng.Intn(r.w.series), rng.Intn(4) == 0)
			j++
		} else {
			r.ingestTimed(rq)
			i++
		}
		free = time.Now()
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// sleepUntil sleeps with nanosleep: the Go timer wakes on millisecond
// epoll timeouts, which alone would make the open loop up to 1 ms late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// ingestTimed sends one in-window ingest request whose body r.body
// already holds.
func (r *run) ingestTimed(rq ingestReq) {
	start := time.Now()
	resp, err := r.primary.c.do(http.MethodPost, "/ingest", r.body)
	if err == nil {
		err = checkAck(resp, rq)
	}
	done := time.Now()
	r.o.spans.add("client.ingest", laneRequest, start, done.Sub(start), "points", rq.points())
	r.requests++
	r.attempted++
	rq.acked = err == nil
	r.log = append(r.log, rq)
	if err != nil {
		r.fail("%v", err)
		r.ingestMS = append(r.ingestMS, inf)
		return
	}
	r.ptsAcked += rq.points()
	r.acks = append(r.acks, ack{at: done, pts: rq.points()})
	r.ingestMS = append(r.ingestMS, durMS(done.Sub(rq.due)))
}

// ack is one acknowledged in-window ingest request.
type ack struct {
	at  time.Time
	pts int
}

// rateSlices splits [t0, t1) into whole slices (the partial last one
// is dropped) and returns each slice's acknowledged points per second,
// measured between its first and last acknowledgement so the rate is
// not quantised to whole requests per slice. Their median is robust to
// a burst of interference on the machine that lasts less than half the
// window.
func rateSlices(acks []ack, t0, t1 time.Time, slice time.Duration) []float64 {
	type span struct {
		first, last time.Time
		pts         int // acknowledged after first
	}
	spans := make([]span, int(t1.Sub(t0)/slice))
	for _, a := range acks {
		i := int(a.at.Sub(t0) / slice)
		if i < 0 || i >= len(spans) {
			continue
		}
		if sp := &spans[i]; sp.first.IsZero() {
			sp.first, sp.last = a.at, a.at
		} else {
			sp.last = a.at
			sp.pts += a.pts
		}
	}
	var rates []float64
	for _, sp := range spans {
		if d := sp.last.Sub(sp.first); d > 0 {
			rates = append(rates, float64(sp.pts)/d.Seconds())
		}
	}
	return rates
}

// readTimed issues one in-window read: GET /frame, or GET /plot.svg
// when plot is set.
func (r *run) readTimed(due time.Time, s int, plot bool) {
	path, name := "/frame?series=", "client.frame"
	if plot {
		path, name = "/plot.svg?series=", "client.plot"
	}
	start := time.Now()
	resp, err := r.primary.c.do(http.MethodGet, path+r.ds.names[s], nil)
	done := time.Now()
	r.o.spans.add(name, laneRequest, start, done.Sub(start), "series", r.ds.names[s])
	r.readsDone++
	r.attempted++
	switch {
	case err != nil:
	case resp.status != http.StatusOK:
		err = fmt.Errorf("status %d", resp.status)
	case plot && !strings.HasPrefix(resp.ctype, "image/svg+xml"):
		err = fmt.Errorf("content type %q", resp.ctype)
	case !plot:
		var sig frameSig
		var ok bool
		if sig, ok, err = parseFrame(resp.body); err == nil && !ok {
			err = fmt.Errorf("no frame")
		}
		if err == nil {
			r.reads[s] = append(r.reads[s], seen{sig: sig, at: done})
		}
	default:
		r.readsVerified++ // a plot is verified by its status and type
	}
	if err != nil {
		r.fail("GET %s%s: %v", path, r.ds.names[s], err)
		r.readMS = append(r.readMS, inf)
		return
	}
	r.readMS = append(r.readMS, durMS(done.Sub(due)))
}

// verify checks, untimed, everything the clients saw against the
// reference fed the acknowledged batches in order.
func (r *run) verify() error {
	end := r.o.spans.begin("phase.verify")
	defer end()
	// The end-of-window read: the frame every verified series settled on.
	for s, v := range r.verified {
		if v {
			if _, err := r.readFrame(r.primary.c, s); err != nil {
				r.fail("end-of-window read: %v", err)
			}
		}
	}
	ref, err := feedReference(r.e.stream, r.ds, r.log, r.verified, r.restarts, r.o.flipRef)
	if err != nil {
		return err
	}
	var got [][]seen
	if r.sse != nil {
		got = r.drainStream(ref)
	}
	for s, v := range r.verified {
		if !v {
			continue
		}
		observed := map[int]bool{}
		for _, f := range r.reads[s] {
			r.attempted++
			observed[f.sig.seq] = true
			if err := ref.check(s, f.sig); err != nil {
				r.fail("/frame read: %v", err)
				continue
			}
			r.framesVerified++
			r.readsVerified++
		}
		if got != nil {
			for _, f := range got[s] {
				r.attempted++
				observed[f.sig.seq] = true
				if err := ref.check(s, f.sig); err != nil {
					r.fail("stream frame: %v", err)
					continue
				}
				r.framesVerified++
			}
			fresh, missing := freshness(ref.frames[s], got[s], r.log, deliveryLimit)
			r.freshMS = append(r.freshMS, fresh...)
			r.attempted += len(fresh) + missing
			for ; missing > 0; missing-- {
				r.fail("series %s: a frame was not delivered within %s", r.ds.names[s], deliveryLimit)
			}
		}
		for _, f := range ref.frames[s] {
			if r.log[f.req].inWindow {
				r.framesEmitted++
				if observed[f.sig.seq] {
					r.framesObserved++
				}
			}
		}
	}
	return r.checkPointCounts()
}

// drainStream waits until the subscriber holds every verified series'
// last reference frame (or the delivery limit passes), then closes it
// and returns what it received.
func (r *run) drainStream(ref *reference) [][]seen {
	deadline := time.Now().Add(deliveryLimit)
	for s, v := range r.verified {
		for v && r.sse.latest(s) < ref.last(s) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	sse := r.sse
	r.sse = nil
	sse.close()
	for _, e := range sse.errs {
		r.attempted++
		r.fail("stream: %s", e)
	}
	r.sseBytes = sse.bytes
	for _, fs := range sse.frames {
		r.sseFrames += len(fs)
	}
	return sse.frames
}

// checkPointCounts compares /stats?series= raw_points with the points
// sent, on every process; a follower gets the delivery limit to catch
// up.
func (r *run) checkPointCounts() error {
	for _, srv := range r.servers() {
		deadline := time.Now().Add(deliveryLimit)
		for s, name := range r.ds.names {
			for {
				var st struct {
					RawPoints int `json:"raw_points"`
				}
				if err := srv.c.getJSON("/stats?series="+name, &st); err != nil {
					return err
				}
				if st.RawPoints == r.cur.off[s] {
					break
				}
				if srv == r.primary || time.Now().After(deadline) {
					r.attempted++
					r.fail("%s %s: raw_points %d, sent %d", srv.name, name, st.RawPoints, r.cur.off[s])
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	return nil
}

// dirSize is the bytes held under dir (0 when dir is empty or gone).
func dirSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
