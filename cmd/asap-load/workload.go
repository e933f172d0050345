package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"github.com/asap-go/asap/internal/datasets"
)

// workload is one traffic mix against one server topology. Why each
// exists is in BENCHMARK.json and the package documentation.
type workload struct {
	name         string
	series       int     // live series
	seriesPerReq int     // series per POST /ingest, in round-robin order
	ptsPerSeries int     // points per series per request
	closed       bool    // closed loop; otherwise open loop at ingestRate
	ingestRate   float64 // open loop: ingest requests per second
	readRate     float64 // open loop: reads per second, 3 /frame : 1 /plot.svg
	subscribe    bool    // one /stream subscriber to every series
	durable      bool    // the primary logs to a -data-dir
	strictFsync  bool    // -fsync-every 0: fsync every append, group-committed
	follower     bool    // a follower replicates the primary; the subscriber reads it
	restart      bool    // measured on a primary restarted over a prepared log
	prepRequests int     // restart: closed-loop requests before the restart
	verifyEvery  int     // verify one series in verifyEvery
}

var workloads = []workload{
	{
		name:   "ingest-heavy",
		series: 256, seriesPerReq: 32, ptsPerSeries: 32, closed: true, verifyEvery: 8,
	},
	{
		name:   "dashboard",
		series: 64, seriesPerReq: 16, ptsPerSeries: 4, ingestRate: 200, readRate: 100,
		subscribe: true, verifyEvery: 1,
	},
	{
		name:   "durable-replica",
		series: 64, seriesPerReq: 16, ptsPerSeries: 4, ingestRate: 100,
		subscribe: true, durable: true, strictFsync: true, follower: true, verifyEvery: 1,
	},
	{
		name:   "restart",
		series: 256, seriesPerReq: 32, ptsPerSeries: 32, closed: true,
		durable: true, restart: true, prepRequests: 500, verifyEvery: 8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape sizes a run. The benchmark uses fullShape; tests shrink it.
type shape struct {
	window         time.Duration // measured phase
	seriesCap      int           // 0 keeps each workload's series count
	warmup         int           // points per series before the window; 0 = the server's window
	warmBatch      int           // warm-up points per series per request
	warmSeriesReq  int           // series per warm-up request
	setups         int           // set-ups per run; setup_s is their median
	prepRequests   int           // 0 keeps the workload's restart prep
	replayRequests int           // measured requests the traced layer replay times
	minP99Samples  int           // a p99 resting on fewer samples marks the run invalid
	maxLateMS      float64       // a generator lateness p99 above this marks the run invalid
}

func fullShape(window time.Duration) shape {
	return shape{
		window:         window,
		warmBatch:      3600,
		warmSeriesReq:  16,
		setups:         3,
		replayRequests: 1000,
		minP99Samples:  1000,
		maxLateMS:      1,
	}
}

// sized applies the shape's caps to the workload.
func (w workload) sized(sh shape) workload {
	if sh.seriesCap > 0 && w.series > sh.seriesCap {
		w.series = sh.seriesCap
	}
	if w.seriesPerReq > w.series {
		w.seriesPerReq = w.series
	}
	if sh.prepRequests > 0 && w.restart {
		w.prepRequests = sh.prepRequests
	}
	return w
}

// dataset is the generated input: series i replays
// datasets.Catalog()[i % 11] generated from seed+i, cyclically, so the
// search sees the periodic structure of the paper's datasets.
type dataset struct {
	names  []string
	values [][]float64
}

// seriesPoints is each series' generated length before it wraps.
const seriesPoints = 1 << 14

func newDataset(series int, seed int64) *dataset {
	cat := datasets.Catalog()
	d := &dataset{names: make([]string, series), values: make([][]float64, series)}
	for i := range d.names {
		d.names[i] = fmt.Sprintf("s%03d", i)
		d.values[i] = cat[i%len(cat)].GenerateN(seriesPoints, seed+int64(i)).Values
	}
	return d
}

// cursor walks the dataset: each series' next points, in order. The
// sender and the reference each hold one, so both see identical
// batches as long as they visit the same requests in the same order.
type cursor struct {
	d   *dataset
	off []int // points taken per series
	buf []float64
}

func newCursor(d *dataset) *cursor {
	return &cursor{d: d, off: make([]int, len(d.names))}
}

// next returns series s's next n points; the slice is reused by the
// following call.
func (c *cursor) next(s, n int) []float64 {
	vals := c.d.values[s]
	c.buf = c.buf[:0]
	for k := 0; k < n; k++ {
		c.buf = append(c.buf, vals[(c.off[s]+k)%len(vals)])
	}
	c.off[s] += n
	return c.buf
}

// ingestReq is one POST /ingest: npts points for each of nseries
// consecutive series starting at first (mod the series count).
type ingestReq struct {
	first, nseries, npts int
	due                  time.Time // when it was due (open loop) or sent (closed loop)
	inWindow             bool
	acked                bool
}

func (rq ingestReq) points() int { return rq.nseries * rq.npts }

func (rq ingestReq) series(k, total int) int { return (rq.first + k) % total }

// appendBody renders rq in the line protocol, advancing c. Values are
// formatted with 'g' and -1 precision, so the server parses exactly
// the float the reference receives.
func appendBody(b []byte, c *cursor, rq ingestReq) []byte {
	total := len(c.d.names)
	for k := 0; k < rq.nseries; k++ {
		s := rq.series(k, total)
		name := c.d.names[s]
		for _, v := range c.next(s, rq.npts) {
			b = append(b, name...)
			b = append(b, '=')
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}

// pickVerified chooses the series whose frames are checked: all of
// them when every is 1, otherwise a seeded one in every.
func pickVerified(series, every int, seed int64) []bool {
	v := make([]bool, series)
	if every <= 1 {
		for i := range v {
			v[i] = true
		}
		return v
	}
	perm := rand.New(rand.NewSource(seed)).Perm(series)
	n := (series + every - 1) / every
	for _, s := range perm[:n] {
		v[s] = true
	}
	return v
}
