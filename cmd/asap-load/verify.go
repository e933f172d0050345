package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/asap-go/asap"
)

// refFrame is one frame the reference emitted: one per PushBatch that
// refreshed, exactly as the server's hub emits one per series per
// request.
type refFrame struct {
	sig frameSig
	req int // index of the producing request in the run's ingest log
}

// reference is one asap.Streamer per verified series, configured like
// the server's, fed the acknowledged batches in acknowledged order.
type reference struct {
	frames [][]refFrame // by series, ascending sequence; nil when unverified
}

// feedReference replays log through fresh Streamers for the verified
// series. restarts lists the log positions at which the server was
// restarted over its WAL; there the reference is rebuilt the same way,
// with Streamer.Restore over the points acknowledged so far. A restart
// does not carry over the search seed, so a never-restarted reference
// may settle on another window than the restarted server (the check
// would report that), but a frame after a restart must still equal
// the reference restored from exactly the acknowledged points. With
// flip set, the first verified value pushed by an in-window request is
// negated — the test hook proving the check can fail.
func feedReference(cfg asap.StreamConfig, d *dataset, log []ingestReq, verified []bool, restarts []int, flip bool) (*reference, error) {
	n := len(d.names)
	st := make([]*asap.Streamer, n)
	ref := &reference{frames: make([][]refFrame, n)}
	cur := newCursor(d)
	restore := func(restored bool) error {
		for s := range st {
			if !verified[s] {
				continue
			}
			var err error
			if st[s], err = asap.NewStreamer(cfg); err != nil {
				return err
			}
			if restored {
				// The tail the server's WAL retains per series: the window
				// plus two panes, as walHorizon in internal/server/server.go
				// sizes it ((window/ratio + 2) panes of ratio points).
				st[s].Restore(recentPoints(d, s, cur.off[s], cfg.WindowPoints+2*st[s].Ratio()), cur.off[s])
			}
		}
		return nil
	}
	if err := restore(false); err != nil {
		return nil, err
	}
	for ri, rq := range log {
		for len(restarts) > 0 && restarts[0] == ri {
			restarts = restarts[1:]
			if err := restore(true); err != nil {
				return nil, err
			}
		}
		for k := 0; k < rq.nseries; k++ {
			s := rq.series(k, n)
			vals := cur.next(s, rq.npts)
			if st[s] == nil || !rq.acked {
				continue
			}
			if flip && rq.inWindow {
				vals[0] = -vals[0] + 1
				flip = false
			}
			if f := st[s].PushBatch(vals); f != nil {
				ref.frames[s] = append(ref.frames[s], refFrame{
					sig: frameSig{seq: f.Sequence, window: f.Window, hash: hashValues(f.Values)}, req: ri})
				f.Release()
			}
		}
	}
	return ref, nil
}

// recentPoints returns the last min(total, n) of the total points
// series s has been sent.
func recentPoints(d *dataset, s, total, n int) []float64 {
	n = min(n, total)
	vals := d.values[s]
	out := make([]float64, n)
	for k := range out {
		out[k] = vals[(total-n+k)%len(vals)]
	}
	return out
}

// lookup returns the reference frame of series s with sequence seq.
func (r *reference) lookup(s, seq int) (refFrame, bool) {
	fs := r.frames[s]
	i := sort.Search(len(fs), func(i int) bool { return fs[i].sig.seq >= seq })
	if i < len(fs) && fs[i].sig.seq == seq {
		return fs[i], true
	}
	return refFrame{}, false
}

// check compares one received frame of series s with the reference
// frame of the same sequence.
func (r *reference) check(s int, got frameSig) error {
	want, ok := r.lookup(s, got.seq)
	switch {
	case !ok:
		return fmt.Errorf("series %d: sequence %d never emitted by the reference", s, got.seq)
	case got.window != want.sig.window:
		return fmt.Errorf("series %d sequence %d: window %d, reference %d", s, got.seq, got.window, want.sig.window)
	case got.hash != want.sig.hash:
		return fmt.Errorf("series %d sequence %d: values differ from the reference", s, got.seq)
	}
	return nil
}

// last returns series s's final reference sequence (0 if none).
func (r *reference) last(s int) int {
	if fs := r.frames[s]; len(fs) > 0 {
		return fs[len(fs)-1].sig.seq
	}
	return 0
}

// freshness maps every in-window reference frame of one series to the
// first frame the subscriber received with an equal or higher sequence
// — latest-wins coalescing may have superseded it — and returns
// receipt time minus the producing request's due time, in ms. A frame
// with no such receipt within limit counts as missing.
func freshness(ref []refFrame, got []seen, log []ingestReq, limit time.Duration) (ms []float64, missing int) {
	for _, f := range ref {
		rq := log[f.req]
		if !rq.inWindow {
			continue
		}
		i := sort.Search(len(got), func(i int) bool { return got[i].sig.seq >= f.sig.seq })
		if i == len(got) || got[i].at.Sub(rq.due) > limit {
			missing++
			continue
		}
		ms = append(ms, durMS(got[i].at.Sub(rq.due)))
	}
	return ms, missing
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// inf is the latency a failed request counts as.
var inf = math.Inf(1)
