// Package stream implements streaming ASAP (Section 4.5, Algorithm 3): a
// stream operator that maintains a sliding visualization window over an
// unbounded series and re-runs the smoothing-parameter search on demand.
//
// Three optimizations from the paper are individually controllable so the
// factor analysis and lesion study of Figure 11 can be reproduced:
//
//   - pixel-aware preaggregation: incoming points are sub-aggregated into
//     panes of the point-to-pixel ratio before anything else touches them;
//   - autocorrelation pruning: the window search is ASAP's Algorithm 2
//     (disable it to fall back to exhaustive search over the same data);
//   - on-demand ("lazy") refresh: the search re-runs only once per refresh
//     interval rather than on every arriving point.
//
// Each refresh seeds the new search with the previous window
// (CheckLastWindow): if the old parameter still satisfies the kurtosis
// constraint it becomes the incumbent, activating the roughness and
// lower-bound pruning immediately.
//
// # The refresh engine
//
// The steady-state refresh path is allocation-free. The operator owns a
// reusable acf.Analyzer (ACF scratch over a process-wide FFT plan), a
// reusable core.Result, a chronological window scratch, and a smoothed-output
// buffer; a refresh runs the ACF, the search, and the SMA entirely in
// that state, then copies the smoothed series once into a pooled,
// reference-counted frame buffer. Consumers that Release frames when
// done return those buffers to the pool, closing the last per-refresh
// allocation; consumers that never Release degrade gracefully to the
// old one-allocation behaviour. When a refresh fires before any new
// aggregated pane has completed — a sub-pane refresh cadence — and the
// previous search was a fixed point (it returned its own seed), the
// search is skipped outright and the cached result is re-emitted with a
// bumped sequence number: re-running would repeat the identical
// computation on identical input, so the skip is bit-exact by
// construction, not by estimation.
//
// Two further optimizations target batch ingest and long windows:
// PushBatch coalesces the refresh deadlines a batch crosses into one
// search at the batch tail (Stats.Coalesced), and Config.IncrementalACF
// swaps the per-refresh FFT recomputation for an acf.Incremental
// maintainer updated in O(maxLag) per pane (see docs/PERFORMANCE.md for
// the semantics of both).
package stream

import (
	"errors"
	"fmt"

	"github.com/asap-go/asap/internal/acf"
	"github.com/asap-go/asap/internal/core"
)

// ErrConfig reports an invalid operator configuration.
var ErrConfig = errors.New("stream: invalid config")

// Config configures a streaming ASAP operator.
type Config struct {
	// WindowPoints is the number of raw points in the visualization window
	// (e.g. "the last 30 minutes" at the stream's rate). Required.
	WindowPoints int
	// Resolution is the target display width in pixels. Required.
	Resolution int
	// RefreshEvery is the on-demand update interval measured in raw
	// points, as in Figure 10. 0 picks one refresh per aggregated point
	// (the non-lazy baseline).
	RefreshEvery int
	// Strategy is the search algorithm to run at each refresh. The
	// default (StrategyASAP) enables autocorrelation pruning; the lesion
	// study uses StrategyExhaustive here ("no AC").
	Strategy core.Strategy
	// DisablePreaggregation turns off pixel-aware preaggregation ("no
	// Pixel" lesion): the search runs over raw points.
	DisablePreaggregation bool
	// MaxWindow optionally bounds the search on the aggregated window.
	MaxWindow int
	// IncrementalACF maintains the autocorrelation incrementally
	// (acf.Incremental: O(maxLag) per pane with periodic exact resync)
	// instead of recomputing it per refresh through the FFT analyzer.
	// Frames agree with the analyzer path to 1e-9 in the ACF estimate —
	// and are bit-identical whenever the search picks the same window,
	// which is everything except exact decision boundaries — but the
	// maintained state depends on the whole stream history, so enabling
	// it weakens the bit-exact restart/replica equivalence guarantee to
	// that tolerance. Off by default for that reason. Only affects
	// StrategyASAP.
	IncrementalACF bool
	// DisableBatchCoalescing forces PushBatch to refresh per deadline
	// exactly like repeated Push. It exists for the differential tests
	// and the before/after benchmark; production callers want the
	// default coalesced path.
	DisableBatchCoalescing bool
}

// Frame is one rendered output of the operator: the state of the smoothed
// visualization after a refresh. Frames are emitted by value; Smoothed is
// freshly copied on emission and never written by the operator while the
// frame is live, so a Frame may be retained indefinitely. Smoothed is
// backed by a pooled, reference-counted buffer: callers that are done
// with a frame should call Release so the buffer can be reused by a
// later refresh; callers that never Release simply leave the buffer to
// the garbage collector (it is never recycled under them).
type Frame struct {
	// Smoothed is the SMA of the aggregated window with the chosen window.
	Smoothed []float64
	// Window is the chosen SMA window (in aggregated points).
	Window int
	// Roughness and Kurtosis describe Smoothed.
	Roughness float64
	Kurtosis  float64
	// SeedReused reports whether the previous window satisfied the
	// kurtosis constraint and seeded this search (CheckLastWindow).
	SeedReused bool
	// Sequence numbers the refreshes, starting at 1.
	Sequence int

	// buf is the pooled backing store of Smoothed (nil for zero frames
	// and after Release); gen is the buffer generation this frame was
	// emitted against, letting Release ignore stale handles.
	buf *frameBuf
	gen uint32
}

// Stats counts the operator's work, the raw material of Figures 10 and 11.
type Stats struct {
	RawPoints  int // points pushed
	Panes      int // aggregated points produced
	Searches   int // refreshes (frames emitted)
	Candidates int // total candidate windows evaluated across searches
	// Skipped counts refreshes that re-emitted the cached search result
	// because no aggregated pane had completed since the previous search
	// (sub-pane refresh cadences). Skipped refreshes still count in
	// Searches — they emit a frame — but evaluate no candidates.
	Skipped int
	// Coalesced counts refresh deadlines that PushBatch folded into its
	// single batch-tail search: a batch crossing k deadlines runs one
	// real search and accounts the other k-1 here. Coalesced deadlines
	// count in Searches (they advance Frame.Sequence) but evaluate no
	// candidates and emit no intermediate frames.
	Coalesced int
}

// Operator is a streaming ASAP instance. It is not safe for concurrent
// use; callers own synchronization (one operator per stream partition is
// the intended deployment, mirroring the MacroBase operator).
type Operator struct {
	cfg      Config
	ratio    int // pane size in raw points (1 when preaggregation is off)
	capacity int // aggregated points kept in the window

	// pane accumulation
	paneSum   float64
	paneCount int

	// ring buffer of aggregated points
	ring  []float64
	head  int // index of oldest
	count int

	// refresh scheduling
	refreshEveryRaw int // raw points per refresh
	rawSinceRefresh int

	lastWindow int
	stats      Stats

	// Reusable refresh-engine state: the analyzer owns the FFT plan and
	// ACF scratch, searchRes the search output, scratch the chronological
	// window copy, and smooth the smoothed series before it is copied
	// into the emitted frame. With Config.IncrementalACF, inc fully
	// replaces the analyzer (New sizes it to cover every lag a refresh
	// can request, so no analyzer fallback exists on that path; an inc
	// error just runs the search without ACF pruning, like the analyzer
	// error path).
	analyzer  *acf.Analyzer
	inc       *acf.Incremental
	searchRes core.Result
	scratch   []float64
	smooth    []float64

	// Cached last frame plus the memoization guard. searchFixpoint
	// records whether the last real search returned its own seed; only
	// then is "skip the search when no pane completed" provably
	// bit-identical to re-searching (identical input and identical
	// options repeat the identical deterministic computation).
	frame          Frame
	hasFrame       bool
	panesAtSearch  int
	searchFixpoint bool

	// disableMemo forces every refresh through the full search; it exists
	// for the differential tests that pin the memoized path to the
	// search-every-refresh engine, bit for bit.
	disableMemo bool
}

// New validates cfg and returns a ready operator.
func New(cfg Config) (*Operator, error) {
	if cfg.WindowPoints < 4 {
		return nil, fmt.Errorf("%w: WindowPoints=%d (need >= 4)", ErrConfig, cfg.WindowPoints)
	}
	if cfg.Resolution < 1 {
		return nil, fmt.Errorf("%w: Resolution=%d", ErrConfig, cfg.Resolution)
	}
	if cfg.RefreshEvery < 0 {
		return nil, fmt.Errorf("%w: RefreshEvery=%d", ErrConfig, cfg.RefreshEvery)
	}
	ratio := 1
	if !cfg.DisablePreaggregation {
		ratio = cfg.WindowPoints / cfg.Resolution
		if ratio < 1 {
			ratio = 1
		}
	}
	capacity := cfg.WindowPoints / ratio
	if capacity < 4 {
		capacity = 4
	}
	refreshRaw := cfg.RefreshEvery
	if refreshRaw <= 0 {
		refreshRaw = ratio // one refresh per completed pane
	}
	o := &Operator{
		cfg:             cfg,
		ratio:           ratio,
		capacity:        capacity,
		ring:            make([]float64, capacity),
		refreshEveryRaw: refreshRaw,
		lastWindow:      1,
		scratch:         make([]float64, capacity),
		smooth:          make([]float64, 0, capacity),
	}
	if cfg.IncrementalACF && cfg.Strategy == core.StrategyASAP {
		// Size the maintainer for the at-capacity search: the lags a
		// refresh requests only shrink while the window is still growing,
		// so this one bound covers the operator's whole life.
		maxLag := core.MaxLag(capacity, cfg.MaxWindow)
		inc, err := acf.NewIncremental(acf.IncrementalConfig{Capacity: capacity, MaxLag: maxLag})
		if err != nil {
			return nil, fmt.Errorf("%w: incremental ACF: %v", ErrConfig, err)
		}
		o.inc = inc
	}
	return o, nil
}

// Ratio returns the point-to-pixel ratio (pane size) in effect.
func (o *Operator) Ratio() int { return o.ratio }

// accumulate feeds one raw point into pane aggregation and the refresh
// clock without evaluating the refresh condition — the shared body of
// Push and the batched ingest paths.
func (o *Operator) accumulate(x float64) {
	o.stats.RawPoints++
	o.paneSum += x
	o.paneCount++
	if o.paneCount == o.ratio {
		o.appendAgg(o.paneSum / float64(o.ratio))
		o.paneSum, o.paneCount = 0, 0
	}
	o.rawSinceRefresh++
}

// refreshDue is THE refresh firing condition — the interval elapsed and
// enough aggregated panes exist to search. Push, PushBatch's real pass,
// and tickSchedule's dry-run mirror must all express exactly this rule;
// change it here and in tickSchedule together.
func (o *Operator) refreshDue() bool {
	return o.rawSinceRefresh >= o.refreshEveryRaw && o.count >= 4
}

// tickSchedule advances a dry-run copy of the scheduling state
// (paneCount, ring occupancy, raw points since refresh) by one raw
// point and reports whether a refresh fires there — the pure mirror of
// accumulate+refreshDue that PushBatch's pass 1 simulates with. It must
// stay in lockstep with accumulate/appendAgg/refreshDue; PushBatch's
// real pass tolerates divergence (degraded coalescing, a late flush
// search), but only this mirror being faithful makes coalesced frames
// land on exactly the per-point schedule.
func (o *Operator) tickSchedule(paneCount, count, rawSince int) (int, int, int, bool) {
	paneCount++
	if paneCount == o.ratio {
		paneCount = 0
		if count < o.capacity {
			count++
		}
	}
	rawSince++
	fire := false
	if rawSince >= o.refreshEveryRaw && count >= 4 {
		rawSince = 0
		fire = true
	}
	return paneCount, count, rawSince, fire
}

// Push feeds one raw point into the operator. It returns the new frame
// and true if this point triggered a refresh.
func (o *Operator) Push(x float64) (Frame, bool) {
	o.accumulate(x)
	if o.refreshDue() {
		o.rawSinceRefresh = 0
		return o.refresh()
	}
	return Frame{}, false
}

// PushBatch feeds a slice of points and returns the last frame produced
// during the batch (false when no refresh fired).
//
// Refresh deadlines inside the batch are coalesced: a batch crossing k
// deadlines runs ONE search, at the last deadline the batch reaches,
// instead of k. The skipped deadlines still advance the frame sequence
// and the Searches counter (so Frame.Sequence == Stats.Searches and the
// WAL restore arithmetic hold) and are reported in Stats.Coalesced; no
// intermediate frames are materialized — exactly what the per-point
// path's callers observed anyway, since only the last frame was ever
// returned. The one semantic difference is that the tail search is
// seeded by the window chosen before the batch rather than by the
// skipped intermediate searches; on streams where the search outcome is
// seed-independent (any stable periodicity) the emitted frame is
// bit-identical to the per-point path's last frame.
func (o *Operator) PushBatch(xs []float64) (Frame, bool) {
	if o.cfg.DisableBatchCoalescing {
		var last Frame
		var ok bool
		for _, x := range xs {
			if f, fired := o.Push(x); fired {
				if ok {
					last.Release() // superseded intermediate emission
				}
				last, ok = f, true
			}
		}
		return last, ok
	}

	// Pass 1: dry-run the schedule with tickSchedule to find the index
	// of the last point that will fire a refresh. This index is only a
	// PLACEMENT HINT for where the one real search runs; all counter
	// accounting below derives from the deadlines the real pass
	// actually hits, and a trailing flush covers the hint ever being
	// wrong, so a mirror divergence can only degrade coalescing — never
	// break Frame.Sequence == Stats.Searches or lose a refresh.
	paneCount, count, rawSince := o.paneCount, o.count, o.rawSinceRefresh
	lastFire := -1
	for i := range xs {
		var fire bool
		paneCount, count, rawSince, fire = o.tickSchedule(paneCount, count, rawSince)
		if fire {
			lastFire = i
		}
	}

	// Pass 2: accumulate, consuming deadlines as the per-point path
	// would. Deadlines before the hint are counted and folded into the
	// next real search; the hinted deadline (and, defensively, any the
	// mirror failed to predict after it) runs a real search.
	var out Frame
	var ok bool
	coalesced := 0
	flush := func() {
		// Fold the pending skipped deadlines in first so the emitted
		// frame's sequence lands where the per-point path's would.
		o.stats.Searches += coalesced
		o.stats.Coalesced += coalesced
		if f, fired := o.refresh(); fired {
			if ok {
				out.Release() // superseded earlier emission
			}
			out, ok = f, true
			coalesced = 0
		} else {
			// Unreachable (a due refresh guarantees >= 4 panes), but
			// keep the counters honest if it ever trips.
			o.stats.Searches -= coalesced
			o.stats.Coalesced -= coalesced
		}
	}
	for i, x := range xs {
		o.accumulate(x)
		if o.refreshDue() {
			o.rawSinceRefresh = 0
			if i < lastFire {
				coalesced++ // accounted when the tail search runs
				continue
			}
			flush()
		}
	}
	if coalesced > 0 && o.count >= 4 {
		// The mirror overpredicted lastFire and real deadlines were
		// consumed without their tail search ever running (impossible
		// while tickSchedule matches accumulate, by construction).
		// Flush them now: one late search instead of lost refreshes.
		coalesced--
		flush()
	}
	return out, ok
}

// Prefill loads historical points into the window without triggering any
// refreshes — a warm start for operators attached to a stream with
// existing history (and the untimed fill phase of throughput benchmarks).
// The next regular Push resumes the configured refresh cadence.
func (o *Operator) Prefill(xs []float64) {
	for _, x := range xs {
		o.accumulate(x)
	}
	o.rawSinceRefresh = 0
}

// Restore rebuilds the operator as if total raw points had been pushed
// since the beginning of the stream, of which tail holds the most
// recent len(tail) (tail may be shorter than the visualization window
// after data loss, never meaningfully longer than total). Like Prefill
// it emits no frames, but Restore additionally re-aligns preaggregation
// pane boundaries to the original stream offset and reconstructs the
// refresh phase and frame sequence, so after a crash the operator's
// next frames exactly match those of an operator that never went away.
// Candidate counters cannot be reconstructed and restart at zero, and
// Frame() reports no frame until the first post-restore refresh.
func (o *Operator) Restore(tail []float64, total int) {
	if total < len(tail) {
		total = len(tail)
	}
	o.paneSum, o.paneCount = 0, 0
	o.head, o.count = 0, 0
	o.rawSinceRefresh = 0
	o.lastWindow = 1
	o.frame.Release() // drop the cache's pooled buffer reference
	o.frame = Frame{}
	o.hasFrame = false
	o.panesAtSearch = 0
	o.searchFixpoint = false
	o.stats = Stats{}
	if o.inc != nil {
		o.inc.Reset()
	}

	// Pane boundaries in the original stream sit at multiples of the
	// ratio; start feeding at the first boundary at or after the tail's
	// stream offset so restored panes average the same point groups.
	start := total - len(tail)
	if rem := start % o.ratio; rem != 0 {
		skip := o.ratio - rem
		if skip > len(tail) {
			skip = len(tail)
		}
		tail = tail[skip:]
	}
	for _, x := range tail {
		o.paneSum += x
		o.paneCount++
		if o.paneCount == o.ratio {
			o.appendAgg(o.paneSum / float64(o.ratio))
			o.paneSum, o.paneCount = 0, 0
		}
	}
	o.stats.RawPoints = total
	o.stats.Panes = total / o.ratio

	// Push fires its first refresh at the first point where the refresh
	// interval has elapsed AND four aggregated points exist — raw index
	// max(refreshEveryRaw, 4*ratio) — then once per interval. Every such
	// fire succeeds (core.Search only fails below 4 points), each is one
	// search, and Frame.Sequence == stats.Searches, so the closed form
	// below restores both the sequence and the refresh phase exactly.
	first := o.refreshEveryRaw
	if m := 4 * o.ratio; m > first {
		first = m
	}
	if total >= first {
		frames := 1 + (total-first)/o.refreshEveryRaw
		o.stats.Searches = frames
		o.rawSinceRefresh = total - first - (frames-1)*o.refreshEveryRaw
	} else {
		o.rawSinceRefresh = total
	}
}

// appendAgg adds one aggregated point to the ring, evicting the oldest
// when the visualization window is full (data "transits" the window).
func (o *Operator) appendAgg(v float64) {
	o.stats.Panes++
	if o.inc != nil {
		o.inc.Push(v)
	}
	if o.count < o.capacity {
		o.ring[(o.head+o.count)%o.capacity] = v
		o.count++
		return
	}
	o.ring[o.head] = v
	o.head = (o.head + 1) % o.capacity
}

// window copies the ring into chronological order in the reusable scratch
// buffer: at most two straight copies (oldest..end, start..newest), never
// a per-element modulo.
func (o *Operator) window() []float64 {
	w := o.scratch[:o.count]
	tail := o.capacity - o.head
	if o.count <= tail {
		copy(w, o.ring[o.head:o.head+o.count])
	} else {
		n := copy(w, o.ring[o.head:])
		copy(w[n:], o.ring[:o.count-n])
	}
	return w
}

// refresh re-runs the parameter search over the current window
// (UpdateWindow in Algorithm 3) and renders a new frame.
func (o *Operator) refresh() (Frame, bool) {
	// Search-skip memoization: when no aggregated pane has completed
	// since the last search, the window contents are identical, and when
	// that search was additionally a fixed point (it returned its own
	// seed), re-running it would be the same deterministic computation on
	// the same input with the same options — so skip it and re-emit the
	// cached result with the next sequence number. The emitted values
	// slice is the previous emission's (already escaped and immutable);
	// this path allocates nothing.
	if o.hasFrame && o.searchFixpoint && o.stats.Panes == o.panesAtSearch && !o.disableMemo {
		o.stats.Searches++
		o.stats.Skipped++
		o.frame.Sequence = o.stats.Searches
		o.frame.SeedReused = o.lastWindow > 1
		out := o.frame
		if out.buf != nil {
			out.buf.retain() // the caller's reference to the shared buffer
		}
		return out, true
	}

	data := o.window()
	o.stats.Searches++

	// UPDATEACF + CHECKLASTWINDOW + FINDWINDOW, fused: core.Search
	// verifies the seed first when SeedWindow is set, which is exactly
	// CheckLastWindow's "known feasible window" fast path.
	opts := core.SearchOptions{
		MaxWindow:  o.cfg.MaxWindow,
		SeedWindow: o.lastWindow,
	}
	if o.cfg.Strategy == core.StrategyASAP {
		maxLag := core.MaxLag(len(data), opts.MaxWindow)
		if o.inc != nil {
			// Incremental path: O(maxLag) maintenance already happened
			// at pane arrival; the query is O(n) for the drift sentinel
			// plus O(maxLag) for the correlations.
			if r, err := o.inc.Result(maxLag); err == nil {
				opts.ACF = r
			}
		} else {
			if o.analyzer == nil {
				o.analyzer = acf.NewAnalyzer()
			}
			if r, err := o.analyzer.Compute(data, maxLag); err == nil {
				opts.ACF = r
			}
		}
	}
	if err := core.SearchInto(&o.searchRes, o.cfg.Strategy, data, opts); err != nil {
		// A window this small cannot be searched; keep the last frame.
		o.stats.Searches--
		return Frame{}, false
	}
	res := &o.searchRes
	o.stats.Candidates += res.Candidates

	// Smooth into the reusable buffer, then copy once into a pooled
	// frame buffer. When every downstream holder Releases its frames the
	// buffer comes straight back from the pool and the steady-state
	// refresh path allocates nothing at all.
	o.smooth = smaInto(o.smooth, data, res.Window)
	buf := newFrameBuf(len(o.smooth))
	copy(buf.vals, o.smooth)

	seedReused := o.lastWindow > 1 && res.Window == o.lastWindow
	o.searchFixpoint = res.Window == o.lastWindow
	o.lastWindow = res.Window
	o.panesAtSearch = o.stats.Panes
	o.frame.Release() // the cache's reference to the superseded buffer
	o.frame = Frame{
		Smoothed:   buf.vals,
		Window:     res.Window,
		Roughness:  res.Roughness,
		Kurtosis:   res.Kurtosis,
		SeedReused: seedReused,
		Sequence:   o.stats.Searches,
		buf:        buf,
		gen:        buf.gen.Load(),
	}
	o.hasFrame = true
	out := o.frame
	out.buf.retain()
	return out, true
}

// smaInto materializes SMA(data, w) with slide 1 into dst, growing it only
// when the output is longer than its capacity.
func smaInto(dst, data []float64, w int) []float64 {
	n := len(data) - w + 1
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	inv := 1 / float64(w)
	var sum float64
	for i := 0; i < w; i++ {
		sum += data[i]
	}
	dst[0] = sum * inv
	for i := 1; i < n; i++ {
		sum += data[i+w-1] - data[i-1]
		dst[i] = sum * inv
	}
	return dst
}

// Frame returns the most recent frame; the second result is false before
// the first refresh. The returned frame carries its own reference to the
// pooled values buffer — callers that want the buffer recycled call
// Release when done, and callers that keep the frame forever simply
// don't.
func (o *Operator) Frame() (Frame, bool) {
	out := o.frame
	if o.hasFrame && out.buf != nil {
		out.buf.retain()
	}
	return out, o.hasFrame
}

// Stats returns a copy of the operator's work counters.
func (o *Operator) Stats() Stats { return o.stats }

// WindowFill returns how many aggregated points are currently buffered and
// the buffer capacity, for observability.
func (o *Operator) WindowFill() (have, capacity int) { return o.count, o.capacity }
