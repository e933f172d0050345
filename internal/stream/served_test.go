package stream

import (
	"runtime"
	"testing"

	"github.com/asap-go/asap/internal/datasets"
)

// servedCatalog generates each catalog dataset once, long enough to
// fill the served window with room to stream on.
func servedCatalog() [][]float64 {
	cat := datasets.Catalog()
	out := make([][]float64, len(cat))
	for i, spec := range cat {
		out[i] = spec.GenerateN(1<<15, int64(i+1)).Values
	}
	return out
}

// servedFeed walks operator i's input: catalog dataset i%11, each
// operator of one dataset starting at its own offset, wrapping at the
// end.
type servedFeed struct {
	data [][]float64
	off  []int
}

func newServedFeed(data [][]float64, ops int) *servedFeed {
	f := &servedFeed{data: data, off: make([]int, ops)}
	for i := range f.off {
		f.off[i] = (i / len(data)) * 499
	}
	return f
}

// next returns operator i's next n points.
func (f *servedFeed) next(i, n int) []float64 {
	xs := f.data[i%len(f.data)]
	if f.off[i]+n > len(xs) {
		f.off[i] = 0
	}
	out := xs[f.off[i] : f.off[i]+n]
	f.off[i] += n
	return out
}

// warmServed builds ops operators at the served shape (the server's
// default 14400-point window at 800 px), fills each window from the
// feed, and runs a few searches on each so every buffer has its
// steady-state size. Every frame is Released, as the hub does.
func warmServed(tb testing.TB, feed *servedFeed, ops int) []*Operator {
	tb.Helper()
	out := make([]*Operator, ops)
	for i := range out {
		op, err := New(Config{WindowPoints: servedWindowPoints, Resolution: servedResolution})
		if err != nil {
			tb.Fatal(err)
		}
		op.Prefill(feed.next(i, servedWindowPoints))
		for k := 0; k < 3; k++ {
			f, ok := op.PushBatch(feed.next(i, op.Ratio()))
			if !ok {
				tb.Fatal("a pane of points did not refresh")
			}
			f.Release()
		}
		out[i] = op
	}
	return out
}

// TestWarmSeriesHeapAlloc pins what one warm series costs in live heap
// at the served shape: the operator's ring, window scratch, smoothed
// buffer, cached frame and ACF scratch. The FFT plans are shared
// process-wide and the transform is sized to the lags the search reads,
// so the ACF engine no longer dominates.
func TestWarmSeriesHeapAlloc(t *testing.T) {
	const series = 256
	const bound = 64 << 10
	feed := newServedFeed(servedCatalog(), series)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // a second cycle empties sync.Pool's victim cache
	runtime.ReadMemStats(&before)
	ops := warmServed(t, feed, series)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ops)
	runtime.KeepAlive(feed)

	perSeries := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / series
	t.Logf("heap per warm series: %.1f KB", float64(perSeries)/1024)
	if perSeries <= 0 {
		t.Fatalf("heap delta %d B per series is not positive; the reading is broken", perSeries)
	}
	if perSeries > bound {
		t.Errorf("heap per warm series %d B exceeds %d B", perSeries, bound)
	}
}

// BenchmarkServedSearch is one refresh search at the served shape, on
// catalog data, visiting 264 operators (24 per dataset) round robin as
// a server visits its series, so each search starts with its
// operator's state out of cache. One op pushes one pane, which fires
// exactly one search.
func BenchmarkServedSearch(b *testing.B) {
	const series = 264
	feed := newServedFeed(servedCatalog(), series)
	ops := warmServed(b, feed, series)
	ratio := ops[0].Ratio()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % series
		f, ok := ops[i].PushBatch(feed.next(i, ratio))
		if !ok {
			b.Fatal("a pane of points did not refresh")
		}
		f.Release()
	}
}
