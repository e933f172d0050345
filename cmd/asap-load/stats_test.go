package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/asap-go/asap/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{5, 1, 3}, 50, 3},
		{[]float64{5, 1, 3, 4}, 50, 3}, // rank ceil(2) = 2: the lower middle, never an average
		{[]float64{7}, 99, 7},
		{[]float64{1, 2, math.Inf(1)}, 99, math.Inf(1)}, // a failed request counts as +Inf
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %g, want NaN", got)
	}
}

const expoBefore = `# HELP asap_refresh_seconds Refresh time.
# TYPE asap_refresh_seconds histogram
asap_refresh_seconds_bucket{route="/ingest",le="0.001"} 1
asap_refresh_seconds_bucket{route="/ingest",le="0.01"} 2
asap_refresh_seconds_bucket{route="/ingest",le="+Inf"} 2
asap_refresh_seconds_sum{route="/ingest"} 0.004
asap_refresh_seconds_count{route="/ingest"} 2
asap_refresh_seconds_bucket{route="/frame",le="0.001"} 5
asap_refresh_seconds_bucket{route="/frame",le="0.01"} 5
asap_refresh_seconds_bucket{route="/frame",le="+Inf"} 5
asap_refresh_seconds_sum{route="/frame"} 0.002
asap_refresh_seconds_count{route="/frame"} 5
`

const expoAfter = `# TYPE asap_refresh_seconds histogram
asap_refresh_seconds_bucket{route="/ingest",le="0.001"} 2
asap_refresh_seconds_bucket{route="/ingest",le="0.01"} 9
asap_refresh_seconds_bucket{route="/ingest",le="+Inf"} 10
asap_refresh_seconds_sum{route="/ingest"} 0.064
asap_refresh_seconds_count{route="/ingest"} 10
asap_refresh_seconds_bucket{route="/frame",le="0.001"} 9
asap_refresh_seconds_bucket{route="/frame",le="0.01"} 9
asap_refresh_seconds_bucket{route="/frame",le="+Inf"} 9
asap_refresh_seconds_sum{route="/frame"} 0.003
asap_refresh_seconds_count{route="/frame"} 9
`

func TestHistogramDelta(t *testing.T) {
	parse := func(s string) map[string]*obs.ExpoFamily {
		fams, err := obs.ParseExposition(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return fams
	}
	route := map[string]string{"route": "/ingest"}
	b, ok := histFrom(parse(expoBefore), "asap_refresh_seconds", route)
	if !ok {
		t.Fatal("before: histogram not found")
	}
	a, ok := histFrom(parse(expoAfter), "asap_refresh_seconds", route)
	if !ok {
		t.Fatal("after: histogram not found")
	}
	d := histDelta(b, a)
	// Between the scrapes: 1 observation <= 1ms, 6 in (1ms, 10ms], 1 above.
	if d.count != 8 || math.Abs(d.sum-0.06) > 1e-12 {
		t.Fatalf("delta count %g sum %g, want 8 and 0.06", d.count, d.sum)
	}
	if got := d.mean(); math.Abs(got-0.0075) > 1e-12 {
		t.Errorf("mean %g, want 0.0075", got)
	}
	// p50: rank 4 lies 3 of 6 into (1ms, 10ms].
	if got := d.quantile(0.5); math.Abs(got-0.0055) > 1e-12 {
		t.Errorf("p50 %g, want 0.0055", got)
	}
	// p99: rank 7.92 lies in +Inf, which reports the highest finite bound.
	if got := d.quantile(0.99); got != 0.01 {
		t.Errorf("p99 %g, want 0.01", got)
	}
	// p10: rank 0.8 lies in the first bucket, interpolated up from 0.
	if got := d.quantile(0.1); math.Abs(got-0.0008) > 1e-12 {
		t.Errorf("p10 %g, want 0.0008", got)
	}
	if _, ok := histFrom(parse(expoAfter), "asap_missing_seconds", nil); ok {
		t.Error("a missing family reported found")
	}
	if got := (hist{}).mean(); !math.IsNaN(got) {
		t.Errorf("mean of an empty delta = %g, want NaN", got)
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses; utime and stime
	// are fields 14 and 15, in clock ticks.
	stat := "4242 (asap (srv) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 12345 1 2 3\n"
	got, err := parseProcStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("cpu = %g s, want 2 (200 ticks)", got)
	}
	for _, bad := range []string{"no parens at all", "1 (x) S 1 2"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseProcStatCPU(%q) succeeded", bad)
		}
	}
}

func TestFreshnessCoalescedAndSuperseded(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	log := []ingestReq{
		{due: at(0)},                   // warm-up: not counted
		{due: at(10), inWindow: true},  // produces sequence 2
		{due: at(20), inWindow: true},  // 3
		{due: at(30), inWindow: true},  // 4
		{due: at(40), inWindow: true},  // 5
		{due: at(50), inWindow: true},  // 6: never delivered
		{due: at(60), inWindow: true},  // 7: delivered too late
		{due: at(100), inWindow: true}, // 8: never delivered either
	}
	ref := []refFrame{{frameSig{seq: 1}, 0}, {frameSig{seq: 2}, 1}, {frameSig{seq: 3}, 2},
		{frameSig{seq: 4}, 3}, {frameSig{seq: 5}, 4}, {frameSig{seq: 6}, 5}, {frameSig{seq: 7}, 6}, {frameSig{seq: 8}, 7}}
	// The subscriber saw 1, then 4 (2 and 3 coalesced into it), then 5,
	// then 7 after the limit (6 superseded by it, also late).
	got := []seen{{frameSig{seq: 1}, at(1)}, {frameSig{seq: 4}, at(33)}, {frameSig{seq: 5}, at(41)},
		{frameSig{seq: 7}, at(200)}}
	ms, missing := freshness(ref, got, log, 100*time.Millisecond)
	want := []float64{23, 13, 3, 1} // 2, 3 and 4 take frame 4's receipt; 5 its own
	if len(ms) != len(want) {
		t.Fatalf("freshness %v, want %v", ms, want)
	}
	for i := range want {
		if math.Abs(ms[i]-want[i]) > 1e-9 {
			t.Errorf("freshness[%d] = %g ms, want %g", i, ms[i], want[i])
		}
	}
	if missing != 3 {
		t.Errorf("missing = %d, want 3 (6 and 7 past the limit, 8 never)", missing)
	}
}

func TestRateSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	acks := []ack{{at(500), 100}, {at(900), 100}, {at(1200), 50}, {at(1700), 50}, {at(2500), 999}}
	got := rateSlices(acks, t0, at(2600), time.Second)
	// Two whole slices, each timed from its first to its last ack; the
	// ack in the partial third slice is dropped.
	if len(got) != 2 || math.Abs(got[0]-250) > 1e-9 || math.Abs(got[1]-100) > 1e-9 {
		t.Errorf("rates %v, want [250 100]", got)
	}
	if got := rateSlices(acks[:1], t0, at(2600), time.Second); len(got) != 0 {
		t.Errorf("a slice with one ack has no rate, got %v", got)
	}
}

func TestSelfTimesBySubtraction(t *testing.T) {
	rp := replayResult{points: 1000, httpS: 0.005, hubS: 0.003, streamS: 0.002, walS: 0.0005}
	parseUS, hubUS := rp.selfTimes()
	if math.Abs(parseUS-2) > 1e-9 || math.Abs(hubUS-0.5) > 1e-9 {
		t.Errorf("self times parse %g hub %g us/pt, want 2 and 0.5", parseUS, hubUS)
	}
	if p, h := (&replayResult{}).selfTimes(); !math.IsNaN(p) || !math.IsNaN(h) {
		t.Errorf("self times with no points = %g, %g, want NaN", p, h)
	}
}

func TestParseFrameMatchesEncodedValues(t *testing.T) {
	vals := []float64{1, -0.5, 1e-7, 123.456789012345, 6.02e23, 0}
	body, err := json.Marshal(map[string]interface{}{
		"series": "s001", "values": vals, "window": 12, "roughness": 0.1,
		"kurtosis": 3.2, "seed_reused": true, "sequence": 907,
	})
	if err != nil {
		t.Fatal(err)
	}
	sig, ok, err := parseFrame(body)
	if err != nil || !ok {
		t.Fatalf("parseFrame: ok %v err %v", ok, err)
	}
	if sig.seq != 907 || sig.window != 12 || sig.hash != hashValues(vals) {
		t.Errorf("parsed %+v, want sequence 907 window 12 hash %x", sig, hashValues(vals))
	}
	vals[3] = math.Nextafter(vals[3], 0)
	if sig.hash == hashValues(vals) {
		t.Error("a one-ulp change left the hash equal")
	}
	if _, ok, err := parseFrame([]byte("null\n")); ok || err != nil {
		t.Errorf("null frame: ok %v err %v", ok, err)
	}
}

func TestServerDefaults(t *testing.T) {
	usage := `Usage of asap-server:
  -fsync-every duration
    	batch WAL fsyncs on this interval (0 = fsync every append, group-committed) (default 100ms)
  -refresh int
    	refresh interval in raw points (0 = per aggregated point)
  -resolution int
    	target display width in pixels (default 800)
  -window int
    	visualization window in raw points (default 14400)
`
	cfg, fsync, err := serverDefaults(usage)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WindowPoints != 14400 || cfg.Resolution != 800 || cfg.RefreshEvery != 0 || fsync != 100*time.Millisecond {
		t.Errorf("defaults %+v fsync %s", cfg, fsync)
	}
	if _, _, err := serverDefaults("Usage of something else:\n"); err == nil {
		t.Error("usage without -window accepted")
	}
}

func TestParseMemStats(t *testing.T) {
	prof := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 100\n# TotalAlloc = 123456\n# Mallocs = 789\n# Frees = 700\n# NumGC = 12\n"
	m, err := parseMemStats([]byte(prof))
	if err != nil {
		t.Fatal(err)
	}
	if m.totalAlloc != 123456 || m.mallocs != 789 || m.numGC != 12 {
		t.Errorf("parsed %+v", m)
	}
	if _, err := parseMemStats([]byte("# Mallocs = 1\n")); err == nil {
		t.Error("a profile missing MemStats fields parsed")
	}
}
