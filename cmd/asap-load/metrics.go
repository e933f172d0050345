package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metric is one printed measurement. n is the sample count behind a
// percentile (or median), 0 for everything else.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// pct is the nearest-rank p-th percentile of samples, with its count.
func pct(name string, samples []float64, p float64, unit string) metric {
	return metric{name: name, value: percentile(samples, p), unit: unit, n: len(samples)}
}

// ratio is num/den, NaN when den is 0 so an absent base never reads as
// a measured zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// rateSliceCount is how many slices the window is cut into for
// ingest_pts_per_s, the median of their rates: 1 s slices at the
// benchmark's 15 s window.
const rateSliceCount = 15

// endToEnd is what a client of the system sees, from the untraced run.
func (r *run) endToEnd() []metric {
	m := []metric{
		pct("setup_s", r.setupS, 50, "s"),
		pct("ingest_pts_per_s", rateSlices(r.acks, r.t0, r.t1, r.sh.window/rateSliceCount), 50, "pts/s"),
		pct("ingest_p50_ms", r.ingestMS, 50, "ms"),
		pct("ingest_p99_ms", r.ingestMS, 99, "ms"),
	}
	if r.w.readRate > 0 {
		m = append(m, pct("read_p50_ms", r.readMS, 50, "ms"), pct("read_p99_ms", r.readMS, 99, "ms"))
	}
	if r.w.subscribe {
		m = append(m, pct("fresh_p50_ms", r.freshMS, 50, "ms"), pct("fresh_p99_ms", r.freshMS, 99, "ms"))
	}
	return append(m,
		metric{name: "cpu_us_per_pt", value: ratio(r.cpuServers*1e6, float64(r.ptsAcked)), unit: "us/pt"},
		metric{name: "rss_peak_mb", value: r.rssMB, unit: "MB"},
		metric{name: "error_ratio", value: ratio(float64(r.failed), float64(r.attempted)), unit: "ratio"},
	)
}

// invalid lists why the run cannot be trusted as a measurement: an
// open-loop generator that fell behind its schedule, or a p99 resting
// on too few samples. A closed loop has no schedule to fall behind; its
// lateness is only the generator's own time between requests.
func (r *run) invalid(ms []metric) []string {
	var why []string
	if late := percentile(r.lateMS, 99); !r.w.closed && late > r.sh.maxLateMS {
		why = append(why, fmt.Sprintf("loadgen.late_p99_ms %.3f > %g", late, r.sh.maxLateMS))
	}
	for _, m := range ms {
		if strings.HasSuffix(m.name, "_p99_ms") && m.n < r.sh.minP99Samples {
			why = append(why, fmt.Sprintf("%s rests on %d samples < %d", m.name, m.n, r.sh.minP99Samples))
		}
	}
	return why
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// printMetrics writes one "<workload> <metric> <value> <unit>" line per
// metric, and "<metric>_n" after every percentile.
func printMetrics(w io.Writer, workload string, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, m.name, formatValue(m.value), m.unit)
		if m.n > 0 {
			fmt.Fprintf(w, "%s %s_n %d count\n", workload, m.name, m.n)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the command reads: the
// default window and which metrics the final JSON line carries.
type benchmarkSpec struct {
	RunSeconds int        `json:"run_seconds"`
	Workloads  []specName `json:"workloads"`
	EndToEnd   []specName `json:"end_to_end"`
	PerLayer   []specName `json:"per_layer"`
}

type specName struct {
	Name string `json:"name"`
}

func loadSpec(root string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// outItem is one metric in the -o file; a non-finite value is null.
type outItem struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n,omitempty"`
}

func outItems(ms []metric) map[string]outItem {
	out := make(map[string]outItem, len(ms))
	for _, m := range ms {
		it := outItem{Unit: m.unit, N: m.n}
		if v := m.value; !math.IsNaN(v) && !math.IsInf(v, 0) {
			it.Value = &v
		}
		out[m.name] = it
	}
	return out
}

// summary is the final stdout line: the keys the benchmark contract
// fixes.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// addMetrics copies the metrics BENCHMARK.json lists into the summary
// under prefix+name; each must have been measured, as a finite number.
func (s *summary) addMetrics(prefix string, ms []metric, want []specName) error {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s listed in BENCHMARK.json was not measured", w.Name)
		}
		s.Metrics[prefix+m.name] = summaryItem{Value: m.value, Unit: m.unit}
	}
	return nil
}
