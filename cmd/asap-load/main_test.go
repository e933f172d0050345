package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = "../.."

func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	spec, err := loadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i].Name; got != w.name {
			t.Errorf("BENCHMARK.json workload %d = %q, harness has %q", i, got, w.name)
		}
	}
	if spec.RunSeconds <= 0 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

// smokeShape shrinks every workload to 8 series, a 360-point warm-up
// and a 1 s window; the validity guards are off because no p99 has
// 1000 samples at that size.
func smokeShape() shape {
	return shape{
		window: time.Second, seriesCap: 8, warmup: 360, warmBatch: 90, warmSeriesReq: 8,
		setups: 1, prepRequests: 20, replayRequests: 40, maxLateMS: math.Inf(1),
	}
}

// TestSmoke runs all four workloads at smokeShape against the real
// server binary: every end-to-end metric is printed, nothing fails,
// frames are verified, the traced ledger carries every per-layer
// metric, and a corrupted reference makes the run fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs asap-server")
	}
	spec, err := loadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	ps := &procs{}
	t.Cleanup(ps.cleanup)
	e, err := newEnv(repoRoot, t.TempDir(), ps)
	if err != nil {
		t.Fatal(err)
	}
	untraced := map[string]*run{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runWorkload(e, w, options{seed: 7, shape: smokeShape()})
			if err != nil {
				t.Fatal(err)
			}
			untraced[w.name] = r
			want := map[string]bool{"error_ratio": true}
			for _, m := range spec.EndToEnd {
				want[m.Name] = true
			}
			if w.readRate > 0 {
				want["read_p50_ms"], want["read_p99_ms"] = true, true
			}
			if w.subscribe {
				want["fresh_p50_ms"], want["fresh_p99_ms"] = true, true
			}
			checkMetrics(t, r.endToEnd(), want)
			if r.failed != 0 {
				t.Errorf("%d failed operations: %s", r.failed, strings.Join(r.failures, "; "))
			}
			if r.framesVerified == 0 {
				t.Error("no frame verified")
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		const name = "durable-replica"
		w, _ := workloadByName(name)
		base := untraced[name]
		if base == nil {
			t.Skip("untraced run failed")
		}
		r, err := runWorkload(e, w, options{seed: 7, shape: smokeShape(), traced: true, spans: newSpanRecorder()})
		if err != nil {
			t.Fatal(err)
		}
		layers, err := r.perLayer(base)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{"wal.fsyncs_per_req": true, "replica.polls_per_s": true, "broadcast.delivered_frac": true}
		for _, m := range spec.PerLayer {
			// A 1 s window retains too few traces to promise every span.
			if !strings.HasPrefix(m.Name, "trace.breakdown.") {
				want[m.Name] = true
			}
		}
		checkMetrics(t, layers, want)
	})
	t.Run("flipped reference fails", func(t *testing.T) {
		w, _ := workloadByName("dashboard")
		r, err := runWorkload(e, w, options{seed: 7, shape: smokeShape(), flipRef: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.failed == 0 {
			t.Error("a reference fed one flipped value still matched every frame")
		}
	})
}

// checkMetrics asserts every wanted metric was measured as a number.
func checkMetrics(t *testing.T, ms []metric, want map[string]bool) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range ms {
		got[m.name] = m
	}
	for name := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", name)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("metric %s = %g", name, m.value)
		}
	}
}
