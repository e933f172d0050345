// Command asap-load is the repository's end-to-end benchmark. It
// builds the real cmd/asap-server, runs it on loopback as a child
// process (plus a follower where the workload needs one) with its
// shipped flag defaults, drives seeded traffic at it from this one
// process, checks every frame it sees against a reference
// asap.Streamer, and prints what a client sees. A traced run adds a
// per-layer ledger: each layer measured from outside, through its
// HTTP surface, its /metrics, /stats, /healthz and pprof output, and
// timed calls into its public Go functions.
//
// # Running it
//
// From the repository root:
//
//	bash cmd/asap-load/run.sh                          # all four workloads, seed 1
//	bash cmd/asap-load/run.sh -workload dashboard -seed 7
//	bash cmd/asap-load/run.sh -trace 1 -o out.json     # plus the traced run and the ledger
//
// run.sh builds the harness with the local toolchain, keeping the Go
// build cache, binaries, server data directories and outputs under
// .bench_build/. Flags:
//
//	-workload NAME  one workload (default: all four, in order)
//	-seed N         seed of every generated input (default 1)
//	-trace 0|1      1 also runs each workload traced, prints the ledger
//	                and writes .bench_build/asap-load-spans.json
//	-o FILE         also write every metric, with sample counts, as JSON
//
// The measured window is run_seconds in BENCHMARK.json and nothing
// else: -seconds is accepted only with that value, so two runs never
// differ in length.
//
// Output starts with an environment header (nproc, CPU model, Go
// version, commit): never compare runs whose headers differ. Then one
// line per metric, "<workload> <metric> <value> <unit>", and
// "<metric>_n <count> count" after every percentile. The last line is
// one JSON object: correct, attempted, failed, and the metrics
// BENCHMARK.json lists — its end_to_end list untraced, its per_layer
// list with -trace 1. The exit code is 0 on success, 1 when an
// operation or a check failed (each child's log is then saved as
// <name>.stderr next to -o, or in .bench_build/), and 2 when the run is
// invalid as a measurement: an open-loop generator's lateness p99 was
// above 1 ms, or a p99 rests on fewer than 1000 samples.
//
// The benchmark is a Go module of its own (go.mod in this directory,
// pointing back at the repository through a replace directive), so
// that everything it needs to build, its build file included, lives
// in its own directory. The root module's go test ./... therefore does
// not reach it. Run its tests from this directory: go test ./... runs
// the unit tests and a smoke test that runs all four workloads at a
// 1 s window on 8 series; -short skips the smoke test.
//
// # Workloads
//
// Series i replays datasets.Catalog()[i % 11] generated from seed+i,
// sent as strconv.FormatFloat(v, 'g', -1, 64) so the server parses the
// exact float the reference receives. Every series first gets one full
// window (14400 points, in 3600-point batches): untimed, but counted
// in setup_s. The stream configuration is the server's defaults,
// window 14400 and resolution 800, read from its -h output: 18 points
// per pane and one refresh per pane.
//
//   - ingest-heavy: closed-loop bulk ingest into 256 memory-only
//     series, 32 series × 32 points per request. It is the throughput
//     ceiling of parse, hub and refresh, bypassing WAL, broadcast, plot
//     and replica; 256 Streamers overflow the CPU caches.
//   - dashboard: open-loop ingest at 200 requests/s of 16 series × 4
//     points into 64 memory-only series, reads at 100/s (3 /frame to 1
//     /plot.svg) on the same connection, and one /stream subscriber to
//     all 64 series. It is the push and read path: most pushes only
//     buffer, every frame is encoded and delivered, and reads contend
//     for the shard locks writes hold.
//   - durable-replica: open-loop ingest at 100 requests/s of 16 × 4
//     points with strict group-commit fsync (-fsync-every 0),
//     replicated to a follower whose /stream subscriber measures
//     freshness across fsync, long-poll, segment fetch, apply and SSE.
//   - restart: a first primary takes the warm-up and 500 ingest-heavy
//     requests and stops (untimed, uncounted). Set-up is the restart
//     over that log — WAL recovery and Streamer.Restore — then one pane
//     per series; then ingest-heavy with batched fsync. It is the only
//     workload that reads the WAL, and against ingest-heavy it isolates
//     the cost of a WAL append.
//
// # Generator
//
// One process, GOMAXPROCS at most nproc, at most two connections to
// the system: one request connection shared by ingest and reads (so a
// series' requests arrive in order) and one /stream connection where
// the workload subscribes. Open-loop requests have fixed due times and
// latency runs from the due time, so a request queued behind a slow
// one carries that wait; closed-loop latency runs from the send.
// loadgen.late_p99_ms reports how late the generator itself sent.
//
// Set-up runs three times per run and setup_s is their median: spawn,
// /readyz 200 on every process, the warm-up acknowledged, and a frame
// on every series on every process (the follower caught up).
//
// # Metrics
//
// End to end, from the untraced run: setup_s; ingest_pts_per_s (points
// acknowledged with 200 per second: the median over the window's 15
// slices, each timed from its first to its last acknowledgement, so a
// burst of interference from elsewhere on the machine shorter than
// half the window does not move it); ingest_p50_ms and
// ingest_p99_ms; read_p50_ms and read_p99_ms (dashboard);
// fresh_p50_ms and fresh_p99_ms (subscribed workloads: for every frame
// the reference emits in the window, the receipt time of the first
// stream frame of that series with an equal or higher sequence, minus
// the due time of the request whose batch produced it, so a coalesced
// frame counts with the frame that superseded it); cpu_us_per_pt
// (utime+stime of every server process over the window, per point);
// rss_peak_mb (summed VmHWM); error_ratio (failed over attempted
// operations: ingest requests, reads and frames checked). Percentiles
// are nearest rank; a failed request counts as +Inf.
//
// BENCHMARK.json gates the end-to-end metrics that every workload has
// and that repeat within their bound: setup_s, ingest_pts_per_s,
// ingest_p50_ms, cpu_us_per_pt and rss_peak_mb. read_* and fresh_*
// exist on some workloads only. The p99s are not steady enough to gate
// on a shared 2-core machine: over ten runs their interquartile range
// reached 0.42 of the median (ingest_p99_ms) and 1.5 (fresh_p99_ms),
// above the largest bound the benchmark may set. All of them are
// printed and written by -o, with their sample counts, but are not in
// the JSON line. Every timing here follows the load other tenants put
// on the machine, which drifts over minutes: judge a change only
// against runs interleaved with its parent's.
//
// Per layer, from the traced run (names follow the repository's
// packages): http (per-route server means from the duration histogram
// deltas, busy fraction, client-minus-server gap, non-2xx), parse and
// hub (self times from the replay), stream (refresh histogram, searches
// run, coalesced fraction, candidates per search, frames observed,
// replayed µs per search), wal (append mean and p99, fsyncs per
// request, records per fsync, fsync mean, bytes per point, recovery
// time and rate, replayed µs per record), broadcast (delivery p50/p99,
// delivered fraction, evictions, stream bytes per frame), plot
// (replayed µs per SVG), replica (polls/s, records per poll, bytes
// fetched and follower CPU per point, retries, resyncs, poll errors),
// runtime (allocations, bytes and GCs from pprof's MemStats, CPU
// utilisation), trace (server spans per request and the mean of each
// pipeline span in the server's retained traces) and loadgen
// (lateness, generator CPU, frames and reads verified, and the
// difference in ingest_p50_ms between the traced and untraced runs).
// Histogram p99s interpolate inside the bucket, as Prometheus does.
//
// The layer replay is single-threaded and in-process, after the system
// has stopped: the warm-up untimed, then the first 1000 measured
// requests timed. Each batch goes through independent copies of every
// layer back to back — asap.Streamer.PushBatch, wal.Log.Append (same
// fsync mode and shard count as the server's log, fresh directory) and
// Hub.PushBatch on the hub of one in-process server.New per series,
// then the handler of a second one on the request body — so calls made
// microseconds apart are compared. The servers open their WALs
// themselves, from the same server.Config. Then GET /plot.svg, which
// renders with plot.SVGSeries, goes through the handler for every
// series' final frame, and the log is reopened. Self times come by
// subtraction: parse = handler − hub, hub = hub − Streamer − WAL; one
// near zero can read slightly negative.
//
// # The span file
//
// -trace 1 writes the Chrome trace-event format: open it in
// ui.perfetto.dev or chrome://tracing. Each workload is a process with
// four rows: phases (phase.spawn, phase.warmup, phase.measure,
// phase.verify, phase.replay), the request connection (client.ingest,
// client.frame, client.plot), the stream connection (client.sse_frame)
// and the layer replay (replay.stream.push, replay.wal.append,
// replay.hub.push, replay.http.ingest, replay.wal.open,
// replay.plot.svg). ts and dur are microseconds; args carry each
// span's id, its parent phase's id and its attributes. No traceparent
// is sent, so the server samples as shipped.
//
// # Correctness
//
// The reference is one asap.Streamer per verified series — all series
// on dashboard and durable-replica, a seeded one in eight on
// ingest-heavy and restart — fed, after the window, the acknowledged
// batches in acknowledged order. A run fails when a stream frame or a
// /frame read differs from the reference frame of the same sequence in
// window or value bits (values are hashed on receipt), when a plot is
// not 200 image/svg+xml, when /stats?series= raw_points differs from
// the points sent on any process, or when a frame is not delivered
// within 5 s. On restart the reference restarts where the server did,
// with Streamer.Restore over exactly the acknowledged points, so the
// first frames after each restart check that recovery returned those
// points. It cannot carry over the search seed the server's Restore
// also drops: a never-restarted Streamer can settle on a different
// window, so frames after a restart are not bit-identical to an
// uninterrupted stream.
//
// # Comparing two commits
//
// Run the parent and the change alternately, at least ten pairs. Claim
// a gain only when the change wins at least nine pairs in ten, ties
// counting for neither, and the medians differ by more than the
// parent's interquartile range. Treat a metric as
// regressed when the change's median is worse than the parent's by
// more than its bound in BENCHMARK.json. baseline.json holds the
// medians and quartiles of the recorded same-commit runs and the
// environment header of the machine they ran on.
package main
