package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/asap-go/asap"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: a run that failed an operation or a check exits 1; one
// whose measurement cannot be trusted (late generator, thin p99) exits 2.
const (
	exitFailed  = 1
	exitInvalid = 2
)

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("asap-load", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "run only this workload (default: all four, in order)")
		seed    = fl.Int64("seed", 1, "seed for every generated input")
		seconds = fl.Int("seconds", 0, "if set, must equal run_seconds in BENCHMARK.json, which fixes the measured window")
		traced  = fl.Int("trace", 0, "1 also runs each workload traced and prints the per-layer ledger")
		out     = fl.String("o", "", "also write every metric as JSON to this file")
	)
	if err := fl.Parse(args); err != nil {
		return exitFailed
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "asap-load: -trace takes 0 or 1, not %d\n", *traced)
		return exitFailed
	}
	// The benchmark runs from the repository root: it reads
	// BENCHMARK.json and builds cmd/asap-server from there.
	const root = "."
	spec, err := loadSpec(root)
	if err != nil {
		fmt.Fprintf(stderr, "asap-load: %v\n", err)
		return exitFailed
	}
	if *seconds != 0 && *seconds != spec.RunSeconds {
		fmt.Fprintf(stderr, "asap-load: -seconds %d: the window is fixed at BENCHMARK.json run_seconds (%d)\n", *seconds, spec.RunSeconds)
		return exitFailed
	}
	window := time.Duration(spec.RunSeconds) * time.Second
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "asap-load: unknown workload %q\n", *name)
			return exitFailed
		}
		selected = []workload{w}
	}
	buildDir := filepath.Join(root, ".bench_build")
	spansPath := filepath.Join(buildDir, "asap-load-spans.json")
	logDir := buildDir
	if *out != "" {
		logDir = filepath.Dir(*out)
	}

	ps := &procs{}
	defer ps.cleanup()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			ps.cleanup()
			os.Exit(130)
		}
	}()

	header := envHeader(root)
	for _, k := range []string{"nproc", "cpu", "go", "commit"} {
		fmt.Fprintf(stdout, "# %s %s\n", k, header[k])
	}
	fmt.Fprintf(stdout, "# seed %d seconds %d trace %d\n", *seed, spec.RunSeconds, *traced)

	e, err := newEnv(root, buildDir, ps)
	if err != nil {
		fmt.Fprintf(stderr, "asap-load: %v\n", err)
		return exitFailed
	}
	var spans *spanRecorder
	if *traced == 1 {
		spans = newSpanRecorder()
	}
	sh := fullShape(window)
	sum := summary{Correct: true, Metrics: map[string]summaryItem{}}
	all := map[string]map[string]outItem{}
	code := 0
	for _, w := range selected {
		res := runOne(e, w, *seed, sh, spans, stdout, stderr)
		sum.Attempted += res.attempted
		sum.Failed += res.failed
		all[w.name] = outItems(append(res.e2e, res.layers...))
		if !res.ok() {
			sum.Correct, code = false, exitFailed
			continue
		}
		if len(res.invalid) > 0 && code == 0 {
			code = exitInvalid
		}
		ms, want := res.e2e, spec.EndToEnd
		if *traced == 1 {
			ms, want = res.layers, spec.PerLayer
		}
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		if err := sum.addMetrics(prefix, ms, want); err != nil {
			fmt.Fprintf(stderr, "asap-load: %s: %v\n", w.name, err)
			sum.Correct, code = false, exitFailed
		}
	}
	if code == exitFailed {
		ps.saveLogs(logDir)
		fmt.Fprintf(stderr, "asap-load: server logs saved in %s\n", logDir)
	}
	if spans != nil {
		if err := spans.write(spansPath, map[string]interface{}{"env": header, "seed": *seed}); err != nil {
			fmt.Fprintf(stderr, "asap-load: write spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "# spans %s\n", spansPath)
		}
	}
	if *out != "" {
		b, _ := json.MarshalIndent(map[string]interface{}{"env": header, "seed": *seed, "seconds": spec.RunSeconds, "workloads": all}, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "asap-load: %v\n", err)
			code = exitFailed
		}
	}
	line, _ := json.Marshal(sum)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// outcome is one workload's verdict and metrics, over its untraced run
// and, when traced, its traced run.
type outcome struct {
	e2e, layers       []metric
	attempted, failed int
	err               error
	invalid           []string
}

func (o outcome) ok() bool { return o.err == nil && o.failed == 0 }

// add folds one run into the outcome and prints why it failed.
func (o *outcome) add(stderr io.Writer, name string, r *run, err error) {
	o.err = err
	if err != nil {
		fmt.Fprintf(stderr, "asap-load: %s: %v\n", name, err)
	}
	if r == nil {
		return
	}
	o.attempted += r.attempted
	o.failed += r.failed
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "asap-load: %s: failed: %s\n", name, f)
	}
}

// runOne runs one workload untraced, printing its end-to-end metrics,
// and then, when spans is set, traced, printing its per-layer ledger.
func runOne(e *env, w workload, seed int64, sh shape, spans *spanRecorder, stdout, stderr io.Writer) outcome {
	var o outcome
	r, err := runWorkload(e, w, options{seed: seed, shape: sh})
	o.add(stderr, w.name, r, err)
	if r == nil {
		return o
	}
	o.e2e = r.endToEnd()
	printMetrics(stdout, w.name, o.e2e)
	o.invalid = r.invalid(o.e2e)
	for _, why := range o.invalid {
		fmt.Fprintf(stderr, "asap-load: %s: invalid: %s\n", w.name, why)
	}
	if spans == nil || !o.ok() {
		return o
	}
	sh.setups = 1 // the traced run reports no setup_s
	t, err := runWorkload(e, w, options{seed: seed, shape: sh, traced: true, spans: spans})
	o.add(stderr, w.name+" (traced)", t, err)
	if !o.ok() {
		return o
	}
	if o.layers, err = t.perLayer(r); err != nil {
		o.add(stderr, w.name+" (traced)", nil, err)
		return o
	}
	printMetrics(stdout, w.name, o.layers)
	return o
}

// newEnv builds cmd/asap-server from root into buildDir and reads the
// stream configuration its flag defaults give, which is what the
// reference Streamers use.
func newEnv(root, buildDir string, ps *procs) (*env, error) {
	work, err := ps.mkdir(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "asap-server"))
	if err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/asap-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build asap-server: %v: %s", err, out)
	}
	help, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits non-zero after printing usage
	e := &env{work: work, serverBin: bin, procs: ps, nproc: runtime.NumCPU()}
	if e.stream, e.fsyncEvery, err = serverDefaults(string(help)); err != nil {
		return nil, err
	}
	return e, nil
}

// serverDefaults reads asap-server's usage text for the "(default ...)"
// of -window, -resolution, -refresh and -fsync-every, so the reference
// Streamers and the WAL replay follow the shipped binary instead of a
// copy of its flag mapping. A flag whose default is zero prints none.
func serverDefaults(usage string) (asap.StreamConfig, time.Duration, error) {
	defaults := map[string]string{}
	flagName := ""
	for _, line := range strings.Split(usage, "\n") {
		if t := strings.TrimSpace(line); strings.HasPrefix(t, "-") {
			flagName = strings.Fields(t)[0][1:]
		}
		if i := strings.Index(line, "(default "); i >= 0 && flagName != "" {
			defaults[flagName] = strings.TrimSuffix(line[i+len("(default "):], ")")
		}
	}
	num := func(name string) int {
		n, _ := strconv.Atoi(defaults[name])
		return n
	}
	cfg := asap.StreamConfig{WindowPoints: num("window"), Resolution: num("resolution"), RefreshEvery: num("refresh")}
	if cfg.WindowPoints == 0 || cfg.Resolution == 0 {
		return cfg, 0, fmt.Errorf("asap-server usage names no -window/-resolution default")
	}
	var fsync time.Duration
	if v, ok := defaults["fsync-every"]; ok {
		var err error
		if fsync, err = time.ParseDuration(v); err != nil {
			return cfg, 0, fmt.Errorf("asap-server -fsync-every default: %w", err)
		}
	}
	return cfg, fsync, nil
}

// envHeader identifies the machine and code a run measured, so results
// from different machines are never compared.
func envHeader(root string) map[string]string {
	h := map[string]string{
		"nproc":  strconv.Itoa(runtime.NumCPU()),
		"cpu":    "unknown",
		"go":     runtime.Version(),
		"commit": "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	git.Dir = root
	if b, err := git.Output(); err == nil {
		h["commit"] = strings.TrimSpace(string(b))
	}
	return h
}
