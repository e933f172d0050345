// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 5 and the appendix). Each
// experiment is registered with an ID matching DESIGN.md's per-experiment
// index; cmd/asap-bench runs them from the command line and bench_test.go
// exposes each as a testing.B benchmark.
//
// Timings are wall-clock on the host running the harness; as in the paper,
// the reported quantities are *relative* (speedups over a baseline,
// roughness ratios), which transfer across machines even though absolute
// numbers do not.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Config adjusts experiment cost.
type Config struct {
	// Quick shrinks workloads (smaller datasets, fewer observers, fewer
	// sweep points) so the full suite finishes in seconds. The full-size
	// runs match the paper's configurations.
	Quick bool
	// Seed makes every randomized component deterministic.
	Seed int64
	// OutDir, when non-empty, receives SVG renderings for the figure
	// experiments that produce plots.
	OutDir string
}

// DefaultConfig is the configuration used by cmd/asap-bench unless
// overridden by flags.
var DefaultConfig = Config{Seed: 20170901} // arXiv v2 date of the paper

// Table is a formatted experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes hold the paper-vs-measured commentary appended to the table.
	Notes []string
}

// String renders the table as aligned monospaced text.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID matches the DESIGN.md index (e.g. "table2", "figure8").
	ID string
	// Title describes the artifact.
	Title string
	// PaperClaim summarizes what the paper reports; `asap-bench -run <id>`
	// prints it above the experiment's measured tables.
	PaperClaim string
	// Run executes the experiment and returns its result tables.
	Run func(cfg Config) ([]*Table, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment sorted by ID (tables first, then
// figures, in their natural order).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return orderKey(out[i].ID) < orderKey(out[j].ID) })
	return out
}

// orderKey sorts table1 < table2 < table4 < figure1 < ... < figure11 <
// figureA1 ... despite lexicographic quirks ("figure10" < "figure2").
func orderKey(id string) string {
	pad := func(prefix, rest string) string {
		if len(rest) == 1 {
			rest = "0" + rest
		}
		return prefix + rest
	}
	switch {
	case strings.HasPrefix(id, "table"):
		return pad("0", id[len("table"):])
	case strings.HasPrefix(id, "figure"):
		rest := id[len("figure"):]
		if rest != "" && rest[0] >= '0' && rest[0] <= '9' {
			return pad("1", rest)
		}
		return "2" + rest // appendix figures: A1, A2, ..., B1, B2, C
	default:
		return "9" + id
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// timeIt measures f's wall-clock duration.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// timeAtLeast runs f repeatedly until minDuration has elapsed and returns
// the mean duration per call. It stabilizes timings for very fast
// operations without the full testing.B machinery.
func timeAtLeast(minDuration time.Duration, f func() error) (time.Duration, error) {
	var total time.Duration
	n := 0
	for total < minDuration || n < 1 {
		d, err := timeIt(f)
		if err != nil {
			return 0, err
		}
		total += d
		n++
		if n >= 1000 {
			break
		}
	}
	return total / time.Duration(n), nil
}

// fmtDuration renders a duration with 3 significant digits.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3gs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3gms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.3gus", float64(d.Nanoseconds())/1000)
	}
}

// fmtF renders a float with 3 significant digits.
func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }

// fmtX renders a ratio as "12.3x".
func fmtX(v float64) string { return fmt.Sprintf("%.3gx", v) }
