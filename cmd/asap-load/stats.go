package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/asap-go/asap/internal/obs"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, sorting xs in place; NaN when xs is empty. Nearest rank never
// interpolates, so every reported percentile is a latency some request
// actually saw.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// hist is one histogram series read from a /metrics scrape: the
// cumulative bucket counts by upper bound, plus _sum and _count.
type hist struct {
	upper []float64 // ascending, +Inf last
	cum   []float64
	sum   float64
	count float64
}

// histFrom extracts the histogram series of family name whose labels
// include every pair in match; ok is false when the family or series
// is missing.
func histFrom(fams map[string]*obs.ExpoFamily, name string, match map[string]string) (hist, bool) {
	fam := fams[name]
	if fam == nil {
		return hist{}, false
	}
	var h hist
	found := false
	for _, s := range fam.Samples {
		if !labelsMatch(s.Labels, match) {
			continue
		}
		switch s.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				continue
			}
			h.upper = append(h.upper, le)
			h.cum = append(h.cum, s.Value)
		case name + "_sum":
			h.sum = s.Value
			found = true
		case name + "_count":
			h.count = s.Value
		}
	}
	return h, found && len(h.upper) > 0
}

func labelsMatch(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// histDelta is the histogram of the observations made between two
// scrapes of the same series.
func histDelta(before, after hist) hist {
	d := hist{upper: after.upper, cum: make([]float64, len(after.cum)),
		sum: after.sum - before.sum, count: after.count - before.count}
	for i := range after.cum {
		d.cum[i] = after.cum[i]
		if i < len(before.cum) {
			d.cum[i] -= before.cum[i]
		}
	}
	return d
}

// mean is the mean observation; NaN with no observations.
func (h hist) mean() float64 {
	if h.count <= 0 {
		return math.NaN()
	}
	return h.sum / h.count
}

// quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// inside the bucket holding rank q*count, the way Prometheus'
// histogram_quantile does: the lowest bucket interpolates up from 0 and
// a rank in the +Inf bucket reports the highest finite bound.
func (h hist) quantile(q float64) float64 {
	if h.count <= 0 || len(h.upper) == 0 {
		return math.NaN()
	}
	rank := q * h.count
	lowerBound, lowerCum := 0.0, 0.0
	for i, ub := range h.upper {
		if h.cum[i] >= rank {
			if math.IsInf(ub, 1) {
				return lowerBound
			}
			inBucket := h.cum[i] - lowerCum
			if inBucket <= 0 {
				return ub
			}
			return lowerBound + (ub-lowerBound)*(rank-lowerCum)/inBucket
		}
		lowerBound, lowerCum = ub, h.cum[i]
	}
	return lowerBound
}

// counterValue sums the samples of a counter or gauge family whose
// labels include every pair in match; 0 when the family is missing.
func counterValue(fams map[string]*obs.ExpoFamily, name string, match map[string]string) float64 {
	fam := fams[name]
	if fam == nil {
		return 0
	}
	total := 0.0
	for _, s := range fam.Samples {
		if s.Name == name && labelsMatch(s.Labels, match) {
			total += s.Value
		}
	}
	return total
}

// clockTicks is USER_HZ, the unit of the utime/stime fields in
// /proc/<pid>/stat; Linux fixes it at 100 on every architecture Go
// supports.
const clockTicks = 100

// parseProcStatCPU returns utime+stime in seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesised and may
// hold spaces or parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	// After ")": state is field 3, utime field 14, stime field 15.
	fields := strings.Fields(string(stat[i+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(fields))
	}
	utime, err := strconv.ParseInt(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return float64(utime+stime) / clockTicks, nil
}

// procCPU returns a process's user+system CPU seconds so far.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// procHWM returns a process's peak resident set size (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
