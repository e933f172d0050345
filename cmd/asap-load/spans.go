package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span lanes: one trace-viewer row each.
const (
	lanePhase = iota + 1
	laneRequest
	laneSSE
	laneReplay
)

var laneNames = map[int]string{
	lanePhase:   "phases",
	laneRequest: "request connection",
	laneSSE:     "stream connection",
	laneReplay:  "layer replay",
}

// spanRecorder keeps the traced run's spans in memory — one per client
// call, per benchmark phase and per replayed layer call — until the
// benchmark writes them out at the end. Every method is a no-op on a
// nil recorder, which is what untraced runs hold.
type spanRecorder struct {
	mu      sync.Mutex
	epoch   time.Time
	process int // the workload's trace process id
	nextID  int
	phase   int // id of the open phase; the parent of every other span
	spans   []spanRec
	names   map[int]string // trace process id → workload
}

type spanRec struct {
	name                      string
	id, parent, process, lane int
	start, dur                time.Duration // start is relative to epoch
	args                      []interface{} // key, value pairs
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), names: map[int]string{}}
}

// workload starts a new trace process for the named workload.
func (r *spanRecorder) workload(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.process++
	r.names[r.process] = name
}

// add records a finished span under the open phase.
func (r *spanRecorder) add(name string, lane int, start time.Time, dur time.Duration, kv ...interface{}) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	r.spans = append(r.spans, spanRec{name: name, id: r.nextID, parent: r.phase, process: r.process,
		lane: lane, start: start.Sub(r.epoch), dur: dur, args: kv})
}

// begin opens a phase span; the returned func closes it.
func (r *spanRecorder) begin(name string) (end func()) {
	if r == nil {
		return func() {}
	}
	start := time.Now()
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.phase = id
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.spans = append(r.spans, spanRec{name: name, id: id, process: r.process, lane: lanePhase,
			start: start.Sub(r.epoch), dur: time.Since(start)})
		if r.phase == id {
			r.phase = 0
		}
	}
}

// write saves the spans in the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open directly: one "X" event per
// span with microsecond ts/dur, pid = workload, tid = lane, and the
// span's id, parent and attributes under args.
func (r *spanRecorder) write(path string, meta map[string]interface{}) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	type event struct {
		Name string                 `json:"name"`
		Ph   string                 `json:"ph"`
		Ts   float64                `json:"ts"`
		Dur  float64                `json:"dur,omitempty"`
		Pid  int                    `json:"pid"`
		Tid  int                    `json:"tid"`
		Args map[string]interface{} `json:"args,omitempty"`
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"displayTimeUnit":"ms","otherData":`)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	bw.WriteString(`,"traceEvents":[` + "\n")
	first := true
	emit := func(e event) error {
		if !first {
			bw.WriteString(",")
		}
		first = false
		return enc.Encode(e)
	}
	for pid, name := range r.names {
		if err := emit(event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]interface{}{"name": name}}); err != nil {
			return err
		}
		for lane, ln := range laneNames {
			if err := emit(event{Name: "thread_name", Ph: "M", Pid: pid, Tid: lane, Args: map[string]interface{}{"name": ln}}); err != nil {
				return err
			}
		}
	}
	for _, s := range r.spans {
		args := map[string]interface{}{"id": s.id, "parent": s.parent}
		for i := 0; i+1 < len(s.args); i += 2 {
			if k, ok := s.args[i].(string); ok {
				args[k] = s.args[i+1]
			}
		}
		if err := emit(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
			Pid: s.process, Tid: s.lane, Args: args}); err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
