package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// (the program under test carries no tracing of its own yet).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans and boundary counts in memory until the run ends. It is
// used from one goroutine. A nil tracer records nothing, which is how the
// traced pass measures its own overhead.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// start opens a span and returns its id; end closes it.
func (t *tracer) start(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Request: request, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// durationUS is the length of a closed span in microseconds.
func (t *tracer) durationUS(id int) float64 {
	return float64(t.spans[id].EndNS-t.spans[id].StartNS) / 1e3
}

// in runs fn inside a span.
func (t *tracer) in(name string, parent, request int, fn func()) {
	id := t.start(name, parent, request)
	fn()
	t.end(id)
}

func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// spanStat aggregates the spans of one name, in microseconds.
type spanStat struct {
	Count    int     `json:"count"`
	MedianUS float64 `json:"median_us"`
	MeanUS   float64 `json:"mean_us"`
	SelfUS   float64 `json:"self_mean_us"`
}

// selfTimes returns, per span name, the median and mean duration and the mean
// self time: a span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]spanStat {
	childNS := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
		}
	}
	durs := map[string][]float64{}
	self := map[string]float64{}
	for _, s := range t.spans {
		d := float64(s.EndNS-s.StartNS) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		self[s.Name] += d - float64(childNS[s.ID])/1e3
	}
	out := map[string]spanStat{}
	for name, ds := range durs {
		out[name] = spanStat{Count: len(ds), MedianUS: median(ds), MeanUS: mean(ds), SelfUS: self[name] / float64(len(ds))}
	}
	return out
}

// traceFile is what a traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     uint64              `json:"seed"`
	Spans    []span              `json:"spans"`
	Counts   map[string]int64    `json:"counts"`
	ByName   map[string]spanStat `json:"by_name"`
}

func (t *tracer) write(dir, workload string, seed uint64, byName map[string]spanStat) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans, Counts: t.counts, ByName: byName})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
