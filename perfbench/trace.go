package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ftsched/internal/obs"
)

// tracer records the benchmark's own spans around its calls into the
// engines. A nil *tracer records nothing, so untraced runs pay one nil
// check per call. Safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one recorded call: its name, its parent's index (-1 for a root)
// and its dates in nanoseconds from the tracer's creation.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call runs f inside a span.
func (t *tracer) call(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// layerTime is the aggregate of every span of one name.
type layerTime struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is Total minus the time the spans' children cover.
	Self float64 `json:"self_s"`
}

// byName aggregates the spans per name, with self times.
func (t *tracer) byName() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += float64(s.End-s.Start) / 1e9
		lt.Self += float64(s.End-s.Start-child[i]) / 1e9
		out[s.Name] = lt
	}
	return out
}

// sinkDump is an obs.Sink's counters and timer totals (seconds).
type sinkDump struct {
	Counters map[string]int64   `json:"counters"`
	Timers   map[string]float64 `json:"timers_s"`
}

func dumpSink(s *obs.Sink) sinkDump {
	d := sinkDump{Counters: s.Snapshot(), Timers: map[string]float64{}}
	for name, ts := range s.Timers() {
		d.Timers[name] = ts.Total.Seconds()
	}
	return d
}

// writeTrace writes the traced run's spans, per-layer self times and
// engine counters to .bench_build/traces/ under the working directory.
func writeTrace(workload string, seed int64, hdr map[string]any, out *outcome) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out.tr.mu.Lock()
	spans := append([]span(nil), out.tr.spans...)
	out.tr.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"header":   hdr,
		"self":     out.tr.byName(),
		"sinks":    out.sinks,
		"spans":    spans,
		"metrics":  out.metrics,
		"workload": workload,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), data, 0o644)
}
