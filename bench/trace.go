package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the bench into a package's public
// function. Spans nest by call order on the bench's single driving
// goroutine; parent is an index into tracer.spans, -1 for a root.
type span struct {
	name   string
	start  time.Time
	dur    time.Duration
	parent int
	args   map[string]any
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing and costs one nil check per call, which is how the
// untraced passes run the same driver code as the traced pass.
type tracer struct {
	spans []span
	open  []int
}

// begin opens a span under the innermost open one and returns its
// closer. args attach counts measured at the same boundary.
func (t *tracer) begin(name string) func(args map[string]any) {
	if t == nil {
		return func(map[string]any) {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent})
	t.open = append(t.open, id)
	return func(args map[string]any) {
		t.spans[id].dur = time.Since(t.spans[id].start)
		t.spans[id].args = args
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns each span's duration minus the part its direct
// children cover, summed by span name, and the total over all spans.
// For properly nested spans the total equals the summed root durations.
func (t *tracer) selfTimes() (byName map[string]time.Duration, total time.Duration) {
	byName = make(map[string]time.Duration)
	if t == nil {
		return byName, 0
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	for i, s := range t.spans {
		byName[s.name] += self[i]
		total += self[i]
	}
	return byName, total
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome-trace "complete" events
// (chrome://tracing, Perfetto). Every span carries its parent's index so
// the causal tree survives viewers that only show the time axis.
func (t *tracer) writeChrome(path, workload string) error {
	if t == nil || len(t.spans) == 0 {
		return fmt.Errorf("trace %s: no spans recorded", workload)
	}
	origin := t.spans[0].start
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"span": i, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Sub(origin).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		}
	}
	data, err := json.Marshal(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"workload": workload},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
