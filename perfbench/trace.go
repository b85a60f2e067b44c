package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share Op; Parent is the enclosing span's id
// (0 for a root).
type span struct {
	ID, Parent int
	Op         int
	Layer      string // module name: core, dist, experiments, dataset, mcubes, render, ...
	Name       string
	Start, End time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing. Spans nest strictly (begin/end in LIFO
// order on one goroutine), which is how the benchmark calls the layers.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span ids
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// startOp tags the spans that follow with a new op identifier.
func (t *tracer) startOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span and returns its id.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: name, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Layer] += s.End - s.Start
		if s.Parent != 0 {
			p := t.spans[s.Parent-1]
			self[p.Layer] -= s.End - s.Start
		}
	}
	return self
}

// nameMS returns the summed duration of the spans with one name, in
// milliseconds per op.
func (t *tracer) nameMS(name string, ops int) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return float64(d) / 1e6 / float64(ops)
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(out io.Writer, ops int) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintln(out, "self time per op, by layer (benchmark spans):")
	for _, l := range layers {
		fmt.Fprintf(out, "  %-12s %10.3f ms\n", l, float64(self[l])/1e6/float64(ops))
	}
}

// write stores the spans in Chrome trace-event format (load the file in
// chrome://tracing or Perfetto).
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// printBottleneck names the filter whose copies were busy for the largest
// share of the view, and the layer metric that share belongs to.
func printBottleneck(out io.Writer, m map[string]metric) {
	best, util := "", 0.0
	for name, v := range m {
		if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".util") && v.Value > util {
			best, util = strings.TrimSuffix(strings.TrimPrefix(name, "core."), ".util"), v.Value
		}
	}
	if best == "" {
		fmt.Fprintln(out, "bottleneck: no filter-level stats on this workload")
		return
	}
	layer := map[string]string{"RE": "mcubes.extract_ms", "Ra": "render.raster_ms", "M": "render.merge_ms"}[best]
	fmt.Fprintf(out, "bottleneck: %s (busy %.0f%% of the view; layer metric %s)\n", best, 100*util, layer)
}
