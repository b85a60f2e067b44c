package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"strings"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root lists the same metrics; a test keeps the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported with
// -trace 0. Failed ops are the result line's failed/attempted, which is
// the error rate.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, named by module and reported
// with -trace 1; every value is a mean per op unless its name says
// otherwise. A layer the workload does not run reports 0. README.md gives,
// for each, the end-to-end metric it should move and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"dataset.read_ms", "ms"},
		{"dataset.prune_ms", "ms"},
		{"dataset.bytes_read", "bytes"},
		{"dataset.chunks_read", "count"},
		{"dataset.chunks_pruned", "count"},
		{"dataset.prune_ratio", "ratio"},
		{"mcubes.extract_ms", "ms"},
		{"mcubes.ns_per_cell", "ns"},
		{"mcubes.cells", "count"},
		{"mcubes.active_ratio", "ratio"},
		{"mcubes.triangles", "count"},
		{"render.raster_ms", "ms"},
		{"render.merge_ms", "ms"},
		{"render.active_pixels", "count"},
	}
	for _, f := range []string{"RE", "Ra", "M"} {
		defs = append(defs,
			metricDef{"core." + f + ".busy_ms", "ms"},
			metricDef{"core." + f + ".read_stall_ms", "ms"},
			metricDef{"core." + f + ".write_stall_ms", "ms"},
			metricDef{"core." + f + ".util", "ratio"})
	}
	for _, s := range []string{"triangles", "pixels"} {
		defs = append(defs,
			metricDef{"core.stream." + s + ".buffers", "count"},
			metricDef{"core.stream." + s + ".mb", "MB"},
			metricDef{"exec." + s + ".acks_per_buffer", "ratio"})
	}
	return append(defs,
		metricDef{"exec.triangles.remote_share", "ratio"},
		metricDef{"dist.session_ms", "ms"},
		metricDef{"dist.tx.mb", "MB"},
		metricDef{"dist.tx.frames", "count"},
		metricDef{"dist.tx.frames_per_flush", "count"},
		metricDef{"dist.rx.ack_frames", "count"},
		metricDef{"simrt.buffers", "count"},
		metricDef{"simrt.buffers_per_s", "1/s"},
		metricDef{"isoviz.workload_stats_ms", "ms"},
		metricDef{"obs.trace_overhead_pct", "%"},
	)
}

// zeroLayers returns every per-layer metric at 0.
func zeroLayers() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = metric{0, d.Unit}
	}
	return m
}

// set stores a per-layer value under its declared unit; an undeclared name
// is a bug in the benchmark.
func set(m map[string]metric, name string, v float64) {
	old, ok := m[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m[name] = metric{v, old.Unit}
}

// workloads is the benchmark's workload table. Each is a closed loop: one
// client, one op in flight.
var workloads = buildWorkloads()

func buildWorkloads() map[string]workload {
	ws := map[string]workload{
		"paper-sim": {Name: "paper-sim", setup: simSetup},
	}
	for _, s := range renderSpecs {
		ws[s.Name] = workload{Name: s.Name, setup: s.setup}
	}
	return ws
}

//go:embed golden
var goldenFS embed.FS

// goldenHashes returns the committed image hash of each view of each
// rendering workload at the default seed.
func goldenHashes() map[string][]string {
	raw, err := goldenFS.ReadFile("golden/render.json")
	if err != nil {
		return nil
	}
	var h map[string][]string
	if err := json.Unmarshal(raw, &h); err != nil {
		panic(fmt.Sprintf("perfbench: golden/render.json: %v", err))
	}
	return h
}

// goldenTables returns the committed text of every paper table and figure
// at quick scale, keyed by experiment id.
func goldenTables() map[string]string {
	out := map[string]string{}
	entries, err := goldenFS.ReadDir("golden/paper-sim")
	if err != nil {
		return out
	}
	for _, e := range entries {
		raw, err := goldenFS.ReadFile("golden/paper-sim/" + e.Name())
		if err != nil {
			continue
		}
		out[strings.TrimSuffix(e.Name(), ".txt")] = string(raw)
	}
	return out
}
