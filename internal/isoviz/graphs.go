package isoviz

import (
	"fmt"
	"strings"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
)

// Algorithm selects the hidden-surface removal scheme.
type Algorithm int

// The two rendering algorithms evaluated in the paper.
const (
	ZBuffer Algorithm = iota
	ActivePixel
)

func (a Algorithm) String() string {
	if a == ZBuffer {
		return "Z-buffer"
	}
	return "Active Pixel"
}

// Step is one step of the application's producer side. A filter runs a
// contiguous range of steps (see Stage); the merge M always follows.
type Step int

// The producer steps in pipeline order.
const (
	Read    Step = iota // R: retrieve volume chunks
	Extract             // E: marching-cubes isosurface extraction
	Raster              // Ra: render triangles (z-buffer or active pixel)
)

func (s Step) String() string {
	switch s {
	case Read:
		return "R"
	case Extract:
		return "E"
	case Raster:
		return "Ra"
	}
	return fmt.Sprintf("Step(%d)", int(s))
}

// Config selects the filter decomposition (paper Figure 3 plus the fully
// split baseline pipeline).
type Config int

// The evaluated configurations.
const (
	// FullPipeline is R–E–Ra–M: every stage its own filter.
	FullPipeline Config = iota
	// CombinedAll is RERa–M: read+extract+raster fused (SPMD-like).
	CombinedAll
	// ReadExtract is RE–Ra–M: read+extract fused, raster separate.
	ReadExtract
	// ExtractRaster is R–ERa–M: read separate, extract+raster fused.
	ExtractRaster
)

// stageDef is one producer filter of a decomposition: its name, the steps
// it runs, and the streams it reads (From > Read) and writes.
type stageDef struct {
	name     string
	from, to Step
	in, out  string
}

// stepTable is the decomposition of each Config. Each cut only decides
// which consecutive steps share a filter; the graphs of both engines, the
// config's name and its placement roles all derive from it.
var stepTable = [...][]stageDef{
	FullPipeline: {
		{"R", Read, Read, "", StreamVoxels},
		{"E", Extract, Extract, StreamVoxels, StreamTriangles},
		{"Ra", Raster, Raster, StreamTriangles, StreamPixels},
	},
	CombinedAll: {
		{"RERa", Read, Raster, "", StreamPixels},
	},
	ReadExtract: {
		{"RE", Read, Extract, "", StreamTriangles},
		{"Ra", Raster, Raster, StreamTriangles, StreamPixels},
	},
	ExtractRaster: {
		{"R", Read, Read, "", StreamVoxels},
		{"ERa", Extract, Raster, StreamVoxels, StreamPixels},
	},
}

// stages returns the config's producer filters in pipeline order (nil for
// an unknown config).
func (c Config) stages() []stageDef {
	if c < 0 || int(c) >= len(stepTable) {
		return nil
	}
	return stepTable[c]
}

func (c Config) String() string {
	defs := c.stages()
	if defs == nil {
		return fmt.Sprintf("Config(%d)", int(c))
	}
	names := make([]string, 0, len(defs)+1)
	for _, d := range defs {
		names = append(names, d.name)
	}
	return strings.Join(append(names, "M"), "-")
}

// SourceFilter returns the name of the filter that reads storage in this
// configuration (the one whose placement should cover the data nodes).
func (c Config) SourceFilter() string {
	if defs := c.stages(); defs != nil {
		return defs[0].name
	}
	return ""
}

// WorkerFilter returns the name of the compute-heavy filter whose copies
// absorb raster load ("" when it is fused into the source filter).
func (c Config) WorkerFilter() string {
	if defs := c.stages(); len(defs) > 1 {
		return defs[len(defs)-1].name
	}
	return ""
}

// buildGraph lays out the config's step table as a graph: one filter per
// stage, made by stage, each feeding the next, and the merge filter "M"
// last.
func buildGraph(c Config, stage func(stageDef) core.Filter, merge core.FilterFactory) *core.Graph {
	defs := c.stages()
	if defs == nil {
		panic("isoviz: unknown config")
	}
	g := core.NewGraph()
	for _, d := range defs {
		g.AddFilter(d.name, func() core.Filter { return stage(d) })
	}
	for i, d := range defs {
		to := "M"
		if i+1 < len(defs) {
			to = defs[i+1].name
		}
		g.Connect(d.name, to, d.out)
	}
	g.AddFilter("M", merge)
	return g
}

// PipelineSpec assembles an isosurface rendering graph.
type PipelineSpec struct {
	Config Config
	Alg    Algorithm
	Source ChunkSource
	Assign Assign
	// Pushdown enables near-storage predicate pruning in the source-side
	// filter: each view's iso-value (ANDed with Pred) is checked against the
	// source's chunk summaries and provably contribution-free chunks are
	// skipped before any read. Requires a PrunableSource to take effect.
	Pushdown bool
	// Pred is an extra predicate (e.g. a spatial box) intersected with the
	// per-view iso predicate when Pushdown is on.
	Pred dataset.Predicate
}

// Build constructs the filter graph for the spec. The merge filter is
// always named "M" and each graph's streams use the Stream* constants.
func (s PipelineSpec) Build() *core.Graph {
	return buildGraph(s.Config, func(d stageDef) core.Filter {
		return &Stage{
			From: d.from, To: d.to, In: d.in, Out: d.out, Alg: s.Alg,
			Source: s.Source, Assign: s.Assign, Pushdown: s.Pushdown, Pred: s.Pred,
		}
	}, func() core.Filter { return &MergeFilter{In: StreamPixels} })
}

// MergeResult retrieves the merge filter (and so the final image) from a
// runner after a run. Works with both engines' Instances method.
func MergeResult(instances []core.Filter) (*MergeFilter, error) {
	if len(instances) != 1 {
		return nil, fmt.Errorf("isoviz: expected exactly one merge copy, got %d", len(instances))
	}
	m, ok := instances[0].(*MergeFilter)
	if !ok {
		return nil, fmt.Errorf("isoviz: filter M is %T", instances[0])
	}
	return m, nil
}
