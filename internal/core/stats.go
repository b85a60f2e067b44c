package core

import "datacutter/internal/exec"

// The run statistics are produced by the shared copy-set runtime
// (internal/exec) on every engine; core re-exports them so results read in
// one shape everywhere.

// StreamStats aggregates traffic on one logical stream across a run.
type StreamStats = exec.StreamStats

// FilterStats aggregates execution of one filter's copies across a run.
type FilterStats = exec.FilterStats

// Stats is the result of a run.
type Stats = exec.Stats

// MinAvgMax summarizes a per-copy series.
func MinAvgMax(xs []float64) (min, avg, max float64) { return exec.MinAvgMax(xs) }

// NewStats allocates an empty Stats for a graph.
func NewStats(g *Graph) *Stats { return exec.NewStats(g.Filters(), g.Streams()) }
