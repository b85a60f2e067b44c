package isoviz

import (
	"fmt"

	"datacutter/internal/core"
	"datacutter/internal/geom"
	"datacutter/internal/render"
)

// Image-space partitioning — the hybrid strategy the paper's conclusions
// propose (§6): "we could partition the image space into subregions among
// the raster filters, thus eliminating the merge filter['s bottleneck] …
// a hybrid strategy that combines image-partitioning and
// image-replication". The screen is cut into horizontal bands; each band
// has its own raster filter (which may itself be transparently replicated
// — the replication axis), and the producer routes each triangle to every
// band its screen projection overlaps. Band rasterizers scissor to their
// strip, so bands stay disjoint and the merge filter's work drops from
// "every copy's winning pixels" to "each winning pixel once".

// TriBandStream names the triangle stream feeding band i.
func TriBandStream(i int) string { return fmt.Sprintf("tri%d", i) }

// PixBandStream names the pixel stream from band i's rasterizer.
func PixBandStream(i int) string { return fmt.Sprintf("pix%d", i) }

// BandFilterName names band i's raster filter.
func BandFilterName(i int) string { return fmt.Sprintf("Ra%d", i) }

// route sends a triangle to every band its screen-space bounding box
// overlaps (triangles spanning a band border go to both; scissoring keeps
// the result exact).
func (r *stageRun) route(t geom.Triangle) error {
	minY, maxY := float32(0), float32(0)
	first := true
	for _, p := range t.P {
		sp, w := r.m.Apply(p)
		if w <= 0 {
			return nil // behind the eye: the rasterizer would cull it
		}
		if first {
			minY, maxY = sp.Y, sp.Y
			first = false
			continue
		}
		if sp.Y < minY {
			minY = sp.Y
		}
		if sp.Y > maxY {
			maxY = sp.Y
		}
	}
	// Generous one-pixel margin: routing a triangle to an extra band is
	// harmless (its scissor discards it); missing a band would drop pixels.
	height := r.view.Height
	y0 := int(minY) - 1
	y1 := int(maxY) + 1
	if y1 < 0 || y0 > height-1 {
		return nil // fully off screen: early cull
	}
	if y0 < 0 {
		y0 = 0
	}
	if y1 > height-1 {
		y1 = height - 1
	}
	b1 := render.BandOf(height, r.Bands, y1)
	for b := render.BandOf(height, r.Bands, y0); b <= b1; b++ {
		if err := r.packers[b].add(r.ctx, t); err != nil {
			return err
		}
	}
	return nil
}

// PartitionedSpec assembles the hybrid pipeline: RE routes triangles to
// `Bands` band rasterizers, whose disjoint pixel streams a single merge
// filter assembles (its per-pixel work no longer grows with the copy
// count). Transparent copies of a band filter replicate within the
// partition (the hybrid's replication axis).
type PartitionedSpec struct {
	Bands  int
	Source ChunkSource
	Assign Assign
}

// Build constructs the partitioned graph: filters "RE", "Ra0".."Ra<K-1>",
// and "M".
func (s PartitionedSpec) Build() *core.Graph {
	g := core.NewGraph()
	g.AddFilter("RE", func() core.Filter {
		return &Stage{From: Read, To: Extract, Source: s.Source, Assign: s.Assign, Bands: s.Bands}
	})
	var ins []string
	for i := 0; i < s.Bands; i++ {
		name := BandFilterName(i)
		g.AddFilter(name, func() core.Filter {
			return &Stage{From: Raster, To: Raster, In: TriBandStream(i), Out: PixBandStream(i), Alg: ActivePixel, Band: i, Bands: s.Bands}
		})
		g.Connect("RE", name, TriBandStream(i))
		g.Connect(name, "M", PixBandStream(i))
		ins = append(ins, PixBandStream(i))
	}
	g.AddFilter("M", func() core.Filter { return &MergeFilter{Ins: ins} })
	return g
}
