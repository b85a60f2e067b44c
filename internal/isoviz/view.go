// Package isoviz implements the paper's case study: the isosurface
// rendering application decomposed into DataCutter filters.
//
// The application has three producer steps: read (R) retrieves volume
// chunks, extract (E) runs marching-cubes isosurface extraction, and raster
// (Ra) renders triangles with either the z-buffer or the active-pixel
// algorithm. A merge filter (M) composites partial results into the final
// image (filters such as Ra keep internal state — the accumulator — so a
// combine stage is required for transparent copying; paper §1, §3). Each
// decomposition (Config) only decides which consecutive steps share a
// filter; one filter type, Stage (filters.go), runs any step range with
// actual data on either engine.
//
// The model stages (model.go) are workload-statistics twins of Stage
// for the simulated engine: they move buffers with the same counts
// and sizes and charge calibrated CPU/disk costs instead of doing the math,
// which is how the paper-scale (25 GB) experiments run in virtual time.
// Their statistics come from coarse extraction with the real marching-cubes
// code (workload.go), so spatial skew is preserved.
package isoviz

import (
	"datacutter/internal/geom"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// View is the unit-of-work descriptor: which stored timestep to render,
// from where, at what isovalue, into what image.
type View struct {
	Timestep int
	Iso      float32
	Width    int
	Height   int
	Camera   geom.Camera
}

// DefaultView renders timestep 0 at a mid-range isovalue into a 512²
// frame.
func DefaultView(iso float32) View {
	return View{Timestep: 0, Iso: iso, Width: 512, Height: 512, Camera: geom.DefaultCamera()}
}

// Stream names used by the standard graphs.
const (
	StreamVoxels    = "voxels"    // R -> E: volume chunks
	StreamTriangles = "triangles" // E -> Ra: extracted triangles
	StreamPixels    = "pixels"    // Ra -> M: z-buffer chunks or pixel batches
)

// TriBatch is the payload of one E->Ra buffer.
type TriBatch struct {
	Tris []geom.Triangle
}

// Bytes returns the batch's serialized size.
func (t TriBatch) Bytes() int { return len(t.Tris) * geom.TriangleBytes }

// ZChunk is one fixed-size slice of a z-buffer, the Ra->M payload of the
// z-buffer algorithm. Off is the starting pixel offset in row-major order.
type ZChunk struct {
	Off   int
	Depth []float32
	Color []render.RGB
}

// Bytes returns the chunk's serialized size.
func (z ZChunk) Bytes() int { return len(z.Depth) * render.ZPixelBytes }

// PixBatch is one flushed Winning Pixel Array, the Ra->M payload of the
// active-pixel algorithm.
type PixBatch struct {
	Pixels []render.Pixel
}

// Bytes returns the batch's serialized size.
func (p PixBatch) Bytes() int { return len(p.Pixels) * render.PixelBytes }

// Buffer-size preferences the raster filters disclose for their output
// stream (paper §2: a filter declares minimum and optional maximum buffer
// sizes; the runtime chooses the actual size). The z-buffer algorithm dumps
// whole frames and wants big buffers; the active-pixel algorithm streams
// winning-pixel arrays and keeps them small so merging overlaps raster
// work.
const (
	ZFrameBufferBytes = 2 << 20
	WPABufferBytes    = 64 << 10
)

// VoxelBlock is the R->E payload: one chunk of the volume.
type VoxelBlock struct {
	V *volume.Volume
}

// Bytes returns the block's serialized size.
func (b VoxelBlock) Bytes() int { return b.V.Bytes() }
