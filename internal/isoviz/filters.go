package isoviz

import (
	"fmt"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/geom"
	"datacutter/internal/mcubes"
	"datacutter/internal/obs"
	"datacutter/internal/render"
	"datacutter/internal/volume"
)

// viewOf extracts the View descriptor from the unit of work.
func viewOf(ctx core.Ctx) (View, error) {
	v, ok := ctx.Work().(View)
	if !ok {
		return View{}, fmt.Errorf("isoviz: unit of work is %T, want isoviz.View", ctx.Work())
	}
	return v, nil
}

// Stage is the real producer filter: it runs the contiguous steps From..To
// of Read < Extract < Raster, so every decomposition of the application
// (paper Figure 3) is a choice of step ranges.
//
// Input comes from From: with From == Read the stage retrieves the chunks
// Assign gives its copy (after pushdown pruning, in planned order),
// otherwise it reads VoxelBlock (Extract) or TriBatch (Raster) buffers from
// In. Output comes from To: one voxel buffer per chunk (Read), triangle
// batches packed to the stream buffer size (Extract), or the rendered
// result (Raster): the whole z-buffer frame at end of work, or winning
// pixels streamed as the WPA fills. Every stage flushes its pending
// triangles or winning pixels at the end of each input unit, an input
// buffer or a chunk read (paper §3.1.1, §3.1.2).
type Stage struct {
	From, To Step

	// Storage side, used when From == Read. With Pushdown set, the view's
	// iso-value (and the optional Pred) is evaluated against the source's
	// chunk summaries first, so provably contribution-free chunks are never
	// read.
	Source   ChunkSource
	Assign   Assign
	Pushdown bool
	Pred     dataset.Predicate

	In, Out string
	Alg     Algorithm // hidden-surface scheme, used when To == Raster

	// Bands > 0 partitions the screen into horizontal bands (see
	// PartitionedSpec): a stage ending in Extract routes each triangle to
	// the band streams TriBandStream(i) instead of Out, and a stage ending
	// in Raster renders only band Band.
	Bands, Band int

	// z is a z-buffer raster stage's accumulator, allocated per unit of
	// work in Init and released in Finalize (paper §3.1.2).
	z *render.ZBuffer
}

// SetObserver implements core.ObserverSetter (near-storage metrics).
func (s *Stage) SetObserver(o *obs.Observer) {
	if s.From == Read {
		forwardObserver(s.Source, o)
	}
}

// Init implements core.Filter. A raster stage discloses the buffer sizes it
// wants: large ones for the z-buffer frame dump, small ones for the WPA
// (paper §2: filters disclose buffer bounds, the runtime picks the size).
func (s *Stage) Init(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	if s.To == Raster {
		declareRasterOut(ctx, s.Alg, s.Out)
		if s.Alg == ZBuffer {
			s.z = render.NewZBuffer(view.Width, view.Height)
		}
	}
	return nil
}

// Finalize implements core.Filter.
func (s *Stage) Finalize(core.Ctx) error {
	s.z = nil
	return nil
}

func declareRasterOut(ctx core.Ctx, alg Algorithm, out string) {
	if alg == ZBuffer {
		ctx.DeclareBuffer(out, ZFrameBufferBytes, 0)
	} else {
		ctx.DeclareBuffer(out, 0, WPABufferBytes)
	}
}

// Process implements core.Filter.
func (s *Stage) Process(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	r, err := s.start(ctx, view)
	if err != nil {
		return err
	}
	if s.From == Read {
		chunks := pruneChunks(s.Source, s.Assign(ctx), view, s.Pred, s.Pushdown)
		load, stop := planLoad(s.Source, chunks, view.Timestep)
		defer stop()
		for _, chunk := range chunks {
			v, err := load(chunk, view.Timestep)
			if err != nil {
				return fmt.Errorf("isoviz: read chunk %d: %w", chunk, err)
			}
			if err := r.volume(v); err != nil {
				return err
			}
		}
		return r.end()
	}
	for {
		b, ok := ctx.Read(s.In)
		if !ok {
			return r.end()
		}
		vb, isVoxels := b.Payload.(VoxelBlock)
		tb, isTris := b.Payload.(TriBatch)
		switch {
		case s.From == Extract && isVoxels:
			err = r.volume(vb.V)
		case s.From == Raster && isTris:
			r.rr.DrawAll(tb.Tris, r.target)
			err = r.flush()
		default:
			return fmt.Errorf("isoviz: stage %v..%v got %T", s.From, s.To, b.Payload)
		}
		if err != nil {
			return err
		}
	}
}

// stageRun is the output side of one Process call, chosen by To.
type stageRun struct {
	*Stage
	ctx  core.Ctx
	view View
	emit func(geom.Triangle) // per-triangle sink of extraction
	err  error               // first write error of emit or a WPA flush

	packers []*triPacker // To == Extract: Out, or one per band
	m       geom.Mat4    // routing projection, when Bands > 0

	rr     *render.Raster // To == Raster
	target render.Target
	ap     *render.ActivePixels
}

func (s *Stage) start(ctx core.Ctx, view View) (*stageRun, error) {
	if s.From > s.To {
		return nil, fmt.Errorf("isoviz: stage runs %v..%v, an empty step range", s.From, s.To)
	}
	routes := s.To == Extract && s.Bands > 0
	if s.Out == "" && !routes {
		return nil, fmt.Errorf("isoviz: stage %v..%v has no output stream", s.From, s.To)
	}
	r := &stageRun{Stage: s, ctx: ctx, view: view}
	switch {
	case routes:
		r.m = view.Camera.Matrix(view.Width, view.Height)
		for i := 0; i < s.Bands; i++ {
			r.packers = append(r.packers, newTriPacker(ctx, TriBandStream(i)))
		}
		r.emit = func(t geom.Triangle) {
			if r.err == nil {
				r.err = r.route(t)
			}
		}
	case s.To == Extract:
		p := newTriPacker(ctx, s.Out)
		r.packers = []*triPacker{p}
		r.emit = func(t geom.Triangle) {
			if r.err == nil {
				r.err = p.add(ctx, t)
			}
		}
	case s.To == Raster:
		r.rr = render.NewRaster(view.Camera, view.Width, view.Height)
		if s.Bands > 0 {
			r.rr.SetScissor(render.Band(view.Height, s.Bands, s.Band))
		}
		if s.Alg == ZBuffer {
			r.target = s.z
		} else {
			// Sized here, not in Init: buffer sizes resolve after Init.
			r.ap = render.NewActivePixels(view.Width, view.Height, ctx.BufferBytes(s.Out)/render.PixelBytes, func(px []render.Pixel) {
				if r.err == nil {
					batch := PixBatch{Pixels: append([]render.Pixel(nil), px...)}
					r.err = ctx.Write(s.Out, core.Buffer{Payload: batch, Size: batch.Bytes()})
				}
			})
			r.target = r.ap
		}
		rr, target := r.rr, r.target
		r.emit = func(t geom.Triangle) { rr.Draw(t, target) }
	}
	return r, nil
}

// volume runs one chunk through the stage: a stage ending in Read ships it
// as one buffer, the others extract its triangles into emit.
func (r *stageRun) volume(v *volume.Volume) error {
	if r.To == Read {
		return r.ctx.Write(r.Out, core.Buffer{Payload: VoxelBlock{V: v}, Size: v.Bytes()})
	}
	mcubes.Walk(v, r.view.Iso, r.emit)
	return r.flush()
}

// flush ends an input unit: pending triangle batches and the WPA ship now,
// which keeps the pipeline busy. A z-buffer waits for end of work.
func (r *stageRun) flush() error {
	if r.err != nil {
		return r.err
	}
	for _, p := range r.packers {
		if err := p.flush(r.ctx); err != nil {
			return err
		}
	}
	if r.ap != nil {
		r.ap.FlushRemaining()
	}
	return r.err
}

// end runs at the end-of-work marker: a z-buffer stage (z set in Init)
// enters the pixel merging phase.
func (r *stageRun) end() error {
	if r.z != nil {
		return sendZBuffer(r.ctx, r.z, r.Out)
	}
	return nil
}

// triPacker accumulates extracted triangles and emits fixed-size buffers:
// when the batch reaches the stream's buffer size or an input buffer has
// been fully processed, the batch is sent (paper §3.1.1).
type triPacker struct {
	out   string
	cap   int
	batch []geom.Triangle
}

func newTriPacker(ctx core.Ctx, out string) *triPacker {
	capTris := ctx.BufferBytes(out) / geom.TriangleBytes
	if capTris < 1 {
		capTris = 1
	}
	return &triPacker{out: out, cap: capTris, batch: make([]geom.Triangle, 0, capTris)}
}

func (p *triPacker) add(ctx core.Ctx, t geom.Triangle) error {
	p.batch = append(p.batch, t)
	if len(p.batch) >= p.cap {
		return p.flush(ctx)
	}
	return nil
}

func (p *triPacker) flush(ctx core.Ctx) error {
	if len(p.batch) == 0 {
		return nil
	}
	tris := make([]geom.Triangle, len(p.batch))
	copy(tris, p.batch)
	p.batch = p.batch[:0]
	b := TriBatch{Tris: tris}
	return ctx.Write(p.out, core.Buffer{Payload: b, Size: b.Bytes()})
}

// sendZBuffer ships the full z-buffer in fixed-size chunks on out. This is
// the pixel-merging phase of the z-buffer algorithm: it happens only after
// the end-of-work marker, the synchronization point that stalls the
// pipeline (paper §3.1.2), and it transmits inactive pixels too.
func sendZBuffer(ctx core.Ctx, z *render.ZBuffer, out string) error {
	pxPerBuf := ctx.BufferBytes(out) / render.ZPixelBytes
	if pxPerBuf < 1 {
		pxPerBuf = 1
	}
	total := z.W * z.H
	for off := 0; off < total; off += pxPerBuf {
		end := off + pxPerBuf
		if end > total {
			end = total
		}
		chunk := ZChunk{
			Off:   off,
			Depth: append([]float32(nil), z.Depth[off:end]...),
			Color: append([]render.RGB(nil), z.Color[off:end]...),
		}
		if err := ctx.Write(out, core.Buffer{Payload: chunk, Size: chunk.Bytes()}); err != nil {
			return err
		}
	}
	return nil
}

// ---- Merge filter (M) ----

// MergeFilter composites partial results (z-buffer chunks or winning-pixel
// batches) into the final image. Exactly one copy runs (paper §4.1); it is
// the combine filter required because raster copies hold accumulator
// state.
type MergeFilter struct {
	// In is the single input stream of the standard pipelines. The
	// partitioned pipeline instead sets Ins (one disjoint pixel stream per
	// screen band); when Ins is non-empty it takes precedence.
	In  string
	Ins []string

	z     *render.ZBuffer
	final *render.ZBuffer
	// Received counts buffers merged, for experiment accounting.
	Received int64
}

func (f *MergeFilter) inputs() []string {
	if len(f.Ins) > 0 {
		return f.Ins
	}
	return []string{f.In}
}

// Init implements core.Filter.
func (f *MergeFilter) Init(ctx core.Ctx) error {
	view, err := viewOf(ctx)
	if err != nil {
		return err
	}
	f.z = render.NewZBuffer(view.Width, view.Height)
	return nil
}

// Process implements core.Filter.
func (f *MergeFilter) Process(ctx core.Ctx) error {
	for _, in := range f.inputs() {
		for {
			b, ok := ctx.Read(in)
			if !ok {
				break
			}
			f.Received++
			switch p := b.Payload.(type) {
			case ZChunk:
				f.z.MergeRange(p.Off, p.Depth, p.Color)
			case PixBatch:
				render.MergePixels(f.z, p.Pixels)
			default:
				return fmt.Errorf("isoviz: merge got %T", b.Payload)
			}
		}
	}
	return nil
}

// Finalize implements core.Filter: the merged frame becomes the result
// delivered to the client.
func (f *MergeFilter) Finalize(core.Ctx) error {
	f.final = f.z
	f.z = nil
	return nil
}

// Result returns the image produced by the last completed unit of work.
func (f *MergeFilter) Result() *render.ZBuffer { return f.final }
