package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"time"

	"datacutter/internal/core"
	"datacutter/internal/dataset"
	"datacutter/internal/dist"
	"datacutter/internal/geom"
	"datacutter/internal/isoviz"
	"datacutter/internal/mcubes"
	"datacutter/internal/obs"
	"datacutter/internal/render"
)

// renderSpec describes a rendering workload: the stored dataset, the views
// and the engine configuration that renders them.
type renderSpec struct {
	Name   string
	Engine string // "core" (one process, goroutine copies) or "dist" (two workers over TCP loopback)
	Meta   dataset.Meta
	Iso    float32
	Size   int // frame width and height in pixels
	Alg    isoviz.Algorithm
	// RE and Ra are copy counts: on the single host for core, on each of
	// the two hosts for dist. M always runs one copy.
	RE, Ra int
}

// plumeMeta is the stored dataset every rendering workload reads: the
// datagen default grid and chunking over four timesteps in eight files.
// The field is the repository's canonical plume field (seed 2002, five
// plumes), fixed rather than drawn from the benchmark seed: across field
// seeds 1-10 the isosurface's triangle count varies 1.5x at iso 0.15 and
// 4.5x at iso 0.9 (isoviz.Workload estimate, timestep 0), so runs with
// different seeds would measure different amounts of work. The seed
// drives the view stream instead (see views).
var plumeMeta = dataset.Meta{
	GX: 129, GY: 129, GZ: 97, BX: 8, BY: 8, BZ: 6,
	Timesteps: 4, Files: 8, Seed: 2002, Plumes: 5,
}

// The plume field is background ~0.05 with Gaussian peaks around 0.6-1.1:
// 0.15 cuts a large surface through every plume's skirt, 0.9 only tight
// caps around the strongest peaks, so pushdown prunes most chunks.
const (
	denseIso  = 0.15
	sparseIso = 0.9
)

// maxAzimuth bounds the seeded camera orbit around the volume's vertical
// axis, in degrees either side of the default three-quarter view.
const maxAzimuth = 15

// views returns one view per stored timestep, each from a camera orbited
// by a seeded azimuth: a user stepping through time while turning the
// volume a little.
func (s renderSpec) views(seed int64) []isoviz.View {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]isoviz.View, s.Meta.Timesteps)
	for t := range vs {
		az := (2*rng.Float64() - 1) * maxAzimuth * math.Pi / 180
		vs[t] = isoviz.View{Timestep: t, Iso: s.Iso, Width: s.Size, Height: s.Size, Camera: orbit(geom.DefaultCamera(), az)}
	}
	return vs
}

// orbit turns the camera's eye about the vertical axis through its center.
func orbit(c geom.Camera, rad float64) geom.Camera {
	d := c.Eye.Sub(c.Center)
	sin, cos := math.Sincos(rad)
	c.Eye = c.Center.Add(geom.V(
		float32(cos*float64(d.X)+sin*float64(d.Z)),
		d.Y,
		float32(-sin*float64(d.X)+cos*float64(d.Z)),
	))
	return c
}

// renderBench is a set-up rendering workload.
type renderBench struct {
	spec  renderSpec
	dir   string
	views []isoviz.View
	want  []string // reference image hash per view
	seed  int64

	st *dataset.Store // core: the engine's store, opened once

	// core
	graph *core.Graph
	place *core.Placement

	// dist
	workers   []*dist.Worker // node0, node1 (the traced pair replaces them)
	addrs     map[string]string
	gspec     dist.GraphSpec
	placement []dist.PlacementEntry

	// traced mode
	p       *probe
	oracle  *dataset.Store // the replay's own store, never observed by the engine
	stats   []*core.Stats
	walls   []float64 // op latency, seconds
	work    replayWork
	crcBuf  []byte
	scratch []geom.Triangle
}

// replayWork sums the serial replay's work counts over traced ops.
type replayWork struct {
	chunks, bytes       int64
	cells, active, tris int64
	activePixels        int64
}

func (s renderSpec) setup(dir string, seed int64) (instance, error) {
	st, err := dataset.Create(dir, s.Meta)
	if err != nil {
		return nil, err
	}
	b := &renderBench{spec: s, dir: dir, views: s.views(seed), seed: seed}
	if s.Engine == "core" {
		b.st = st
		src := &isoviz.StoreSource{St: st}
		b.graph = isoviz.PipelineSpec{
			Config: isoviz.ReadExtract, Alg: s.Alg, Source: src,
			Assign: isoviz.AssignByCopy(src.Chunks()), Pushdown: true,
		}.Build()
		b.place = core.NewPlacement().
			Place("RE", "local", s.RE).
			Place("Ra", "local", s.Ra).
			Place("M", "local", 1)
		return b, nil
	}
	// dist: the workers open the store themselves, per session.
	if err := st.Close(); err != nil {
		return nil, err
	}
	b.gspec, err = isoviz.DistGraphStore(isoviz.StoreREParams{Dir: dir, Pushdown: true}, s.Alg)
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"node0", "node1"} {
		b.placement = append(b.placement,
			dist.PlacementEntry{Filter: "RE", Host: h, Copies: s.RE},
			dist.PlacementEntry{Filter: "Ra", Host: h, Copies: s.Ra})
	}
	b.placement = append(b.placement, dist.PlacementEntry{Filter: "M", Host: "node1", Copies: 1})
	if err := b.startWorkers(nil); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// startWorkers starts the two in-process workers, with o attached (a
// worker's observer must be set before it serves).
func (b *renderBench) startWorkers(o *obs.Observer) error {
	for _, w := range b.workers {
		w.Close()
	}
	b.workers = nil
	b.addrs = map[string]string{}
	for _, h := range []string{"node0", "node1"} {
		w, err := dist.NewWorker("127.0.0.1:0")
		if err != nil {
			return err
		}
		if o != nil {
			w.SetObserver(o)
		}
		go w.Serve()
		b.workers = append(b.workers, w)
		b.addrs[h] = w.Addr()
	}
	return nil
}

func (b *renderBench) kinds() int { return len(b.views) }

func (b *renderBench) close() {
	for _, w := range b.workers {
		w.Close()
	}
	b.workers = nil
	if b.st != nil {
		b.st.Close()
	}
	if b.oracle != nil {
		b.oracle.Close()
	}
}

// prepare replays every view serially and, for the default seed, checks
// the replay against the committed golden hashes.
func (b *renderBench) prepare() error {
	st, err := dataset.Open(b.dir)
	if err != nil {
		return err
	}
	b.oracle = st
	b.want = make([]string, len(b.views))
	for k, v := range b.views {
		z, err := b.replay(v, nil)
		if err != nil {
			return err
		}
		b.want[k] = b.hash(z)
	}
	if b.seed != defaultSeed {
		return nil
	}
	golden, ok := goldenHashes()[b.spec.Name]
	if !ok {
		return nil // a workload variant without golden hashes (tests)
	}
	for k := range b.want {
		if k >= len(golden) || golden[k] != b.want[k] {
			return fmt.Errorf("view %d: replay hash %s differs from golden %v", k, b.want[k], golden)
		}
	}
	return nil
}

// replay renders a view serially through the layers' public functions:
// Store.Prune and ReadChunk, mcubes.Walk, Raster.DrawAll into one ZBuffer.
// Active Pixel and Z-buffer merging are bit-identical to this by design, so
// the engine's merged frame must hash-equal it. With a non-nil probe each
// layer call is a span and the work counts accumulate.
func (b *renderBench) replay(v isoviz.View, p *probe) (*render.ZBuffer, error) {
	var tr *tracer
	if p != nil {
		tr = p.tr
	}
	root := tr.begin("oracle", "replay")
	defer tr.end(root)
	all := make([]int, b.oracle.DS.Chunks())
	for i := range all {
		all[i] = i
	}
	sp := tr.begin("dataset", "Store.Prune")
	kept := b.oracle.Prune(all, v.Timestep, dataset.IsoPredicate(v.Iso))
	tr.end(sp)
	z := render.NewZBuffer(v.Width, v.Height)
	rr := render.NewRaster(v.Camera, v.Width, v.Height)
	w := &replayWork{} // counted only when traced
	if p != nil {
		w = &b.work
	}
	for _, c := range kept {
		sp := tr.begin("dataset", "Store.ReadChunk")
		vol, err := b.oracle.ReadChunk(c, v.Timestep)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		w.chunks++
		w.bytes += int64(vol.Bytes())
		tris := b.scratch[:0]
		sp = tr.begin("mcubes", "mcubes.Walk")
		ms := mcubes.Walk(vol, v.Iso, func(t geom.Triangle) { tris = append(tris, t) })
		tr.end(sp)
		b.scratch = tris
		w.cells += int64(ms.Cells)
		w.active += int64(ms.ActiveCells)
		w.tris += int64(ms.Triangles)
		sp = tr.begin("render", "Raster.DrawAll")
		rr.DrawAll(tris, z)
		tr.end(sp)
	}
	if p != nil {
		w.activePixels += int64(z.ActiveCount())
	}
	return z, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hash fingerprints a frame's depth and colour planes (CRC-32C of each,
// streamed through a small reused buffer).
func (b *renderBench) hash(z *render.ZBuffer) string {
	const step = 16 << 10
	if b.crcBuf == nil {
		b.crcBuf = make([]byte, 4*step)
	}
	var hd, hc uint32
	for off := 0; off < len(z.Depth); off += step {
		end := min(off+step, len(z.Depth))
		buf := b.crcBuf[:0]
		for _, d := range z.Depth[off:end] {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(d))
		}
		hd = crc32.Update(hd, castagnoli, buf)
		buf = buf[:0]
		for _, c := range z.Color[off:end] {
			buf = append(buf, c.R, c.G, c.B)
		}
		hc = crc32.Update(hc, castagnoli, buf)
	}
	return fmt.Sprintf("%dx%d-%08x-%08x", z.W, z.H, hd, hc)
}

// op renders view k through the engine and checks the merged frame against
// the serial replay.
func (b *renderBench) op(k int) (time.Duration, error) {
	v := b.views[k]
	var tr *tracer
	if b.p != nil {
		tr = b.p.tr
		tr.startOp()
	}
	root := tr.begin("op", fmt.Sprintf("view t=%d", v.Timestep))
	t0 := time.Now()
	var (
		z     *render.ZBuffer
		stats *core.Stats
		err   error
	)
	if b.spec.Engine == "core" {
		z, stats, err = b.renderCore(v, tr)
	} else {
		z, stats, err = b.renderDist(v, tr)
	}
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		return d, fmt.Errorf("view %d: %w", k, err)
	}
	if got := b.hash(z); got != b.want[k] {
		return d, fmt.Errorf("view %d: engine image %s, serial replay %s", k, got, b.want[k])
	}
	if b.p != nil {
		b.stats = append(b.stats, stats)
		b.walls = append(b.walls, d.Seconds())
		if _, err := b.replay(v, b.p); err != nil {
			return d, err
		}
	}
	return d, nil
}

func (b *renderBench) renderCore(v isoviz.View, tr *tracer) (*render.ZBuffer, *core.Stats, error) {
	sp := tr.begin("core", "Runner.Run")
	defer tr.end(sp)
	opts := core.Options{Policy: core.PolicyByName("DD"), UOWs: []any{v}}
	if b.p != nil {
		opts.Obs = b.p.o
	}
	r, err := core.NewRunner(b.graph, b.place, opts)
	if err != nil {
		return nil, nil, err
	}
	stats, err := r.Run()
	if err != nil {
		return nil, nil, err
	}
	m, err := isoviz.MergeResult(r.Instances("M"))
	if err != nil {
		return nil, nil, err
	}
	return m.Result(), stats, nil
}

func (b *renderBench) renderDist(v isoviz.View, tr *tracer) (*render.ZBuffer, *core.Stats, error) {
	sp := tr.begin("dist", "RunObserved")
	defer tr.end(sp)
	var o *obs.Observer
	if b.p != nil {
		o = b.p.o
	}
	stats, err := dist.RunObserved(b.addrs, b.gspec, b.placement, dist.Options{Policy: "DD"}, []any{v}, o)
	if err != nil {
		return nil, nil, err
	}
	// node1 (workers[1]) runs the merge copy and holds the final frame.
	m, err := isoviz.MergeResult(b.workers[1].Instances("M"))
	if err != nil {
		return nil, nil, err
	}
	return m.Result(), stats, nil
}

func (b *renderBench) observe(p *probe) error {
	b.p = p
	if b.spec.Engine == "dist" {
		return b.startWorkers(p.o)
	}
	return nil
}

// profile turns the traced ops into per-layer metrics, each a mean per
// view. Metrics of layers this workload does not run stay 0.
func (b *renderBench) profile(ops int) map[string]metric {
	m := zeroLayers()
	n := float64(ops)
	self := b.p.tr.selfTimes()
	ms := func(layer string) float64 { return float64(self[layer]) / 1e6 / n }
	reg := b.p.reg
	w := b.work

	// The replay's spans and counts: the layers run serially.
	set(m, "dataset.read_ms", b.p.tr.nameMS("Store.ReadChunk", ops))
	set(m, "dataset.prune_ms", b.p.tr.nameMS("Store.Prune", ops))
	set(m, "dataset.bytes_read", float64(w.bytes)/n)
	set(m, "dataset.chunks_read", float64(w.chunks)/n)
	// The engine's own pruning counter, summed over its read copies.
	pruned := float64(reg.Counter("dataset.chunks_pruned").Value()) / n
	set(m, "dataset.chunks_pruned", pruned)
	set(m, "dataset.prune_ratio", pruned/float64(b.spec.Meta.BX*b.spec.Meta.BY*b.spec.Meta.BZ))
	set(m, "mcubes.extract_ms", ms("mcubes"))
	if w.cells > 0 {
		set(m, "mcubes.ns_per_cell", float64(self["mcubes"])/float64(w.cells))
		set(m, "mcubes.active_ratio", float64(w.active)/float64(w.cells))
	}
	set(m, "mcubes.cells", float64(w.cells)/n)
	set(m, "mcubes.triangles", float64(w.tris)/n)
	set(m, "render.raster_ms", ms("render"))
	set(m, "render.active_pixels", float64(w.activePixels)/n)

	// The engine's stats, one core.Stats per view.
	for _, f := range []string{"RE", "Ra", "M"} {
		var busy, rstall, wstall, util float64
		for i, st := range b.stats {
			fs := st.Filters[f]
			_, bu, _ := core.MinAvgMax(fs.BusySeconds)
			_, rs, _ := core.MinAvgMax(fs.ReadBlockedSeconds)
			_, ws, _ := core.MinAvgMax(fs.WriteBlockedSeconds)
			busy += bu
			rstall += rs
			wstall += ws
			util += bu / b.walls[i]
		}
		set(m, "core."+f+".busy_ms", 1e3*busy/n)
		set(m, "core."+f+".read_stall_ms", 1e3*rstall/n)
		set(m, "core."+f+".write_stall_ms", 1e3*wstall/n)
		set(m, "core."+f+".util", util/n)
	}
	set(m, "render.merge_ms", m["core.M.busy_ms"].Value)
	for _, s := range []string{isoviz.StreamTriangles, isoviz.StreamPixels} {
		var bufs, bytes, acks int64
		for _, st := range b.stats {
			ss := st.Streams[s]
			bufs += ss.Buffers
			bytes += ss.Bytes
			acks += ss.Acks
		}
		set(m, "core.stream."+s+".buffers", float64(bufs)/n)
		set(m, "core.stream."+s+".mb", float64(bytes)/1e6/n)
		if bufs > 0 {
			set(m, "exec."+s+".acks_per_buffer", float64(acks)/float64(bufs))
		}
	}
	set(m, "exec.triangles.remote_share", b.p.picks.remoteShare(isoviz.StreamTriangles))

	if b.spec.Engine == "dist" {
		var session float64
		for i, st := range b.stats {
			uow := 0.0
			for _, s := range st.PerUOWSeconds {
				uow += s
			}
			session += b.walls[i] - uow
		}
		set(m, "dist.session_ms", 1e3*session/n)
		set(m, "dist.tx.mb", float64(reg.Counter("dist.tx.data_bytes").Value())/1e6/n)
		set(m, "dist.tx.frames", float64(reg.Counter("dist.tx.data_frames").Value())/n)
		if h := reg.Histogram("dist.tx.frames_per_flush"); h.Count() > 0 {
			set(m, "dist.tx.frames_per_flush", h.Sum()/float64(h.Count()))
		}
		set(m, "dist.rx.ack_frames", float64(reg.Counter("dist.rx.ack_frames").Value())/n)
	}
	return m
}

// renderSpecs are the three rendering workloads; all read one dataset shape.
var renderSpecs = []renderSpec{
	{Name: "dense-core", Engine: "core", Meta: plumeMeta, Iso: denseIso, Size: 512, Alg: isoviz.ActivePixel, RE: 2, Ra: 2},
	{Name: "frame-core", Engine: "core", Meta: plumeMeta, Iso: sparseIso, Size: 2048, Alg: isoviz.ZBuffer, RE: 1, Ra: 2},
	{Name: "sparse-dist", Engine: "dist", Meta: plumeMeta, Iso: sparseIso, Size: 256, Alg: isoviz.ActivePixel, RE: 1, Ra: 1},
}
