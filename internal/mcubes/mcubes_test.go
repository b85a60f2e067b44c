package mcubes

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"datacutter/internal/geom"
	"datacutter/internal/volume"
)

// sphereVolume samples f(p) = r - |p - c| so the isosurface at 0 is a
// sphere of radius r (positive inside).
func sphereVolume(n int, r float32) *volume.Volume {
	v := volume.New(n, n, n)
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				fx, fy, fz := v.PosOf(x, y, z)
				dx, dy, dz := fx-0.5, fy-0.5, fz-0.5
				d := float32(math.Sqrt(float64(dx*dx + dy*dy + dz*dz)))
				v.Set(x, y, z, r-d)
			}
		}
	}
	return v
}

func TestSphereVerticesLieOnSphere(t *testing.T) {
	const n, r = 33, 0.3
	v := sphereVolume(n, r)
	tris, st := Extract(v, 0, nil)
	if st.Triangles == 0 || len(tris) != st.Triangles {
		t.Fatalf("triangles: %d (stats %d)", len(tris), st.Triangles)
	}
	h := 1.0 / float32(n-1) // grid spacing bounds the interpolation error
	for _, tr := range tris {
		for _, p := range tr.P {
			dx, dy, dz := p.X-0.5, p.Y-0.5, p.Z-0.5
			d := float32(math.Sqrt(float64(dx*dx + dy*dy + dz*dz)))
			if math.Abs(float64(d-r)) > float64(h) {
				t.Fatalf("vertex %v at distance %v, want %v +- %v", p, d, r, h)
			}
		}
	}
}

func TestSphereNormalsPointOutward(t *testing.T) {
	v := sphereVolume(25, 0.3)
	tris, _ := Extract(v, 0, nil)
	bad := 0
	for _, tr := range tris {
		for i, p := range tr.P {
			radial := geom.V(p.X-0.5, p.Y-0.5, p.Z-0.5).Normalize()
			if radial.Dot(tr.N[i]) < 0.8 {
				bad++
			}
		}
	}
	if bad > len(tris)/100 {
		t.Fatalf("%d of %d vertex normals deviate from radial", bad, len(tris)*3)
	}
}

type edgeKey struct{ a, b geom.Vec3 }

func canonEdge(a, b geom.Vec3) edgeKey {
	if a.X > b.X || (a.X == b.X && (a.Y > b.Y || (a.Y == b.Y && a.Z > b.Z))) {
		a, b = b, a
	}
	return edgeKey{a, b}
}

func edgeCounts(tris []geom.Triangle) map[edgeKey]int {
	edges := make(map[edgeKey]int)
	for _, tr := range tris {
		edges[canonEdge(tr.P[0], tr.P[1])]++
		edges[canonEdge(tr.P[1], tr.P[2])]++
		edges[canonEdge(tr.P[2], tr.P[0])]++
	}
	return edges
}

func TestSphereSurfaceIsWatertight(t *testing.T) {
	v := sphereVolume(21, 0.28)
	tris, _ := Extract(v, 0, nil)
	for e, n := range edgeCounts(tris) {
		if n != 2 {
			t.Fatalf("edge %v shared by %d triangles, want 2", e, n)
		}
	}
}

func TestSphereEulerCharacteristic(t *testing.T) {
	v := sphereVolume(21, 0.28)
	tris, _ := Extract(v, 0, nil)
	verts := make(map[geom.Vec3]struct{})
	for _, tr := range tris {
		for _, p := range tr.P {
			verts[p] = struct{}{}
		}
	}
	edges := edgeCounts(tris)
	chi := len(verts) - len(edges) + len(tris)
	if chi != 2 {
		t.Fatalf("Euler characteristic = %d, want 2 (sphere)", chi)
	}
}

// Property: extraction from random smooth fields is watertight away from
// the volume boundary — boundary-touching surfaces are open there, so only
// edges strictly inside must pair up.
func TestWatertightInteriorProperty(t *testing.T) {
	f := func(seed int64) bool {
		fld := volume.NewPlumeField(seed, 3)
		v := volume.Rasterize(fld, 17, 17, 17, 0)
		min, max := v.MinMax()
		iso := min + (max-min)*0.55
		tris, _ := Extract(v, iso, nil)
		const eps = 1e-6
		onBoundary := func(p geom.Vec3) bool {
			return p.X < eps || p.X > 1-eps || p.Y < eps || p.Y > 1-eps || p.Z < eps || p.Z > 1-eps
		}
		for e, n := range edgeCounts(tris) {
			if n == 2 {
				continue
			}
			if !(onBoundary(e.a) && onBoundary(e.b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Block-parallel extraction must produce the same triangle positions as
// whole-volume extraction (normals may differ at seams where block-local
// gradients are one-sided).
func TestBlockExtractionSeamless(t *testing.T) {
	fld := volume.NewPlumeField(11, 4)
	full := volume.Rasterize(fld, 25, 21, 19, 1)
	min, max := full.MinMax()
	iso := min + (max-min)*0.5

	wholeTris, wst := Extract(full, iso, nil)

	var blockTris []geom.Triangle
	var bst Stats
	for _, b := range volume.Partition(25, 21, 19, 3, 2, 2) {
		sub := full.ExtractBlock(b)
		var s Stats
		blockTris, s = Extract(sub, iso, blockTris)
		bst.Cells += s.Cells
		bst.ActiveCells += s.ActiveCells
		bst.Triangles += s.Triangles
	}
	if bst.Cells != wst.Cells {
		t.Fatalf("cells: blocks %d vs whole %d", bst.Cells, wst.Cells)
	}
	if len(blockTris) != len(wholeTris) {
		t.Fatalf("triangle count: blocks %d vs whole %d", len(blockTris), len(wholeTris))
	}
	type triKey [9]float32
	key := func(tr geom.Triangle) triKey {
		return triKey{tr.P[0].X, tr.P[0].Y, tr.P[0].Z, tr.P[1].X, tr.P[1].Y, tr.P[1].Z, tr.P[2].X, tr.P[2].Y, tr.P[2].Z}
	}
	seen := make(map[triKey]int)
	for _, tr := range wholeTris {
		seen[key(tr)]++
	}
	for _, tr := range blockTris {
		seen[key(tr)]--
	}
	for k, n := range seen {
		if n != 0 {
			t.Fatalf("triangle multiset mismatch at %v (%+d)", k, n)
		}
	}
}

func TestUniformVolumeYieldsNothing(t *testing.T) {
	v := volume.New(8, 8, 8)
	for i := range v.Data {
		v.Data[i] = 1
	}
	tris, st := Extract(v, 0.5, nil)
	if len(tris) != 0 || st.ActiveCells != 0 {
		t.Fatalf("uniform volume produced %d triangles", len(tris))
	}
	if st.Cells != 7*7*7 {
		t.Fatalf("cells = %d", st.Cells)
	}
}

func TestDegenerateVolumeDims(t *testing.T) {
	v := volume.New(1, 8, 8)
	tris, st := Extract(v, 0.5, nil)
	if len(tris) != 0 || st.Cells != 0 {
		t.Fatal("flat volume should produce nothing")
	}
}

func TestIsoOutsideRangeYieldsNothing(t *testing.T) {
	fld := volume.NewPlumeField(5, 3)
	v := volume.Rasterize(fld, 12, 12, 12, 0)
	_, max := v.MinMax()
	tris, _ := Extract(v, max+1, nil)
	if len(tris) != 0 {
		t.Fatalf("iso above max produced %d triangles", len(tris))
	}
}

func TestStatsConsistency(t *testing.T) {
	fld := volume.NewPlumeField(13, 4)
	v := volume.Rasterize(fld, 20, 20, 20, 0)
	min, max := v.MinMax()
	count := 0
	st := Walk(v, (min+max)/2, func(geom.Triangle) { count++ })
	if st.Triangles != count {
		t.Fatalf("stats %d vs emitted %d", st.Triangles, count)
	}
	if st.ActiveCells > st.Cells || st.ActiveCells == 0 {
		t.Fatalf("active=%d cells=%d", st.ActiveCells, st.Cells)
	}
	if st.Triangles < st.ActiveCells {
		t.Fatalf("active cells must emit at least one triangle each: tris=%d active=%d", st.Triangles, st.ActiveCells)
	}
}

func TestTriangleAreasReasonable(t *testing.T) {
	const n = 25
	v := sphereVolume(n, 0.3)
	tris, _ := Extract(v, 0, nil)
	cell := float32(1.0 / float32(n-1))
	maxArea := cell * cell * 1.5 // a triangle cannot exceed ~a cell face
	total := float32(0)
	for _, tr := range tris {
		a := tr.Area()
		if a > maxArea {
			t.Fatalf("oversized triangle area %v (cell %v)", a, cell)
		}
		total += a
	}
	// Total area should approximate the sphere's 4*pi*r^2.
	want := float32(4 * math.Pi * 0.3 * 0.3)
	if total < want*0.9 || total > want*1.2 {
		t.Fatalf("total area %v, want ~%v", total, want)
	}
}

func TestDeterministicExtraction(t *testing.T) {
	fld := volume.NewPlumeField(21, 4)
	v := volume.Rasterize(fld, 15, 15, 15, 3)
	min, max := v.MinMax()
	iso := (min + max) / 2
	a, _ := Extract(v, iso, nil)
	b, _ := Extract(v, iso, nil)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("triangle %d differs", i)
		}
	}
}

func BenchmarkExtract64(b *testing.B) {
	fld := volume.NewPlumeField(1, 4)
	v := volume.Rasterize(fld, 64, 64, 64, 0)
	min, max := v.MinMax()
	iso := (min + max) / 2
	Walk(v, iso, func(geom.Triangle) {}) // fill the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Walk(v, iso, func(geom.Triangle) {})
	}
}

// denseChunks returns the chunks of the repository's canonical plume
// dataset (seed 2002, five plumes, 129x129x97 in 8x8x6 blocks) at
// timestep 0, the grid the dense-core benchmark workload extracts at iso
// 0.15: many triangles per active cell, unlike BenchmarkExtract64's
// mid-range iso.
func denseChunks() []*volume.Volume {
	fld := volume.NewPlumeField(2002, 5)
	var vs []*volume.Volume
	for _, blk := range volume.Partition(129, 129, 97, 8, 8, 6) {
		v := volume.NewBlockVolume(blk)
		volume.FillBlock(fld, v, 0)
		vs = append(vs, v)
	}
	return vs
}

type extractFunc func(*volume.Volume, float32, []geom.Triangle) ([]geom.Triangle, Stats)

func benchmarkChunks(b *testing.B, extract extractFunc) {
	const iso = 0.15
	vs := denseChunks()
	var out []geom.Triangle
	for _, v := range vs { // size the output slice and the scratch pool
		out, _ = extract(v, iso, out[:0])
	}
	tris := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tris = 0
		for _, v := range vs {
			var st Stats
			out, st = extract(v, iso, out[:0])
			tris += st.Triangles
		}
	}
	b.ReportMetric(float64(tris), "tris/op")
}

func BenchmarkExtractChunks(b *testing.B) { benchmarkChunks(b, Extract) }

// BenchmarkExtractChunksReference runs the same chunks through the
// reference walk, the baseline BenchmarkExtractChunks is measured against.
func BenchmarkExtractChunksReference(b *testing.B) {
	benchmarkChunks(b, func(v *volume.Volume, iso float32, out []geom.Triangle) ([]geom.Triangle, Stats) {
		st := walkReference(v, iso, func(t geom.Triangle) { out = append(out, t) })
		return out, st
	})
}

// walkReference is the cell-by-cell marching-cubes walk Walk replaced:
// every cell classifies its eight corners through Volume.At, every active
// cell recomputes its corners' gradients, and every triangle interpolates
// its own three vertices. It is the oracle Walk must match triangle for
// triangle, bit for bit.
func walkReference(v *volume.Volume, iso float32, emit func(geom.Triangle)) Stats {
	var st Stats
	if v.NX < 2 || v.NY < 2 || v.NZ < 2 {
		return st
	}
	gx := int64(v.Block.GX)
	gxy := gx * int64(v.Block.GY)
	if gx == 0 {
		gx = int64(v.NX)
		gxy = gx * int64(v.NY)
	}

	var cs [8]corner
	for z := 0; z < v.NZ-1; z++ {
		for y := 0; y < v.NY-1; y++ {
			for x := 0; x < v.NX-1; x++ {
				st.Cells++
				// Classify quickly on the 8 corner samples.
				inside := 0
				for c := 0; c < 8; c++ {
					o := cornerOffset[c]
					if v.At(x+o[0], y+o[1], z+o[2]) > iso {
						inside++
					}
				}
				if inside == 0 || inside == 8 {
					continue
				}
				st.ActiveCells++
				for c := 0; c < 8; c++ {
					o := cornerOffset[c]
					cx, cy, cz := x+o[0], y+o[1], z+o[2]
					px, py, pz := v.PosOf(cx, cy, cz)
					cs[c] = corner{
						p:  geom.V(px, py, pz),
						g:  gradientReference(v, cx, cy, cz),
						v:  v.At(cx, cy, cz),
						id: int64(v.Block.X0+cx) + int64(v.Block.Y0+cy)*gx + int64(v.Block.Z0+cz)*gxy,
					}
				}
				for _, t := range tets {
					st.Triangles += tetraReference(cs[t[0]], cs[t[1]], cs[t[2]], cs[t[3]], iso, emit)
				}
			}
		}
	}
	return st
}

func gradientReference(v *volume.Volume, x, y, z int) geom.Vec3 {
	diff := func(get func(int) float32, i, n int) float32 {
		switch {
		case n < 2:
			return 0
		case i == 0:
			return get(1) - get(0)
		case i == n-1:
			return get(n-1) - get(n-2)
		default:
			return (get(i+1) - get(i-1)) / 2
		}
	}
	gxv := diff(func(i int) float32 { return v.At(i, y, z) }, x, v.NX)
	gyv := diff(func(j int) float32 { return v.At(x, j, z) }, y, v.NY)
	gzv := diff(func(k int) float32 { return v.At(x, y, k) }, z, v.NZ)
	return geom.V(gxv, gyv, gzv)
}

func interpReference(a, b corner, iso float32) (geom.Vec3, geom.Vec3) {
	if a.id > b.id {
		a, b = b, a
	}
	d := b.v - a.v
	t := float32(0.5)
	if d != 0 {
		t = (iso - a.v) / d
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	p := geom.Lerp(a.p, b.p, t)
	n := geom.Lerp(a.g, b.g, t).Scale(-1).Normalize()
	return p, n
}

func tetraReference(a, b, c, d corner, iso float32, emit func(geom.Triangle)) int {
	vs := [4]corner{a, b, c, d}
	mask := 0
	for i := 0; i < 4; i++ {
		if vs[i].v > iso {
			mask |= 1 << i
		}
	}
	if mask == 0 || mask == 0xF {
		return 0
	}
	if mask > 7 {
		mask ^= 0xF // complement: same crossing edges
	}
	n := 0
	tri := func(e0a, e0b, e1a, e1b, e2a, e2b int) {
		var t geom.Triangle
		t.P[0], t.N[0] = interpReference(vs[e0a], vs[e0b], iso)
		t.P[1], t.N[1] = interpReference(vs[e1a], vs[e1b], iso)
		t.P[2], t.N[2] = interpReference(vs[e2a], vs[e2b], iso)
		if degenerate(t) {
			return
		}
		emit(t)
		n++
	}
	switch mask {
	case 0x1: // vertex 0 inside
		tri(0, 1, 0, 2, 0, 3)
	case 0x2: // vertex 1 inside
		tri(1, 0, 1, 3, 1, 2)
	case 0x4: // vertex 2 inside
		tri(2, 0, 2, 1, 2, 3)
	case 0x3: // vertices 0,1 inside: quad on edges 02,03,13,12
		tri(0, 2, 0, 3, 1, 3)
		tri(0, 2, 1, 3, 1, 2)
	case 0x5: // vertices 0,2: quad on edges 01,21,23,03
		tri(0, 1, 2, 1, 2, 3)
		tri(0, 1, 2, 3, 0, 3)
	case 0x6: // vertices 1,2: quad on edges 10,20,23,13
		tri(1, 0, 2, 0, 2, 3)
		tri(1, 0, 2, 3, 1, 3)
	case 0x7: // vertices 0,1,2 inside == vertex 3 outside
		tri(3, 0, 3, 2, 3, 1)
	}
	return n
}

func collect(walk func(*volume.Volume, float32, func(geom.Triangle)) Stats, v *volume.Volume, iso float32) ([]geom.Triangle, Stats) {
	var tris []geom.Triangle
	st := walk(v, iso, func(t geom.Triangle) { tris = append(tris, t) })
	return tris, st
}

func sameBits(a, b geom.Vec3) bool {
	return math.Float32bits(a.X) == math.Float32bits(b.X) &&
		math.Float32bits(a.Y) == math.Float32bits(b.Y) &&
		math.Float32bits(a.Z) == math.Float32bits(b.Z)
}

// matchReference reports how Walk's output on v at iso differs from the
// reference walk's: triangle for triangle in order, every float bit for
// bit, and equal Stats. It returns "" when they match.
func matchReference(v *volume.Volume, iso float32) string {
	want, wst := collect(walkReference, v, iso)
	got, gst := collect(Walk, v, iso)
	return diffTris(got, gst, want, wst)
}

func diffTris(got []geom.Triangle, gst Stats, want []geom.Triangle, wst Stats) string {
	if gst != wst {
		return fmt.Sprintf("stats %+v, reference %+v", gst, wst)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d triangles, reference %d", len(got), len(want))
	}
	for i := range got {
		for j := 0; j < 3; j++ {
			if !sameBits(got[i].P[j], want[i].P[j]) || !sameBits(got[i].N[j], want[i].N[j]) {
				return fmt.Sprintf("triangle %d: %v, reference %v", i, got[i], want[i])
			}
		}
	}
	return ""
}

// quantized rounds every sample to a multiple of 1/8, so isovalues on
// that lattice hit samples exactly and drive the degenerate-triangle path.
func quantized(v *volume.Volume) *volume.Volume {
	for i, s := range v.Data {
		v.Data[i] = float32(math.Round(float64(s)*8)) / 8
	}
	return v
}

func TestWalkMatchesReference(t *testing.T) {
	plume := func(seed int64, nx, ny, nz int) *volume.Volume {
		return volume.Rasterize(volume.NewPlumeField(seed, 4), nx, ny, nz, 1)
	}
	type tc struct {
		name string
		vols []*volume.Volume
	}
	blocks := func(v *volume.Volume, bx, by, bz int) []*volume.Volume {
		var out []*volume.Volume
		for _, b := range volume.Partition(v.NX, v.NY, v.NZ, bx, by, bz) {
			out = append(out, v.ExtractBlock(b))
		}
		return out
	}
	// A block cut out of a larger grid but carrying no grid dims: ids and
	// positions fall back to the block's own extent, offset by X0/Y0/Z0.
	noGrid := func(v *volume.Volume) *volume.Volume {
		v.Block.GX, v.Block.GY, v.Block.GZ = 0, 0, 0
		return v
	}
	cases := []tc{
		{"cube", []*volume.Volume{plume(3, 17, 17, 17)}},
		{"non-cubic blocks", blocks(plume(11, 25, 21, 19), 3, 2, 2)},
		{"uneven blocks", blocks(plume(12, 37, 14, 23), 4, 3, 5)},
		{"wide rows", []*volume.Volume{plume(4, 130, 5, 4), plume(4, 65, 6, 3), plume(4, 64, 4, 4), plume(4, 129, 3, 3)}},
		{"wide blocks", blocks(plume(5, 200, 9, 6), 2, 2, 1)},
		{"column spikes", func() []*volume.Volume {
			// One raised sample column at or next to a sign-word boundary:
			// its cells are active only through the neighbouring word.
			var vs []*volume.Volume
			for _, c := range []int{0, 1, 62, 63, 64, 65, 127, 128, 129} {
				for _, hi := range []float32{0, 1} {
					v := volume.New(130, 3, 3)
					for i := range v.Data {
						v.Data[i] = 1 - hi
						if i%v.NX == c {
							v.Data[i] = hi
						}
					}
					vs = append(vs, v)
				}
			}
			return vs
		}()},
		{"two thick x", []*volume.Volume{plume(6, 2, 9, 7)}},
		{"two thick y", []*volume.Volume{plume(6, 9, 2, 7)}},
		{"two thick z", []*volume.Volume{plume(6, 9, 7, 2)}},
		{"two thick blocks", blocks(plume(7, 19, 13, 11), 18, 1, 2)},
		{"quantized", []*volume.Volume{quantized(plume(8, 15, 13, 11))}},
		{"quantized blocks", blocks(quantized(plume(9, 21, 17, 13)), 2, 3, 2)},
		{"GX zero blocks", func() []*volume.Volume {
			bs := blocks(plume(10, 23, 19, 17), 2, 2, 2)
			for _, b := range bs {
				noGrid(b)
			}
			return bs
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for bi, v := range c.vols {
				lo, hi := v.MinMax()
				isos := []float32{lo - 1, lo, (lo + hi) / 2, lo + (hi-lo)*0.2, lo + (hi-lo)*0.8, hi, v.Data[len(v.Data)/3]}
				for q := float32(0); q <= 1; q += 0.125 {
					isos = append(isos, q) // lattice values of the quantized fields
				}
				for _, iso := range isos {
					if d := matchReference(v, iso); d != "" {
						t.Fatalf("volume %d (%v) iso %v: %s", bi, v.Block, iso, d)
					}
				}
			}
		})
	}
}

// The quantized case must actually drop degenerate triangles, or it
// proves nothing about that path.
func TestQuantizedFieldHasDegenerateTriangles(t *testing.T) {
	v := quantized(volume.Rasterize(volume.NewPlumeField(8, 4), 15, 13, 11, 1))
	drops := 0
	for q := float32(0); q <= 1; q += 0.125 {
		candidates := 0
		for z := 0; z < v.NZ-1; z++ {
			for y := 0; y < v.NY-1; y++ {
				for x := 0; x < v.NX-1; x++ {
					mask := 0
					for c, o := range cornerOffset {
						if v.At(x+o[0], y+o[1], z+o[2]) > q {
							mask |= 1 << c
						}
					}
					candidates += len(cubeTris[mask])
				}
			}
		}
		drops += candidates - walkReference(v, q, func(geom.Triangle) {}).Triangles
	}
	if drops == 0 {
		t.Fatal("no degenerate triangles on the quantized field")
	}
}

func FuzzWalkMatchesReference(f *testing.F) {
	f.Add(uint8(9), uint8(7), uint8(5), int64(1), uint16(30000), false)
	f.Add(uint8(2), uint8(11), uint8(3), int64(7), uint16(1000), true)
	f.Add(uint8(66), uint8(3), uint8(2), int64(42), uint16(50000), false)
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, seed int64, frac uint16, quantize bool) {
		dim := func(n uint8) int { return 1 + int(n)%70 }
		v := volume.Rasterize(volume.NewPlumeField(seed, 3), dim(nx), dim(ny)%12+1, dim(nz)%12+1, 0)
		lo, hi := v.MinMax()
		iso := lo + (hi-lo)*float32(frac)/math.MaxUint16
		if quantize {
			quantized(v)
			iso = v.Data[int(frac)%len(v.Data)]
		}
		if d := matchReference(v, iso); d != "" {
			t.Fatalf("%dx%dx%d iso %v: %s", v.NX, v.NY, v.NZ, iso, d)
		}
	})
}

// Walks on many goroutines share the pooled scratch; each must still
// match the reference.
func TestWalkConcurrent(t *testing.T) {
	type job struct {
		v    *volume.Volume
		iso  float32
		want []geom.Triangle
		wst  Stats
	}
	var jobs []job
	for seed := int64(1); seed <= 8; seed++ {
		n := 6 + int(seed)*3
		v := volume.Rasterize(volume.NewPlumeField(seed, 3), n, n-2, n+1, 0)
		lo, hi := v.MinMax()
		iso := lo + (hi-lo)*0.4
		want, wst := collect(walkReference, v, iso)
		jobs = append(jobs, job{v, iso, want, wst})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16*len(jobs))
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				j := jobs[(g+r)%len(jobs)]
				got, gst := collect(Walk, j.v, j.iso)
				if d := diffTris(got, gst, j.want, j.wst); d != "" {
					errs <- d
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for d := range errs {
		t.Fatal(d)
	}
}
