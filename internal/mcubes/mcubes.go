// Package mcubes implements isosurface extraction on rectilinear grids, the
// transformation step of the paper's isosurface rendering application
// (Lorensen & Cline's marching cubes [23]).
//
// Cells are polygonized through the Freudenthal decomposition of each cube
// into six tetrahedra sharing the main diagonal — the standard crack-free
// marching-cubes variant. The decomposition is translation-invariant, so
// neighboring cells (and neighboring *blocks* processed by different
// transparent copies of the extract filter) generate bit-identical vertices
// on their shared faces: block-parallel extraction is seamless, which the
// package's watertightness property tests verify.
//
// Walk sweeps a volume one z slab (two sample planes) at a time. It
// classifies each sample once, rejects cells whose eight corners agree from
// the planes' sign bits, and interpolates each crossing edge once, caching
// corners and edge vertices for the two live planes. Blocks are
// independent, so extraction pipelines buffer by buffer and parallelizes
// across transparent filter copies (paper §3.1.1).
package mcubes

import (
	"math/bits"
	"sync"

	"datacutter/internal/geom"
	"datacutter/internal/volume"
)

// corner is one cell corner with everything interpolation needs. The id is
// the corner's global sample index, used to orient edge interpolation
// deterministically so shared edges produce bit-identical vertices no
// matter which cell or tetrahedron generates them.
type corner struct {
	p  geom.Vec3
	g  geom.Vec3
	v  float32
	id int64
}

// The six tetrahedra of the Freudenthal decomposition, as cube-corner
// indices (corner c = dx + 2*dy + 4*dz). Each is a monotone path
// (0,0,0) -> (1,1,1).
var tets = [6][4]int{
	{0, 1, 3, 7}, // +x +y +z
	{0, 1, 5, 7}, // +x +z +y
	{0, 2, 3, 7}, // +y +x +z
	{0, 2, 6, 7}, // +y +z +x
	{0, 4, 5, 7}, // +z +x +y
	{0, 4, 6, 7}, // +z +y +x
}

var cornerOffset = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
}

// tetCases lists the triangles of one tetrahedron for each inside mask
// with at most three vertices inside (a mask and its complement cross the
// same edges), each vertex as the tetrahedron edge it lies on.
var tetCases = [8][][3][2]int{
	0x1: {{{0, 1}, {0, 2}, {0, 3}}}, // vertex 0 inside
	0x2: {{{1, 0}, {1, 3}, {1, 2}}}, // vertex 1 inside
	0x4: {{{2, 0}, {2, 1}, {2, 3}}}, // vertex 2 inside
	0x3: { // vertices 0,1 inside: quad on edges 02,03,13,12
		{{0, 2}, {0, 3}, {1, 3}},
		{{0, 2}, {1, 3}, {1, 2}},
	},
	0x5: { // vertices 0,2: quad on edges 01,21,23,03
		{{0, 1}, {2, 1}, {2, 3}},
		{{0, 1}, {2, 3}, {0, 3}},
	},
	0x6: { // vertices 1,2: quad on edges 10,20,23,13
		{{1, 0}, {2, 0}, {2, 3}},
		{{1, 0}, {2, 3}, {1, 3}},
	},
	0x7: {{{3, 0}, {3, 2}, {3, 1}}}, // vertices 0,1,2 inside == vertex 3 outside
}

// cubeTris lists, for each cube inside mask (bit c set when corner c >
// iso), the triangles its six tetrahedra emit in emission order. Each
// vertex is an edge code lo<<3 | d: the edge from cube corner lo to corner
// lo+d. Every tetrahedron is a monotone path, so each of its edges joins a
// corner to one whose offset bits are a superset; d = hi^lo is then the
// edge's direction, one of 1..7.
var cubeTris = func() (t [256][][3]uint8) {
	for m := range t {
		for _, tet := range tets {
			tm := 0
			for i, c := range tet {
				tm |= (m >> c & 1) << i
			}
			if tm > 7 {
				tm ^= 0xF
			}
			for _, tri := range tetCases[tm] {
				var e [3]uint8
				for j, pr := range tri {
					a, b := tet[pr[0]], tet[pr[1]]
					if a > b {
						a, b = b, a
					}
					e[j] = uint8(a<<3 | (b ^ a))
				}
				t[m] = append(t[m], e)
			}
		}
	}
	return t
}()

// Stats reports work done by one extraction pass.
type Stats struct {
	Cells       int // marching cells visited
	ActiveCells int // cells intersected by the isosurface
	Triangles   int
}

// Walk extracts the isosurface of v at isovalue iso, invoking emit for
// every triangle. Triangle vertices are in the global normalized
// coordinates of v's block; normals derive from the sampled field's
// gradient and point toward decreasing values. Cells are visited in x, y,
// z order, and each cell's six tetrahedra in the order of tets.
//
// v.Block must either leave GX zero (a whole volume) or give positive GX
// and GY, so that global sample ids grow along every axis.
func Walk(v *volume.Volume, iso float32, emit func(geom.Triangle)) Stats {
	var st Stats
	if v.NX < 2 || v.NY < 2 || v.NZ < 2 {
		return st
	}
	st.Cells = v.Cells()
	s := sweeps.Get().(*sweep)
	s.start(v, iso)
	s.load(s.hi, 0)
	for z := 0; z < v.NZ-1; z++ {
		s.lo, s.hi = s.hi, s.lo
		s.load(s.hi, z+1)
		for y := 0; y < v.NY-1; y++ {
			for k := 0; k < s.words; k++ {
				for m := s.active(y, k); m != 0; m &= m - 1 {
					st.ActiveCells++
					st.Triangles += s.cell(k<<6|bits.TrailingZeros64(m), y, emit)
				}
			}
		}
	}
	s.v = nil // the pool must not keep the volume alive
	sweeps.Put(s)
	return st
}

// Extract appends the isosurface triangles of v at iso to out.
func Extract(v *volume.Volume, iso float32, out []geom.Triangle) ([]geom.Triangle, Stats) {
	st := Walk(v, iso, func(t geom.Triangle) { out = append(out, t) })
	return out, st
}

// sweeps recycles Walk's scratch, so steady-state extraction allocates
// nothing.
var sweeps = sync.Pool{New: func() any { return new(sweep) }}

// sweep is Walk's state: the volume and the two live planes of the slab
// being swept, lo at z and hi at z+1.
type sweep struct {
	v       *volume.Volume
	iso     float32
	nx, nxy int   // local sample strides
	words   int   // sign words per row
	gx, gxy int64 // global sample-id strides
	lo, hi  *plane
	planes  [2]plane
}

// plane caches one z plane of samples, indexed x + y*nx.
type plane struct {
	z      int
	sign   []uint64 // bit x%64 of word y*words + x/64: sample (x,y) > iso
	have   []bool   // corner[i] is computed
	corner []corner
	// edge maps sample*8 + d to 1 + the index in verts of the crossing on
	// the edge from that sample in direction d (0: not interpolated yet).
	// An edge belongs to the plane of its lower sample.
	edge  []int32
	verts []edgeVert
}

// edgeVert is an interpolated crossing and its slot in plane.edge.
type edgeVert struct {
	p, n geom.Vec3
	slot int32
}

func (s *sweep) start(v *volume.Volume, iso float32) {
	s.v, s.iso = v, iso
	s.nx, s.nxy = v.NX, v.NX*v.NY
	s.words = (v.NX + 63) >> 6
	s.gx = int64(v.Block.GX)
	s.gxy = s.gx * int64(v.Block.GY)
	if s.gx == 0 {
		s.gx = int64(v.NX)
		s.gxy = s.gx * int64(v.NY)
	}
	s.lo, s.hi = &s.planes[0], &s.planes[1]
}

// load makes p plane z: it drops p's cached corners and crossings and
// classifies the plane's samples.
func (s *sweep) load(p *plane, z int) {
	for _, e := range p.verts {
		p.edge[e.slot] = 0
	}
	p.verts = p.verts[:0]
	p.z = z
	p.sign = resize(p.sign, s.v.NY*s.words)
	p.have = resize(p.have, s.nxy)
	clear(p.have)
	p.corner = resize(p.corner, s.nxy)
	p.edge = resize(p.edge, 8*s.nxy) // all zero: every set slot is in verts
	data, iso := s.v.Data[z*s.nxy:(z+1)*s.nxy], s.iso
	for y := 0; y < s.v.NY; y++ {
		row := data[y*s.nx : (y+1)*s.nx]
		for k := 0; k < s.words; k++ {
			var w uint64
			for i, val := range row[k<<6 : min(k<<6+64, len(row))] {
				var b uint64
				if val > iso {
					b = 1
				}
				w |= b << i
			}
			p.sign[y*s.words+k] = w
		}
	}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// active returns the cells x = 64k + bit of row y in the current slab whose
// corners do not all agree.
func (s *sweep) active(y, k int) uint64 {
	lo, hi := s.lo.sign, s.hi.sign
	i, j := y*s.words+k, (y+1)*s.words+k
	some := lo[i] | lo[j] | hi[i] | hi[j]
	all := lo[i] & lo[j] & hi[i] & hi[j]
	// Shift the x+1 corners onto bit x, carrying in the next word's bit 0.
	someR, allR := some>>1, all>>1
	if k+1 < s.words {
		someR |= (lo[i+1] | lo[j+1] | hi[i+1] | hi[j+1]) << 63
		allR |= (lo[i+1] & lo[j+1] & hi[i+1] & hi[j+1]) << 63
	}
	m := (some | someR) &^ (all & allR)
	if n := s.nx - 1 - k<<6; n < 64 { // cell x needs sample x+1
		m &= 1<<uint(n) - 1
	}
	return m
}

// cell polygonizes the active cell at (x, y) of the current slab,
// returning the triangle count emitted.
func (s *sweep) cell(x, y int, emit func(geom.Triangle)) int {
	mask := 0
	for c, o := range cornerOffset {
		p := s.lo
		if o[2] != 0 {
			p = s.hi
		}
		xc, yc := x+o[0], y+o[1]
		mask |= int(p.sign[yc*s.words+xc>>6]>>(xc&63)&1) << c
	}
	n := 0
	for _, e := range cubeTris[mask] {
		var t geom.Triangle
		t.P[0], t.N[0] = s.vertex(x, y, e[0])
		t.P[1], t.N[1] = s.vertex(x, y, e[1])
		t.P[2], t.N[2] = s.vertex(x, y, e[2])
		if degenerate(t) {
			continue
		}
		emit(t)
		n++
	}
	return n
}

// vertex returns the crossing on edge code e of cell (x, y), interpolating
// it on first use. Every cell and tetrahedron sharing the edge would
// interpolate the same two corners in the same id order, so the cached
// vertex is the one they would compute.
func (s *sweep) vertex(x, y int, e uint8) (geom.Vec3, geom.Vec3) {
	o := cornerOffset[e>>3]
	ax, ay := x+o[0], y+o[1]
	p := s.lo
	if o[2] != 0 {
		p = s.hi
	}
	slot := (ax+ay*s.nx)<<3 | int(e&7)
	if k := p.edge[slot]; k != 0 {
		ev := &p.verts[k-1]
		return ev.p, ev.n
	}
	d := cornerOffset[e&7]
	q := p
	if d[2] != 0 {
		q = s.hi
	}
	pos, n := interp(*s.corner(p, ax, ay), *s.corner(q, ax+d[0], ay+d[1]), s.iso)
	p.verts = append(p.verts, edgeVert{pos, n, int32(slot)})
	p.edge[slot] = int32(len(p.verts))
	return pos, n
}

// corner returns sample (x, y) of plane p, computing it on first use.
func (s *sweep) corner(p *plane, x, y int) *corner {
	i := x + y*s.nx
	c := &p.corner[i]
	if !p.have[i] {
		p.have[i] = true
		v := s.v
		px, py, pz := v.PosOf(x, y, p.z)
		*c = corner{
			p:  geom.V(px, py, pz),
			g:  s.gradient(x, y, p.z),
			v:  v.Data[i+p.z*s.nxy],
			id: int64(v.Block.X0+x) + int64(v.Block.Y0+y)*s.gx + int64(v.Block.Z0+p.z)*s.gxy,
		}
	}
	return c
}

// gradient computes the sampled field's gradient at a sample point via
// central differences, falling back to one-sided differences at block
// borders. The per-axis step is the grid spacing in normalized coordinates.
func (s *sweep) gradient(x, y, z int) geom.Vec3 {
	d, i := s.v.Data, x+y*s.nx+z*s.nxy
	return geom.V(
		diff(d, i, 1, x, s.v.NX),
		diff(d, i, s.nx, y, s.v.NY),
		diff(d, i, s.nxy, z, s.v.NZ),
	)
}

// diff differentiates d at flat index i along an axis of n >= 2 samples
// with the given stride, where k is i's coordinate on that axis.
func diff(d []float32, i, stride, k, n int) float32 {
	switch k {
	case 0:
		return d[i+stride] - d[i]
	case n - 1:
		return d[i] - d[i-stride]
	}
	return (d[i+stride] - d[i-stride]) / 2
}

// interp returns the isosurface crossing on edge (a,b) with deterministic
// endpoint orientation: the corner with the smaller global sample id is
// always the interpolation origin, so every cell that shares the edge
// produces the identical vertex.
func interp(a, b corner, iso float32) (geom.Vec3, geom.Vec3) {
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

// degenerate reports a zero-area triangle (coincident vertices), which can
// arise when the isovalue grazes a sample exactly.
func degenerate(t geom.Triangle) bool {
	return t.P[0] == t.P[1] || t.P[1] == t.P[2] || t.P[0] == t.P[2]
}
