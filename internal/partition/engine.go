package partition

import (
	"math/bits"
	"slices"

	"bgsched/internal/torus"
)

// Engine answers the partition layer's two occupancy questions from the
// grid's busy bitset (torus.Grid.BusyWords): which partitions of one
// size are free (the fast finder), and how large the maximal free
// partition (MFP) is, now or after a hypothetical placement (the
// placement policies' L_MFP term).
//
// Windows. The window of a shape s is the set of bases whose box of
// shape s is entirely free: a bitset with bit i for node i, in
// Geometry.Index order. It is built by bit-parallel erosion, ANDing the
// free bitset with shifted copies of itself along z, then y, then x; a
// shift is a word shift masked to the in-range coordinates, OR-ed on a
// torus with the part that wraps around. On a torus, a shape spanning a
// whole dimension keeps only base 0 on it, the finders' canonical base.
// A mesh needs no special case: the in-range masks drop every base
// whose box would overflow.
//
// The MFP is the size of the first shape, in size-descending order,
// with a non-empty window; MaxFreeAfter derives the MFP after a
// hypothetical placement from the same windows, exactly.
//
// Windows are built lazily per shape, each from the one a step smaller,
// and kept until the grid's busy words differ from the ones they were
// built for (an exact content compare). The per-geometry masks are
// built when the engine first sees a geometry.
//
// The zero value is ready to use. An Engine is not safe for concurrent
// use.
type Engine struct {
	geom   torus.Geometry
	ready  bool // the tables below belong to geom
	dims   [3]int
	stride [3]int // id distance between neighbours along x, y, z
	coords []torus.Coord
	lt, ge [3][][]uint64 // per axis and shift k: bases with coordinate < dim-k, >= dim-k
	at     [3][][]uint64 // per axis and coordinate c: bases with coordinate c
	order  []torus.Shape // every shape that fits, size-descending, then lexicographic

	busy   []uint64 // busy words the windows were built for
	free   int      // free nodes in busy
	gen    uint64   // bumped whenever busy changes; 0 = never synced
	win    [][]uint64
	winGen []uint64 // generation each window was built at
	mfpIdx int      // index in order of the first shape with a free box
	mfpGen uint64   // generation mfpIdx was computed at

	probe  torus.Partition // the placement MaxFreeAfter is evaluating
	probeN uint64          // MaxFreeAfter calls so far
	miss   [3][][]uint64   // per axis and extent: bases missing probe along the axis
	missN  [3][]uint64     // probeN each miss mask was built for
}

// setGeometry builds the per-geometry tables and drops every window.
func (e *Engine) setGeometry(g torus.Geometry) {
	d := g.Dims
	n := g.N()
	words := (n + 63) / 64
	*e = Engine{
		geom:   g,
		ready:  true,
		dims:   [3]int{d.X, d.Y, d.Z},
		stride: [3]int{d.Y * d.Z, d.Z, 1},
		coords: make([]torus.Coord, n),
		busy:   make([]uint64, words),
		win:    make([][]uint64, n),
		winGen: make([]uint64, n),
	}
	// Every mask is carved from one backing array.
	slab := make([]uint64, 4*(d.X+d.Y+d.Z)*words)
	next := func() []uint64 {
		m := slab[:words:words]
		slab = slab[words:]
		return m
	}
	for a, dim := range e.dims {
		e.at[a] = make([][]uint64, dim)
		e.lt[a] = make([][]uint64, dim)
		e.ge[a] = make([][]uint64, dim)
		e.miss[a] = make([][]uint64, dim)
		e.missN[a] = make([]uint64, dim)
		for c := range e.at[a] {
			e.at[a][c] = next()
			e.miss[a][c] = next()
			if c > 0 {
				e.lt[a][c], e.ge[a][c] = next(), next()
			}
		}
	}
	for id := range e.coords {
		c := g.CoordOf(id)
		e.coords[id] = c
		for a, v := range [3]int{c.X, c.Y, c.Z} {
			e.at[a][v][id>>6] |= 1 << uint(id&63)
		}
	}
	for a, dim := range e.dims {
		for k := 1; k < dim; k++ {
			for c, bits := range e.at[a] {
				m := e.ge[a][k]
				if c < dim-k {
					m = e.lt[a][k]
				}
				for w := range m {
					m[w] |= bits[w]
				}
			}
		}
	}
	// order is a counting sort by size, descending, of the shapes in
	// lexicographic order: slot[size] is the next index for that size.
	slot := make([]int, n+1)
	eachShape := func(fn func(s torus.Shape)) {
		for x := 1; x <= d.X; x++ {
			for y := 1; y <= d.Y; y++ {
				for z := 1; z <= d.Z; z++ {
					fn(torus.Shape{X: x, Y: y, Z: z})
				}
			}
		}
	}
	eachShape(func(s torus.Shape) { slot[s.Size()]++ })
	for size, i := n, 0; size >= 1; size-- {
		slot[size], i = i, i+slot[size]
	}
	e.order = make([]torus.Shape, n)
	eachShape(func(s torus.Shape) {
		e.order[slot[s.Size()]] = s
		slot[s.Size()]++
	})
}

// sync points the engine at gr's occupancy, dropping every window when
// the busy words changed since the last call.
func (e *Engine) sync(gr *torus.Grid) {
	if g := gr.Geometry(); !e.ready || g != e.geom {
		e.setGeometry(g)
	}
	busy := gr.BusyWords()
	if e.gen != 0 && slices.Equal(busy, e.busy) {
		return
	}
	copy(e.busy, busy)
	e.free = gr.FreeCount()
	e.gen++
}

// window returns the window of shape s for the synced occupancy,
// building it (and the smaller windows it derives from) on first use.
func (e *Engine) window(s torus.Shape) []uint64 {
	i := ((s.X-1)*e.dims[1]+s.Y-1)*e.dims[2] + s.Z - 1
	if e.winGen[i] == e.gen {
		return e.win[i]
	}
	w := e.win[i]
	if w == nil {
		w = make([]uint64, len(e.busy))
		e.win[i] = w
	}
	switch {
	case s.X > 1:
		e.erode(w, e.window(torus.Shape{X: s.X - 1, Y: s.Y, Z: s.Z}), e.window(torus.Shape{X: 1, Y: s.Y, Z: s.Z}), 0, s.X-1)
	case s.Y > 1:
		e.erode(w, e.window(torus.Shape{X: 1, Y: s.Y - 1, Z: s.Z}), e.window(torus.Shape{X: 1, Y: 1, Z: s.Z}), 1, s.Y-1)
	case s.Z > 1:
		e.erode(w, e.window(torus.Shape{X: 1, Y: 1, Z: s.Z - 1}), e.window(torus.Shape{X: 1, Y: 1, Z: 1}), 2, s.Z-1)
	default:
		for k, b := range e.busy {
			w[k] = ^b
		}
		if tail := len(e.coords) & 63; tail != 0 {
			w[len(w)-1] &= 1<<uint(tail) - 1
		}
	}
	e.winGen[i] = e.gen
	return w
}

// erode sets dst = prev AND (src shifted by k along axis): a base keeps
// its bit when its box one step shorter (prev) is free and so is the
// unit-thick slab k steps further along the axis (src at the shifted
// base). A step that completes a full span on a torus keeps base 0
// only.
func (e *Engine) erode(dst, prev, src []uint64, axis, k int) {
	dim := e.dims[axis]
	in := k * e.stride[axis]
	wrap := (dim - k) * e.stride[axis]
	lt, ge := e.lt[axis][k], e.ge[axis][k]
	for w := range dst {
		v := shiftDown(src, in, w) & lt[w]
		if e.geom.Wrap {
			v |= shiftUp(src, wrap, w) & ge[w]
		}
		dst[w] = prev[w] & v
	}
	if e.geom.Wrap && k+1 == dim {
		for w, m := range e.at[axis][0] {
			dst[w] &= m
		}
	}
}

// shiftDown returns word w of src shifted toward bit 0 by n bits: bit b
// of the result is bit b+n of src.
func shiftDown(src []uint64, n, w int) uint64 {
	i, r := w+n>>6, uint(n&63)
	if i >= len(src) {
		return 0
	}
	v := src[i] >> r
	if r != 0 && i+1 < len(src) {
		v |= src[i+1] << (64 - r)
	}
	return v
}

// shiftUp returns word w of src shifted away from bit 0 by n bits: bit
// b of the result is bit b-n of src.
func shiftUp(src []uint64, n, w int) uint64 {
	i, r := w-n>>6, uint(n&63)
	if i < 0 {
		return 0
	}
	v := src[i] << r
	if r != 0 && i > 0 {
		v |= src[i-1] >> (64 - r)
	}
	return v
}

// appendFree appends every free partition of exactly size nodes to out
// in the finders' canonical order, and reports how many shapes of that
// size fit the machine. Shapes come in lexicographic order (as
// Geometry.ShapesOf lists them) and each window's bits in ascending
// node id, which is lexicographic base order, so no sort is needed.
func (e *Engine) appendFree(gr *torus.Grid, size int, out []torus.Partition) ([]torus.Partition, int) {
	e.sync(gr)
	shapes := 0
	for x := 1; x <= e.dims[0]; x++ {
		if size%x != 0 {
			continue
		}
		rest := size / x
		for y := 1; y <= e.dims[1]; y++ {
			z := rest / y
			if rest%y != 0 || z < 1 || z > e.dims[2] {
				continue
			}
			shapes++
			if size > e.free {
				continue
			}
			s := torus.Shape{X: x, Y: y, Z: z}
			for w, word := range e.window(s) {
				for ; word != 0; word &= word - 1 {
					id := w<<6 | bits.TrailingZeros64(word)
					out = append(out, torus.Partition{Base: e.coords[id], Shape: s})
				}
			}
		}
	}
	return out, shapes
}

// firstFree returns the index in e.order of the first shape with a
// free box (len(e.order) when the machine is full).
func (e *Engine) firstFree() int {
	if e.mfpGen == e.gen {
		return e.mfpIdx
	}
	i := 0
	for ; i < len(e.order); i++ {
		if s := e.order[i]; s.Size() <= e.free && anyBit(e.window(s)) {
			break
		}
	}
	e.mfpIdx, e.mfpGen = i, e.gen
	return i
}

// MaxFree returns a maximal free partition of gr, and its size (0 when
// the machine is full).
func (e *Engine) MaxFree(gr *torus.Grid) (torus.Partition, int) {
	e.sync(gr)
	i := e.firstFree()
	if i == len(e.order) {
		return torus.Partition{}, 0
	}
	s := e.order[i]
	w := e.window(s)
	k := 0
	for w[k] == 0 {
		k++
	}
	return torus.Partition{Base: e.coords[k<<6|bits.TrailingZeros64(w[k])], Shape: s}, s.Size()
}

// MaxFreeAfter returns the MFP size of gr as it would be with p
// allocated, without touching gr. p must be a valid partition of free
// nodes; the answer is exact, equal to allocating p, calling MaxFree
// and releasing p.
//
// A box is free after the placement iff it was free before and misses
// p. The bases of shape s whose box meets p form one cyclic box (on
// each axis: start p.Base-s+1, length p.Shape+s-1), so a base of the
// window misses p iff on some axis its coordinate lies outside that
// axis's interval. On a mesh the wrapped part of an interval holds
// only bases a mesh window never contains, so the cyclic test is exact
// there too.
func (e *Engine) MaxFreeAfter(gr *torus.Grid, p torus.Partition) int {
	e.sync(gr)
	e.probe = p
	e.probeN++
	left := e.free - p.Size() // free nodes after the placement
	for i := e.firstFree(); i < len(e.order); i++ {
		s := e.order[i]
		if s.Size() > left {
			continue
		}
		w := e.window(s)
		if intersects(w, e.misses(0, s.X)) || intersects(w, e.misses(1, s.Y)) || intersects(w, e.misses(2, s.Z)) {
			return s.Size()
		}
	}
	return 0
}

// misses returns the bases whose coordinate on axis lies outside the
// hit interval of extent ext around the current probe: the bases whose
// box of that extent misses the probe along this axis. Each mask is
// built once per MaxFreeAfter call, when first needed.
func (e *Engine) misses(axis, ext int) []uint64 {
	m := e.miss[axis][ext-1]
	if e.missN[axis][ext-1] == e.probeN {
		return m
	}
	e.missN[axis][ext-1] = e.probeN
	dim := e.dims[axis]
	pb := [3]int{e.probe.Base.X, e.probe.Base.Y, e.probe.Base.Z}[axis]
	ps := [3]int{e.probe.Shape.X, e.probe.Shape.Y, e.probe.Shape.Z}[axis]
	clear(m)
	start := pb - ext + 1 + dim
	for d := ps + ext - 1; d < dim; d++ {
		for w, bits := range e.at[axis][(start+d)%dim] {
			m[w] |= bits
		}
	}
	return m
}

// intersects reports whether w and m share a set bit.
func intersects(w, m []uint64) bool {
	for i, word := range w {
		if word&m[i] != 0 {
			return true
		}
	}
	return false
}

// anyBit reports whether any bit of w is set.
func anyBit(w []uint64) bool {
	for _, word := range w {
		if word != 0 {
			return true
		}
	}
	return false
}
