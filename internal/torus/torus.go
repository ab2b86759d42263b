// Package torus models the three-dimensional torus of BlueGene/L
// supernodes: coordinates, wraparound arithmetic, rectangular partitions,
// and the occupancy grid the scheduler allocates from.
//
// Following the paper (Section 3.1), the machine seen by the job
// scheduler is a 4x4x8 torus of supernodes, each supernode being an
// 8x8x8 block of 512 compute nodes. Throughout this repository "node"
// means a supernode unless explicitly stated otherwise.
package torus

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Coord is a node coordinate in the torus.
type Coord struct {
	X, Y, Z int
}

// String returns the coordinate as "(x,y,z)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d,%d)", c.X, c.Y, c.Z) }

// Shape is the extent of a rectangular partition along each dimension.
// All extents are at least 1 for a valid shape.
type Shape struct {
	X, Y, Z int
}

// Size returns the number of nodes covered by the shape.
func (s Shape) Size() int { return s.X * s.Y * s.Z }

// String returns the shape as "XxYxZ".
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.X, s.Y, s.Z) }

// Positive reports whether every extent is at least 1.
func (s Shape) Positive() bool { return s.X >= 1 && s.Y >= 1 && s.Z >= 1 }

// FitsIn reports whether the shape fits inside dims without rotation.
func (s Shape) FitsIn(dims Shape) bool {
	return s.X <= dims.X && s.Y <= dims.Y && s.Z <= dims.Z
}

// Geometry describes a torus: its dimensions and whether partitions may
// wrap around the edges. BG/L is a torus, so Wrap is normally true; a
// mesh (Wrap=false) is supported for ablation studies.
type Geometry struct {
	Dims Shape
	Wrap bool
}

// NewGeometry returns the geometry of an x*y*z machine.
// It panics if any dimension is not positive: geometry is fixed program
// configuration, not runtime input.
func NewGeometry(x, y, z int, wrap bool) Geometry {
	if x < 1 || y < 1 || z < 1 {
		panic(fmt.Sprintf("torus: invalid geometry %dx%dx%d", x, y, z))
	}
	return Geometry{Dims: Shape{x, y, z}, Wrap: wrap}
}

// BlueGeneL returns the 4x4x8 supernode torus used throughout the paper.
func BlueGeneL() Geometry { return NewGeometry(4, 4, 8, true) }

// MaxNodes caps the node count of a parsed geometry: 16x the 64x32x32
// compute machine of a full BlueGene/L. Past it the simulator's
// per-node arrays are out of reach, and an X*Y*Z product could
// overflow int.
const MaxNodes = 1 << 20

// Parse builds a geometry from a spec like "4x4x8" (torus) or
// "4x4x8/mesh". It is the format the command-line tools accept; a
// geometry of more than MaxNodes nodes is refused.
func Parse(spec string) (Geometry, error) {
	wrap := true
	if i := strings.IndexByte(spec, '/'); i >= 0 {
		switch spec[i+1:] {
		case "mesh":
			wrap = false
		case "torus":
		default:
			return Geometry{}, fmt.Errorf("torus: bad topology %q (want torus or mesh)", spec[i+1:])
		}
		spec = spec[:i]
	}
	parts := strings.Split(spec, "x")
	if len(parts) != 3 {
		return Geometry{}, fmt.Errorf("torus: bad geometry %q (want XxYxZ)", spec)
	}
	dims := make([]int, 3)
	nodes := 1
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return Geometry{}, fmt.Errorf("torus: bad dimension %q in %q", p, spec)
		}
		// nodes*v > MaxNodes, tested by division so it cannot overflow.
		if v > MaxNodes/nodes {
			return Geometry{}, fmt.Errorf("torus: geometry %q exceeds the %d-node cap", spec, MaxNodes)
		}
		nodes *= v
		dims[i] = v
	}
	return NewGeometry(dims[0], dims[1], dims[2], wrap), nil
}

// Spec renders the geometry in the format Parse accepts.
func (g Geometry) Spec() string {
	topo := "torus"
	if !g.Wrap {
		topo = "mesh"
	}
	return fmt.Sprintf("%dx%dx%d/%s", g.Dims.X, g.Dims.Y, g.Dims.Z, topo)
}

// N returns the total number of nodes in the machine.
func (g Geometry) N() int { return g.Dims.Size() }

// Contains reports whether c is a canonical coordinate of the machine
// (each component within [0, dim)).
func (g Geometry) Contains(c Coord) bool {
	return c.X >= 0 && c.X < g.Dims.X &&
		c.Y >= 0 && c.Y < g.Dims.Y &&
		c.Z >= 0 && c.Z < g.Dims.Z
}

// Index maps a canonical coordinate to a dense node id in [0, N).
// Ids are assigned x-major: id = (x*DimsY + y)*DimsZ + z.
func (g Geometry) Index(c Coord) int {
	return (c.X*g.Dims.Y+c.Y)*g.Dims.Z + c.Z
}

// CoordOf is the inverse of Index.
func (g Geometry) CoordOf(id int) Coord {
	z := id % g.Dims.Z
	rest := id / g.Dims.Z
	y := rest % g.Dims.Y
	x := rest / g.Dims.Y
	return Coord{x, y, z}
}

// Normalize wraps a coordinate into canonical range. With Wrap=false it
// returns ok=false for out-of-range coordinates.
func (g Geometry) Normalize(c Coord) (Coord, bool) {
	if g.Contains(c) {
		return c, true
	}
	if !g.Wrap {
		return Coord{}, false
	}
	return Coord{mod(c.X, g.Dims.X), mod(c.Y, g.Dims.Y), mod(c.Z, g.Dims.Z)}, true
}

func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// ErrBadPartition is returned for structurally invalid partitions.
var ErrBadPartition = errors.New("torus: invalid partition")

// ValidPartition reports whether p is a legal partition of the machine:
// positive shape, shape no larger than the machine in any dimension,
// base canonical, and — on a mesh — no wraparound.
func (g Geometry) ValidPartition(p Partition) bool {
	if !p.Shape.Positive() || !p.Shape.FitsIn(g.Dims) || !g.Contains(p.Base) {
		return false
	}
	if !g.Wrap {
		if p.Base.X+p.Shape.X > g.Dims.X ||
			p.Base.Y+p.Shape.Y > g.Dims.Y ||
			p.Base.Z+p.Shape.Z > g.Dims.Z {
			return false
		}
	}
	return true
}
