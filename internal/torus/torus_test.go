package torus

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewGeometryPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	NewGeometry(4, 0, 8, true)
}

func TestBlueGeneL(t *testing.T) {
	g := BlueGeneL()
	if g.Dims != (Shape{4, 4, 8}) {
		t.Fatalf("BlueGeneL dims = %v, want 4x4x8", g.Dims)
	}
	if !g.Wrap {
		t.Fatal("BlueGeneL must be a torus (Wrap=true)")
	}
	if g.N() != 128 {
		t.Fatalf("BlueGeneL N = %d, want 128", g.N())
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	g := NewGeometry(3, 5, 7, true)
	seen := make(map[int]bool)
	for x := 0; x < 3; x++ {
		for y := 0; y < 5; y++ {
			for z := 0; z < 7; z++ {
				c := Coord{x, y, z}
				id := g.Index(c)
				if id < 0 || id >= g.N() {
					t.Fatalf("Index(%v) = %d out of range", c, id)
				}
				if seen[id] {
					t.Fatalf("Index(%v) = %d collides", c, id)
				}
				seen[id] = true
				if back := g.CoordOf(id); back != c {
					t.Fatalf("CoordOf(Index(%v)) = %v", c, back)
				}
			}
		}
	}
	if len(seen) != g.N() {
		t.Fatalf("covered %d ids, want %d", len(seen), g.N())
	}
}

func TestContains(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	cases := []struct {
		c    Coord
		want bool
	}{
		{Coord{0, 0, 0}, true},
		{Coord{3, 3, 7}, true},
		{Coord{4, 0, 0}, false},
		{Coord{0, -1, 0}, false},
		{Coord{0, 0, 8}, false},
	}
	for _, tc := range cases {
		if got := g.Contains(tc.c); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

func TestNormalizeWrap(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	c, ok := g.Normalize(Coord{5, -1, 8})
	if !ok || c != (Coord{1, 3, 0}) {
		t.Fatalf("Normalize = %v, %v; want (1,3,0), true", c, ok)
	}
}

func TestNormalizeMeshRejects(t *testing.T) {
	g := NewGeometry(4, 4, 8, false)
	if _, ok := g.Normalize(Coord{4, 0, 0}); ok {
		t.Fatal("mesh Normalize accepted out-of-range coordinate")
	}
	if c, ok := g.Normalize(Coord{1, 2, 3}); !ok || c != (Coord{1, 2, 3}) {
		t.Fatalf("mesh Normalize rejected in-range coordinate: %v %v", c, ok)
	}
}

func TestShapeSizeAndFits(t *testing.T) {
	s := Shape{2, 3, 4}
	if s.Size() != 24 {
		t.Fatalf("Size = %d, want 24", s.Size())
	}
	if !s.FitsIn(Shape{4, 4, 8}) {
		t.Fatal("2x3x4 should fit in 4x4x8")
	}
	if (Shape{5, 1, 1}).FitsIn(Shape{4, 4, 8}) {
		t.Fatal("5x1x1 should not fit in 4x4x8")
	}
	if (Shape{0, 1, 1}).Positive() {
		t.Fatal("0x1x1 should not be positive")
	}
}

func TestValidPartition(t *testing.T) {
	torus := NewGeometry(4, 4, 8, true)
	mesh := NewGeometry(4, 4, 8, false)

	wrapping := Partition{Base: Coord{3, 0, 0}, Shape: Shape{2, 1, 1}}
	if !torus.ValidPartition(wrapping) {
		t.Error("torus should allow wrapping partition")
	}
	if mesh.ValidPartition(wrapping) {
		t.Error("mesh should reject wrapping partition")
	}
	if torus.ValidPartition(Partition{Base: Coord{0, 0, 0}, Shape: Shape{5, 1, 1}}) {
		t.Error("shape larger than dimension must be invalid even with wrap")
	}
	if torus.ValidPartition(Partition{Base: Coord{4, 0, 0}, Shape: Shape{1, 1, 1}}) {
		t.Error("non-canonical base must be invalid")
	}
	if torus.ValidPartition(Partition{Base: Coord{0, 0, 0}, Shape: Shape{0, 1, 1}}) {
		t.Error("zero-extent shape must be invalid")
	}
	full := Partition{Base: Coord{1, 2, 3}, Shape: Shape{4, 4, 8}}
	if !torus.ValidPartition(full) {
		t.Error("full-machine partition from any base must be valid on a torus")
	}
}

func TestNodesCountAndUniqueness(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	p := Partition{Base: Coord{3, 3, 6}, Shape: Shape{2, 2, 4}}
	ids := g.Nodes(p)
	if len(ids) != p.Size() {
		t.Fatalf("Nodes returned %d ids, want %d", len(ids), p.Size())
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		if id < 0 || id >= g.N() {
			t.Fatalf("node id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("duplicate node id %d", id)
		}
		seen[id] = true
		if !g.ContainsNode(p, id) {
			t.Fatalf("ContainsNode(%v, %d) = false for an enumerated node", p, id)
		}
	}
}

func TestContainsNodeNegative(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	p := Partition{Base: Coord{0, 0, 0}, Shape: Shape{2, 2, 2}}
	in := make(map[int]bool)
	for _, id := range g.Nodes(p) {
		in[id] = true
	}
	for id := 0; id < g.N(); id++ {
		if g.ContainsNode(p, id) != in[id] {
			t.Fatalf("ContainsNode(%v, %d) = %v, want %v", p, id, !in[id], in[id])
		}
	}
}

func TestForEachNodeEarlyStop(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	p := Partition{Base: Coord{0, 0, 0}, Shape: Shape{4, 4, 8}}
	count := 0
	done := g.ForEachNode(p, func(int) bool {
		count++
		return count < 10
	})
	if done {
		t.Fatal("ForEachNode should report early termination")
	}
	if count != 10 {
		t.Fatalf("visited %d nodes before stop, want 10", count)
	}
}

// TestOverlapsMatchesNodeSets cross-checks the interval-arithmetic
// overlap test against brute-force node set intersection.
func TestOverlapsMatchesNodeSets(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	rng := rand.New(rand.NewSource(7))
	randPart := func() Partition {
		return Partition{
			Base:  Coord{rng.Intn(4), rng.Intn(4), rng.Intn(8)},
			Shape: Shape{1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(8)},
		}
	}
	for trial := 0; trial < 2000; trial++ {
		p, q := randPart(), randPart()
		inP := make(map[int]bool)
		for _, id := range g.Nodes(p) {
			inP[id] = true
		}
		brute := false
		for _, id := range g.Nodes(q) {
			if inP[id] {
				brute = true
				break
			}
		}
		if got := g.Overlaps(p, q); got != brute {
			t.Fatalf("Overlaps(%v, %v) = %v, brute force = %v", p, q, got, brute)
		}
	}
}

func TestOverlapsSymmetric(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	f := func(bx, by, bz, sx, sy, sz, cx, cy, cz, tx, ty, tz uint8) bool {
		p := Partition{
			Base:  Coord{int(bx % 4), int(by % 4), int(bz % 8)},
			Shape: Shape{1 + int(sx%4), 1 + int(sy%4), 1 + int(sz%8)},
		}
		q := Partition{
			Base:  Coord{int(cx % 4), int(cy % 4), int(cz % 8)},
			Shape: Shape{1 + int(tx%4), 1 + int(ty%4), 1 + int(tz%8)},
		}
		return g.Overlaps(p, q) == g.Overlaps(q, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapsSelf(t *testing.T) {
	g := NewGeometry(4, 4, 8, true)
	f := func(bx, by, bz, sx, sy, sz uint8) bool {
		p := Partition{
			Base:  Coord{int(bx % 4), int(by % 4), int(bz % 8)},
			Shape: Shape{1 + int(sx%4), 1 + int(sy%4), 1 + int(sz%8)},
		}
		return g.Overlaps(p, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShapesOf(t *testing.T) {
	g := BlueGeneL()
	shapes := g.ShapesOf(8)
	if len(shapes) == 0 {
		t.Fatal("no shapes for size 8")
	}
	seen := make(map[Shape]bool)
	for _, s := range shapes {
		if s.Size() != 8 {
			t.Errorf("shape %v has size %d, want 8", s, s.Size())
		}
		if !s.FitsIn(g.Dims) {
			t.Errorf("shape %v does not fit machine", s)
		}
		if seen[s] {
			t.Errorf("duplicate shape %v", s)
		}
		seen[s] = true
	}
	// 8 = 1*1*8, 1*2*4, 1*4*2, 2*1*4, 2*2*2, 2*4*1, 4*1*2, 4*2*1
	if len(shapes) != 8 {
		t.Errorf("ShapesOf(8) returned %d shapes, want 8", len(shapes))
	}
}

func TestShapesOfEdgeCases(t *testing.T) {
	g := BlueGeneL()
	if s := g.ShapesOf(0); s != nil {
		t.Errorf("ShapesOf(0) = %v, want nil", s)
	}
	if s := g.ShapesOf(129); s != nil {
		t.Errorf("ShapesOf(129) = %v, want nil", s)
	}
	if s := g.ShapesOf(128); len(s) != 1 || s[0] != (Shape{4, 4, 8}) {
		t.Errorf("ShapesOf(128) = %v, want [4x4x8]", s)
	}
	// 11 is prime and > 8, so it cannot be realised.
	if s := g.ShapesOf(11); len(s) != 0 {
		t.Errorf("ShapesOf(11) = %v, want empty", s)
	}
}

func TestFeasibleSizesAndRoundUp(t *testing.T) {
	g := BlueGeneL()
	sizes := g.FeasibleSizes()
	if len(sizes) == 0 || sizes[0] != 1 || sizes[len(sizes)-1] != 128 {
		t.Fatalf("FeasibleSizes = %v", sizes)
	}
	feasible := make(map[int]bool)
	for _, s := range sizes {
		feasible[s] = true
		if len(g.ShapesOf(s)) == 0 {
			t.Errorf("size %d reported feasible but has no shapes", s)
		}
	}
	if feasible[11] {
		t.Error("11 must not be feasible on 4x4x8")
	}
	got, ok := g.RoundUpFeasible(11)
	if !ok || got != 12 {
		t.Fatalf("RoundUpFeasible(11) = %d, %v; want 12, true", got, ok)
	}
	if got, ok := g.RoundUpFeasible(0); !ok || got != 1 {
		t.Fatalf("RoundUpFeasible(0) = %d, %v; want 1, true", got, ok)
	}
	if _, ok := g.RoundUpFeasible(129); ok {
		t.Fatal("RoundUpFeasible(129) must fail")
	}
	// Round-up is idempotent on feasible sizes.
	for _, s := range sizes {
		if got, ok := g.RoundUpFeasible(s); !ok || got != s {
			t.Fatalf("RoundUpFeasible(%d) = %d, %v; want identity", s, got, ok)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want Geometry
	}{
		{"4x4x8", NewGeometry(4, 4, 8, true)},
		{"4x4x8/torus", NewGeometry(4, 4, 8, true)},
		{"8x8x16/mesh", NewGeometry(8, 8, 16, false)},
		{" 2 x 3 x 4 ", NewGeometry(2, 3, 4, true)},
		{"128x64x128", NewGeometry(128, 64, 128, true)}, // exactly MaxNodes
		{"1048576x1x1/mesh", NewGeometry(MaxNodes, 1, 1, false)},
	}
	for _, tc := range cases {
		got, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	bad := []string{"", "4x4", "4x4x8x2", "4xax8", "0x4x8", "-1x4x8", "4x4x8/ring"}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	// Oversized machines are refused with an error naming the cap, not
	// left to panic (or wrap around) when the node arrays are made.
	huge := []string{
		"100000x100000x100000",    // would panic in makeslice
		"4294967296x4294967296x2", // product overflows int
		"128x64x129",              // one plane past the cap
		"1048577x1x1",
		"1x1x1048577",
	}
	for _, spec := range huge {
		_, err := Parse(spec)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxNodes)) {
			t.Errorf("Parse(%q) = %v, want an error naming the %d-node cap", spec, err, MaxNodes)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, g := range []Geometry{BlueGeneL(), NewGeometry(8, 8, 8, false)} {
		back, err := Parse(g.Spec())
		if err != nil {
			t.Fatalf("Parse(Spec) of %v: %v", g, err)
		}
		if back != g {
			t.Fatalf("round trip %v -> %q -> %v", g, g.Spec(), back)
		}
	}
}

func TestStringMethods(t *testing.T) {
	if got := (Coord{1, 2, 3}).String(); got != "(1,2,3)" {
		t.Errorf("Coord.String = %q", got)
	}
	if got := (Shape{4, 4, 8}).String(); got != "4x4x8" {
		t.Errorf("Shape.String = %q", got)
	}
	p := Partition{Base: Coord{1, 0, 0}, Shape: Shape{2, 2, 2}}
	if got := p.String(); got != "(1,0,0)+2x2x2" {
		t.Errorf("Partition.String = %q", got)
	}
}
