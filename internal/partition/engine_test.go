package partition

import (
	"math/rand"
	"testing"

	"bgsched/internal/torus"
)

// engineGeoms spans tori and meshes, node counts below, at and above
// one bitset word, counts that are not a multiple of 64, degenerate
// unit dimensions and the single-node machine.
var engineGeoms = []torus.Geometry{
	torus.BlueGeneL(),
	torus.NewGeometry(4, 4, 8, false),
	torus.NewGeometry(3, 5, 7, true),
	torus.NewGeometry(3, 5, 7, false),
	torus.NewGeometry(5, 4, 3, true),
	torus.NewGeometry(5, 4, 3, false),
	torus.NewGeometry(4, 4, 16, true),
	torus.NewGeometry(2, 1, 9, true),
	torus.NewGeometry(2, 1, 9, false),
	torus.NewGeometry(1, 1, 1, true),
}

// TestEngineMaxFreeAfterMatchesProbe: for every candidate of every
// feasible size on random occupancies, MaxFreeAfter equals the brute-
// force MFP of the grid with the candidate really allocated. One engine
// serves every geometry and grid, so stale windows would show.
func TestEngineMaxFreeAfterMatchesProbe(t *testing.T) {
	var e Engine
	checked := 0
	for gi, g := range engineGeoms {
		rng := rand.New(rand.NewSource(int64(gi)))
		sizes := g.FeasibleSizes()
		for trial := 0; trial < 8; trial++ {
			gr := randomGrid(t, g, rng.Float64()*0.7, int64(100*gi+trial))
			for _, size := range sizes {
				cands := ShapeFinder{}.FreeOfSize(gr, size)
				if len(cands) > 6 {
					rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
					cands = cands[:6]
				}
				for _, p := range cands {
					got := e.MaxFreeAfter(gr, p)
					if err := gr.Allocate(p, -1); err != nil {
						t.Fatal(err)
					}
					_, want := MaxFreeNaive(gr)
					if err := gr.Release(p, -1); err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s trial %d: MaxFreeAfter(%v) = %d, allocate+MaxFreeNaive = %d",
							g.Spec(), trial, p, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d placements checked", checked)
	}
}

// TestEngineMaxFreeMatchesNaive checks MaxFree on every engine geometry
// from the empty machine to the full one, one random node at a time.
func TestEngineMaxFreeMatchesNaive(t *testing.T) {
	var e Engine
	for gi, g := range engineGeoms {
		gr := torus.NewGrid(g)
		order := rand.New(rand.NewSource(int64(gi))).Perm(g.N())
		for step := 0; ; step++ {
			part, got := e.MaxFree(gr)
			_, want := MaxFreeNaive(gr)
			if got != want {
				t.Fatalf("%s step %d: MaxFree = %d, naive %d", g.Spec(), step, got, want)
			}
			if got > 0 && (!g.ValidPartition(part) || part.Size() != got || !gr.PartitionFree(part)) {
				t.Fatalf("%s step %d: MaxFree partition %v invalid for size %d", g.Spec(), step, part, got)
			}
			if step == len(order) {
				break
			}
			cell := torus.Partition{Base: g.CoordOf(order[step]), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
			if err := gr.Allocate(cell, int64(step+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
}
