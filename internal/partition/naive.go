package partition

import "bgsched/internal/torus"

// NaiveFinder is the exhaustive baseline the paper's Appendix 9 compares
// against: it enumerates every base location and every shape of the
// requested size and checks each candidate node by node. On an empty
// M x M x M torus this costs O(M^9); it exists as the correctness oracle
// and the benchmark baseline.
type NaiveFinder struct {
	// Metrics, when non-nil, receives per-call search-cost telemetry.
	Metrics *Metrics
}

// Name implements Finder.
func (NaiveFinder) Name() string { return "naive" }

// FreeOfSize implements Finder by brute force.
func (f NaiveFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	sw := f.Metrics.startTimer()
	g := gr.Geometry()
	dims := g.Dims
	bases, rejects := 0, 0
	var out []torus.Partition
	// Enumerate all shapes (not just divisor triples) and filter by
	// size, mirroring the "find all free partitions of any size, then
	// select the subset" description of the naive algorithm.
	for sx := 1; sx <= dims.X; sx++ {
		for sy := 1; sy <= dims.Y; sy++ {
			for sz := 1; sz <= dims.Z; sz++ {
				if sx*sy*sz != size {
					continue
				}
				shape := torus.Shape{X: sx, Y: sy, Z: sz}
				for bx := 0; bx < baseRange(dims.X, sx, g.Wrap); bx++ {
					for by := 0; by < baseRange(dims.Y, sy, g.Wrap); by++ {
						for bz := 0; bz < baseRange(dims.Z, sz, g.Wrap); bz++ {
							p := torus.Partition{
								Base:  torus.Coord{X: bx, Y: by, Z: bz},
								Shape: shape,
							}
							bases++
							if gr.PartitionFree(p) {
								out = append(out, p)
							} else {
								// PartitionFree stops at the first busy
								// node: the naive algorithm's only form
								// of early termination.
								rejects++
							}
						}
					}
				}
			}
		}
	}
	sortPartitions(out)
	f.Metrics.observe(sw, len(out), bases, rejects)
	return out
}

// MaxFreeNaive computes the MFP by brute force over all sizes. It is
// the correctness oracle for MaxFree.
func MaxFreeNaive(gr *torus.Grid) (torus.Partition, int) {
	g := gr.Geometry()
	dims := g.Dims
	best := 0
	var bestPart torus.Partition
	for sx := 1; sx <= dims.X; sx++ {
		for sy := 1; sy <= dims.Y; sy++ {
			for sz := 1; sz <= dims.Z; sz++ {
				if sx*sy*sz <= best {
					continue
				}
				shape := torus.Shape{X: sx, Y: sy, Z: sz}
			bases:
				for bx := 0; bx < baseRange(dims.X, sx, g.Wrap); bx++ {
					for by := 0; by < baseRange(dims.Y, sy, g.Wrap); by++ {
						for bz := 0; bz < baseRange(dims.Z, sz, g.Wrap); bz++ {
							p := torus.Partition{
								Base:  torus.Coord{X: bx, Y: by, Z: bz},
								Shape: shape,
							}
							if gr.PartitionFree(p) {
								// One free base settles this shape.
								best = shape.Size()
								bestPart = p
								break bases
							}
						}
					}
				}
			}
		}
	}
	return bestPart, best
}
