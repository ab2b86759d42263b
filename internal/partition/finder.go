// Package partition implements the free-partition search algorithms the
// scheduler relies on: the naive exhaustive search, a Projection-of-
// Partitions (POP) style dynamic-programming finder in the spirit of
// Krevat et al., the paper's shape-enumeration finder (Appendix 9)
// with lazily built run-length tables and early termination, and the
// occupancy-bitset Engine behind the fast finder and every maximal
// free partition (MFP) question.
//
// All finders return exactly the same set of partitions; they differ
// only in asymptotic cost. The set is the paper's FREEPARTS: every
// free, contiguous, rectangular partition of a requested size.
//
// Canonicalisation: when a shape spans a full torus dimension, every
// base along that dimension denotes the same node set; finders emit
// only the base with component 0, so each distinct node set appears
// exactly once.
package partition

import (
	"fmt"
	"strings"

	"bgsched/internal/torus"
)

// Finder enumerates all free partitions of an exact size.
type Finder interface {
	// FreeOfSize returns every free partition of exactly size nodes,
	// canonicalised and in deterministic order.
	FreeOfSize(gr *torus.Grid, size int) []torus.Partition
	// Name identifies the algorithm in benchmarks and reports.
	Name() string
}

// BufferedFinder is the optional allocation-free query capability of a
// Finder: FreeOfSizeInto answers into a caller-owned buffer instead of
// handing out a fresh slice. The scheduler detects it by type assertion
// and reuses one candidate buffer across decisions, which is what keeps
// the simulator's steady-state event loop free of per-event heap
// allocations. Implementations must return exactly the partitions (and
// order) FreeOfSize would.
type BufferedFinder interface {
	Finder
	// FreeOfSizeInto appends every free partition of exactly size nodes
	// to buf[:0] and returns it. The result aliases buf (or its
	// reallocation) and is valid only until the buffer's next use.
	FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition
}

// Names lists the selectable finder algorithms in ByName order.
var Names = []string{"naive", "pop", "shape", "fast", "anneal"}

// ByName constructs the named finder algorithm: "naive", "pop",
// "shape" (also the default for an empty name), "fast" or "anneal".
// The second argument is ignored; it once sized a parallel enumeration
// pool and stays so existing callers keep compiling. The anneal
// finder's placement search gets seed 0; use ByNameSeeded to steer it.
func ByName(name string, _ int) (Finder, error) {
	return ByNameSeeded(name, 0)
}

// ByNameSeeded is ByName with an explicit placement-search seed for the
// "anneal" finder (the other algorithms are deterministic and ignore
// it). An unknown name is rejected with the registered names listed.
func ByNameSeeded(name string, seed int64) (Finder, error) {
	switch name {
	case "", "shape":
		return ShapeFinder{}, nil
	case "naive":
		return NaiveFinder{}, nil
	case "pop":
		return POPFinder{}, nil
	case "fast":
		return NewFastFinder(), nil
	case "anneal":
		return NewAnnealFinder(seed), nil
	}
	return nil, fmt.Errorf("partition: unknown finder %q (registered finders: %s)",
		name, strings.Join(Names, ", "))
}

// baseRange returns the number of candidate base positions along a
// dimension of extent dim for a shape extent ext.
func baseRange(dim, ext int, wrap bool) int {
	if ext > dim {
		return 0
	}
	if !wrap {
		return dim - ext + 1
	}
	if ext == dim {
		return 1 // all bases equivalent; canonical base is 0
	}
	return dim
}

// partitionLess is the canonical finder output order: lexicographic by
// shape then base. Candidates within one finder result are always
// distinct, so the order is total and algorithm-independent.
func partitionLess(a, b torus.Partition) bool {
	if a.Shape != b.Shape {
		if a.Shape.X != b.Shape.X {
			return a.Shape.X < b.Shape.X
		}
		if a.Shape.Y != b.Shape.Y {
			return a.Shape.Y < b.Shape.Y
		}
		return a.Shape.Z < b.Shape.Z
	}
	if a.Base.X != b.Base.X {
		return a.Base.X < b.Base.X
	}
	if a.Base.Y != b.Base.Y {
		return a.Base.Y < b.Base.Y
	}
	return a.Base.Z < b.Base.Z
}

// sortPartitions orders partitions lexicographically by shape then base,
// giving every finder the same deterministic output order. Elements are
// distinct, so any comparison sort yields the same result; a hand-rolled
// heapsort (after an already-sorted fast path — enumeration emits in
// order) keeps the hot path allocation-free, unlike sort.Slice, whose
// reflective swapper escapes to the heap on every call.
func sortPartitions(ps []torus.Partition) {
	sorted := true
	for i := 1; i < len(ps); i++ {
		if partitionLess(ps[i], ps[i-1]) {
			sorted = false
			break
		}
	}
	if sorted {
		return
	}
	n := len(ps)
	for i := n/2 - 1; i >= 0; i-- {
		siftPartitions(ps, i, n)
	}
	for i := n - 1; i > 0; i-- {
		ps[0], ps[i] = ps[i], ps[0]
		siftPartitions(ps, 0, i)
	}
}

// siftPartitions restores the max-heap property for root i over ps[:n].
func siftPartitions(ps []torus.Partition, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && partitionLess(ps[c], ps[c+1]) {
			c++
		}
		if !partitionLess(ps[i], ps[c]) {
			return
		}
		ps[i], ps[c] = ps[c], ps[i]
		i = c
	}
}

// computeRunsInto fills runs[i] with the length of the maximal run of
// true values starting at index i (wrap-aware, capped at n).
// len(runs) must be >= n; val is consulted for indices [0, n).
func computeRunsInto(val func(int) bool, n int, wrap bool, runs []int) {
	allTrue := true
	for i := n - 1; i >= 0; i-- {
		if !val(i) {
			runs[i] = 0
			allTrue = false
		} else if i == n-1 {
			runs[i] = 1
		} else {
			runs[i] = runs[i+1] + 1
		}
	}
	if allTrue {
		for i := 0; i < n; i++ {
			runs[i] = n
		}
		return
	}
	if wrap && n > 1 && val(n-1) && val(0) {
		// Extend runs touching the high edge around the wrap point.
		head := runs[0]
		for i := n - 1; i >= 0 && val(i); i-- {
			runs[i] += head
			if runs[i] > n {
				runs[i] = n
			}
		}
	}
}

// MaxFree returns the maximal free partition (MFP) of the grid: the
// free, contiguous, rectangular partition with the greatest node count,
// and that count. If the machine is completely full it returns size 0.
//
// The MFP is the quantity Krevat's heuristic (and this paper's L_MFP
// factor) is built on. This is a one-shot call on a fresh Engine;
// callers that ask repeatedly keep an Engine of their own.
func MaxFree(gr *torus.Grid) (torus.Partition, int) {
	var e Engine
	return e.MaxFree(gr)
}

// MaxFreeSize returns just the size of the maximal free partition.
func MaxFreeSize(gr *torus.Grid) int {
	_, s := MaxFree(gr)
	return s
}
