package partition

import (
	"sync"

	"bgsched/internal/torus"
)

// FastFinder is the fast-path free-partition search: the same result
// set as ShapeFinder (the paper's Appendix 9 algorithm), read off the
// occupancy bitset by an Engine instead of scanning bases. Each shape
// of the requested size contributes its window's bits in ascending node
// id, which is already the canonical order.
//
// The zero value is ready to use. FastFinder is safe for concurrent
// use; a mutex serialises queries, which matches the single-threaded
// scheduler hot path it serves.
type FastFinder struct {
	// Metrics, when non-nil, receives per-call search-cost telemetry.
	Metrics *Metrics

	mu  sync.Mutex
	eng Engine
}

// NewFastFinder returns a fast finder.
func NewFastFinder() *FastFinder { return &FastFinder{} }

// Name implements Finder.
func (f *FastFinder) Name() string { return "fast" }

// FreeOfSize implements Finder. The result is a fresh slice the caller
// may keep or mutate (nil when nothing is free).
func (f *FastFinder) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	return f.FreeOfSizeInto(gr, size, nil)
}

// FreeOfSizeInto is FreeOfSize appending into buf[:0] instead of
// allocating, for callers that own a reusable candidate buffer. The
// returned slice is only valid until the buffer's next use.
func (f *FastFinder) FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition {
	f.mu.Lock()
	defer f.mu.Unlock()
	sw := f.Metrics.startTimer()
	out, shapes := f.eng.appendFree(gr, size, buf[:0])
	if shapes == 0 {
		f.Metrics.noShapes(sw)
	} else {
		f.Metrics.observe(sw, len(out), 0, 0)
	}
	return out
}
