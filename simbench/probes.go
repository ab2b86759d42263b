package main

import (
	"math/bits"
	"time"

	"bgsched/internal/core"
	"bgsched/internal/partition"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

// agg aggregates calls too many to keep one span each (an
// sdsc-easy-fast run makes several hundred thousand finder calls):
// count, total and a log2-nanosecond histogram.
type agg struct {
	N     int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
	Hist  [48]int64     `json:"log2_ns_hist"`
}

func (a *agg) add(d time.Duration) {
	a.N++
	a.Total += d
	a.Hist[min(bits.Len64(uint64(d)), len(a.Hist)-1)]++
}

// finderStride is how often the finder probe reads the clock: one call
// in finderStride is timed and the total is scaled up by the call
// count. A clock read costs about 60 ns on a 2-vCPU Xeon KVM guest,
// and an sdsc-easy-fast run makes several hundred thousand finder
// calls, so timing every call would add a third to the run.
const finderStride = 16

// layerStats collects one traced run's finder and policy calls.
type layerStats struct {
	finderCalls int64
	finderTimed agg // every finderStride-th call
	finderCands int64
	finderEmpty int64
	finderPlain int64 // FreeOfSize (not FreeOfSizeInto) calls
	policy      agg
	policyCands int64
}

// finderTime estimates the time spent in all finder calls.
func (st *layerStats) finderTime() time.Duration {
	if st.finderTimed.N == 0 {
		return 0
	}
	return time.Duration(float64(st.finderTimed.Total) * float64(st.finderCalls) / float64(st.finderTimed.N))
}

// sampleFinder counts one finder call and reports whether to time it.
func (st *layerStats) sampleFinder() bool {
	st.finderCalls++
	return st.finderCalls%finderStride == 1
}

// finderResult counts one finder call's candidates.
func (st *layerStats) finderResult(out []torus.Partition) []torus.Partition {
	st.finderCands += int64(len(out))
	if len(out) == 0 {
		st.finderEmpty++
	}
	return out
}

// probeScheduler rebuilds s around probes of its policy and finder and
// points its telemetry at reg, keeping every other part of its
// configuration. The fast finder reports only its cache counters: the
// program's full finder instruments time every call, which would swamp
// what they measure.
func probeScheduler(s *core.Scheduler, st *layerStats, reg *telemetry.Registry) (*core.Scheduler, error) {
	cfg := s.Config()
	cfg.Telemetry = reg
	if ff, ok := cfg.Finder.(*partition.FastFinder); ok {
		ff.Metrics = &partition.Metrics{
			CacheHits:   reg.Counter("finder.fast.cache_hits"),
			CacheMisses: reg.Counter("finder.fast.cache_misses"),
		}
	}
	cfg.Policy = policyProbe{inner: cfg.Policy, st: st}
	cfg.Finder = probeFinder(cfg.Finder, st)
	return core.NewScheduler(cfg)
}

// policyProbe times core.Policy.Choose: candidate ranking, including
// the MFP-after evaluations.
type policyProbe struct {
	inner core.Policy
	st    *layerStats
}

func (p policyProbe) Name() string { return p.inner.Name() }

func (p policyProbe) Choose(ctx *core.PlacementContext, cands []torus.Partition) (int, error) {
	t0 := time.Now()
	i, err := p.inner.Choose(ctx, cands)
	p.st.policy.add(time.Since(t0))
	p.st.policyCands += int64(len(cands))
	return i, err
}

// probeFinder wraps f in a probe with exactly f's optional
// capabilities: the scheduler takes a different code path for a
// partition.BufferedFinder and consults a partition.Placer, so a probe
// that hid or added either would change what it measures.
func probeFinder(f partition.Finder, st *layerStats) partition.Finder {
	p := &finderProbe{inner: f, st: st}
	_, buffered := f.(partition.BufferedFinder)
	_, placer := f.(partition.Placer)
	switch {
	case buffered && placer:
		return bufferedPlacerProbe{bufferedProbe{p}}
	case buffered:
		return bufferedProbe{p}
	case placer:
		return placerProbe{p}
	}
	return p
}

type finderProbe struct {
	inner partition.Finder
	st    *layerStats
}

func (f *finderProbe) Name() string { return f.inner.Name() }

func (f *finderProbe) FreeOfSize(gr *torus.Grid, size int) []torus.Partition {
	f.st.finderPlain++
	if !f.st.sampleFinder() {
		return f.st.finderResult(f.inner.FreeOfSize(gr, size))
	}
	t0 := time.Now()
	out := f.inner.FreeOfSize(gr, size)
	f.st.finderTimed.add(time.Since(t0))
	return f.st.finderResult(out)
}

type bufferedProbe struct{ *finderProbe }

func (f bufferedProbe) FreeOfSizeInto(gr *torus.Grid, size int, buf []torus.Partition) []torus.Partition {
	bf := f.inner.(partition.BufferedFinder)
	if !f.st.sampleFinder() {
		return f.st.finderResult(bf.FreeOfSizeInto(gr, size, buf))
	}
	t0 := time.Now()
	out := bf.FreeOfSizeInto(gr, size, buf)
	f.st.finderTimed.add(time.Since(t0))
	return f.st.finderResult(out)
}

// Placement is the finder's choice among policy-equal candidates; it
// is forwarded untimed and stays in the scheduler's self time.
type placerProbe struct{ *finderProbe }

func (f placerProbe) Place(gr *torus.Grid, cands []torus.Partition) int {
	return f.inner.(partition.Placer).Place(gr, cands)
}

type bufferedPlacerProbe struct{ bufferedProbe }

func (f bufferedPlacerProbe) Place(gr *torus.Grid, cands []torus.Partition) int {
	return f.inner.(partition.Placer).Place(gr, cands)
}
