// Allocation guards for the simulator's hot path.
//
// BenchmarkKernelSteadyState reports allocs/op averaged over whole
// runs, where a handful of startup allocations disappear into the
// rounding. The guard here is exact and survives without -bench flags
// in plain `go test`: after the caches and pools are warm, a window of
// steady-state kernel.step dispatches must perform zero heap
// allocations and allocate zero bytes, read as raw runtime.MemStats
// deltas (testing.AllocsPerRun integer-divides by the run count, so a
// single allocation in the window would round away) — the property
// the pooled calendar, the runState free list, the fixed-capacity
// running set, the pre-sized outcome slice and the batched telemetry
// counter exist to provide.
package bgsched

import (
	"context"
	"runtime"
	"testing"

	"bgsched/internal/build"
	"bgsched/internal/experiments"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
)

func TestKernelSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state run in -short mode")
	}
	// MemStats counts every goroutine's allocations. One P for the
	// whole test (as testing.AllocsPerRun uses while it measures) keeps
	// other goroutines out of the window, and lets the warm-up below
	// also grow the runtime's own per-P state (timer heap, GC mark
	// workers) before the window opens.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg, _, err := build.Default(experiments.RunConfig{
		Workload: "SDSC", JobCount: 1000, FailureNominal: 1000,
		Scheduler: experiments.SchedBaseline, Seed: 1, Finder: "fast",
		Telemetry: telemetry.New(), // metrics on, trace and event log off
	})
	if err != nil {
		t.Fatal(err)
	}

	// Full run first: learns the run's event count and grows the
	// scheduler-side buffers (candidate lists, the finder's and MFP
	// engine's windows) that live in cfg and carry across sim.New.
	warm, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := warm.Run()
	if err != nil {
		t.Fatal(err)
	}
	perRun := res.EventsDispatched

	// Fresh run, advanced past its warm-up: by mid-run the calendar,
	// job queue and runState pool have hit their high-water marks, so
	// everything after is pure steady state.
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	upTo := perRun / 2
	if _, err := s.RunToEvent(ctx, upTo); err != nil {
		t.Fatal(err)
	}

	const chunk = 32
	runs := int((perRun - upTo) / chunk / 2) // leave slack so the run never drains
	if runs < 4 {
		t.Fatalf("run too short for a steady-state window: %d events", perRun)
	}
	if runs > 24 {
		runs = 24
	}
	runtime.GC() // no cycle left pending from the warm-up's garbage
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		upTo += chunk
		if _, err := s.RunToEvent(ctx, upTo); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if s.EventsDispatched() >= perRun {
		t.Fatalf("guard window drained the run (%d events); shrink chunk", perRun)
	}
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	if mallocs != 0 || bytes != 0 {
		t.Fatalf("steady-state kernel.step allocated %d times (%d B) over events %d-%d, want 0",
			mallocs, bytes, upTo-int64(runs*chunk), upTo)
	}
}
