package main

import (
	"context"
	"fmt"
	"math/rand"

	"bgsched/internal/build"
	"bgsched/internal/core"
	"bgsched/internal/experiments"
	"bgsched/internal/resilience"
)

// A workload is the list of units one pass runs. A unit is either one
// simulation (build, sim.New, RunContext) or one experiments.Engine
// figure call. Every pass runs every unit once, in order, so per-unit
// timings are repeats of the same configuration and never mix seeds.
type workload struct {
	name string
	// sims are the simulations of one pass. For the single-configuration
	// workloads they are also the timed units; for fig-sweep they are the
	// sweep's own simulations, driven directly in the traced run.
	sims []simUnit
	// figs, when non-empty, are the timed units instead of sims: the
	// figure-sweep slice run through experiments.Engine.
	figs []figUnit
}

// simUnit is one simulation configuration.
type simUnit struct {
	name string
	cfg  build.RunConfig
	// emit attaches in-memory event-log and causal-trace sinks.
	emit bool
	// unit names the fig-sweep engine unit the simulation belongs to.
	unit string
}

// Sub-configurations per single-configuration workload. Run time of
// one configuration varies about 2x from one generated log to the
// next, so each benchmark seed draws this many logs and a pass runs
// each once; the sum over them moves little from seed to seed.
const (
	sdscConfigs = 32
	llnlConfigs = 24
)

// subSeed derives the simulation seed of sub-configuration k from the
// benchmark seed, so different benchmark seeds never share a log.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

func workloadByName(name string, seed int64) (*workload, error) {
	switch name {
	case "fig-sweep":
		return figSweep(seed), nil
	case "sdsc-easy-fast":
		w := &workload{name: name}
		for k := 0; k < sdscConfigs; k++ {
			w.sims = append(w.sims, simUnit{name: fmt.Sprintf("sdsc#%d", k), cfg: build.RunConfig{
				Workload: "SDSC", JobCount: 2000, LoadScale: 1.2, FailureNominal: 1000,
				Scheduler: build.SchedBalancing, Param: 0.1, Backfill: core.BackfillEASY,
				Finder: "fast", Seed: subSeed(seed, k),
			}})
		}
		return w, nil
	case "llnl-ckpt-logged":
		w := &workload{name: name}
		for k := 0; k < llnlConfigs; k++ {
			w.sims = append(w.sims, simUnit{name: fmt.Sprintf("llnl#%d", k), emit: true, cfg: build.RunConfig{
				Workload: "LLNL", JobCount: 2000, FailureNominal: 4000,
				Scheduler: build.SchedBaseline, BackfillStrict: true,
				CheckpointInterval: 3600, CheckpointOverhead: 60,
				Finder: "fast", Seed: subSeed(seed, k),
			}})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have fig-sweep, sdsc-easy-fast, llnl-ckpt-logged)", name)
}

// sweepJobs is the EXPERIMENTS.md log length, sweepReps the replicates
// per point and sweepSeed the sweep's own seed (the experiments
// default). The benchmark seed picks the points, not the logs: one
// SDSC log at 1200 jobs runs up to 4x slower than the next (a queue
// collapse slows every point on it), so drawing logs from the
// benchmark seed would make the sweep's figures a property of the seed.
const (
	sweepJobs       = 1200
	sweepReps       = 1
	sweepSeed int64 = 1
)

// sweepPoint is one point of the paper's Figure 3-10 grid.
type sweepPoint struct {
	fig   string
	wl    string
	c     float64
	fails int
	kind  build.SchedulerKind
	a     float64
}

// key renders the point key experiments uses for the figure.
func (p sweepPoint) key() string {
	switch p.fig {
	case "fig3":
		return fmt.Sprintf("a=%.1f|x=%d", p.a, p.fails)
	case "fig4", "fig5":
		return fmt.Sprintf("c=%.1f|x=%d", p.c, p.fails)
	}
	return fmt.Sprintf("%s|c=%.1f|x=%.1f", p.wl, p.c, p.a)
}

// The figures' axes, as experiments/figures.go defines them.
var (
	failureAxis = []int{0, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000}
	paramAxis   = []float64{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	loadAxis    = []float64{1.0, 1.2}
)

// slotsPerPoint is how many table values one point fills: the capacity
// figures split each point three ways.
func slotsPerPoint(fig string) int {
	switch fig {
	case "fig5", "fig7", "fig8", "fig10":
		return 3
	}
	return 1
}

// figurePoints enumerates every point of a figure.
func figurePoints(fig string) []sweepPoint {
	var out []sweepPoint
	switch fig {
	case "fig3":
		for _, a := range []float64{0.0, 0.1, 0.9} {
			for _, n := range failureAxis {
				out = append(out, sweepPoint{fig, "SDSC", 1.0, n, build.SchedBalancing, a})
			}
		}
	case "fig4", "fig5":
		for _, c := range loadAxis {
			for _, n := range failureAxis {
				out = append(out, sweepPoint{fig, "SDSC", c, n, build.SchedBalancing, 0.1})
			}
		}
	case "fig6", "fig9":
		kind := build.SchedBalancing
		if fig == "fig9" {
			kind = build.SchedTieBreak
		}
		for _, wl := range []string{"SDSC", "NASA", "LLNL"} {
			for _, c := range loadAxis {
				for _, a := range paramAxis {
					out = append(out, sweepPoint{fig, wl, c, 1000, kind, a})
				}
			}
		}
	case "fig7", "fig8", "fig10":
		wl, kind := map[string]string{"fig7": "SDSC", "fig8": "NASA", "fig10": "LLNL"}[fig], build.SchedBalancing
		if fig == "fig10" {
			kind = build.SchedTieBreak
		}
		for _, c := range loadAxis {
			for _, a := range paramAxis {
				out = append(out, sweepPoint{fig, wl, c, 1000, kind, a})
			}
		}
	}
	return out
}

// sweepStrata are the cells of the Figure 3-10 grid fig-sweep samples:
// all three logs, balancing and tie-breaking, both load levels, and the
// failure-count and parameter axes. The benchmark seed picks
// pointsPerCell points of each cell; run time moves with the failure
// count, and two points per cell halve that spread between seeds.
var sweepStrata = []struct {
	fig, wl string
	c       float64
}{
	{"fig3", "SDSC", 1.0}, {"fig4", "SDSC", 1.0}, {"fig4", "SDSC", 1.2},
	{"fig6", "SDSC", 1.2}, {"fig6", "NASA", 1.0}, {"fig6", "LLNL", 1.2},
	{"fig7", "SDSC", 1.0}, {"fig8", "NASA", 1.2},
	{"fig9", "SDSC", 1.0}, {"fig9", "NASA", 1.2}, {"fig9", "LLNL", 1.0},
	{"fig10", "LLNL", 1.2},
}

const pointsPerCell = 2

// sweepSlice picks the seed's points in every stratum.
func sweepSlice(seed int64) []sweepPoint {
	rng := rand.New(rand.NewSource(seed))
	var out []sweepPoint
	for _, st := range sweepStrata {
		var cell []sweepPoint
		for _, p := range figurePoints(st.fig) {
			if p.wl == st.wl && p.c == st.c {
				cell = append(cell, p)
			}
		}
		for _, i := range rng.Perm(len(cell))[:pointsPerCell] {
			out = append(out, cell[i])
		}
	}
	return out
}

// figUnit runs one point of the slice through experiments.Engine, as
// one figure call. The engine has no point filter, so the point is
// taken the way a resumed sweep skips finished points: every other
// point of the figure is pre-filled through Engine.Resumed, and the
// engine's own point loop runs exactly this one.
type figUnit struct {
	name    string // figure|point key
	spec    experiments.Spec
	opt     experiments.Options
	skipped map[string]resilience.PointRecord
}

// figSweep runs the seed's slice, one engine unit per point.
func figSweep(seed int64) *workload {
	w := &workload{name: "fig-sweep"}
	for _, p := range sweepSlice(seed) {
		spec, err := experiments.SpecByID(p.fig)
		if err != nil {
			panic(err) // the slice names only existing figures
		}
		u := figUnit{
			name: p.fig + "|" + p.key(),
			spec: spec,
			opt: experiments.Options{
				JobCount: sweepJobs, Seed: sweepSeed, Replications: sweepReps,
			},
			skipped: map[string]resilience.PointRecord{},
		}
		for _, q := range figurePoints(p.fig) {
			if q.key() != p.key() {
				u.skipped[resilience.PointKey(p.fig, q.key())] = resilience.PointRecord{Figure: p.fig, Key: q.key()}
			}
		}
		w.figs = append(w.figs, u)
		for r := 0; r < sweepReps; r++ {
			w.sims = append(w.sims, simUnit{
				name: fmt.Sprintf("%s#%d", u.name, r),
				unit: u.name,
				cfg: build.RunConfig{
					Workload: p.wl, JobCount: sweepJobs, LoadScale: p.c,
					FailureNominal: p.fails, Scheduler: p.kind, Param: p.a,
					Seed: u.opt.Seed + int64(r)*101, // experiments' replicate stride
				},
			})
		}
	}
	return w
}

// runFig runs the unit's point sequentially and returns the figure's
// tables.
func (u figUnit) runFig() ([]*experiments.Table, error) {
	eng := &experiments.Engine{Ctx: context.Background(), Workers: 1, Resumed: u.skipped}
	tables, err := u.spec.Run(eng, u.opt)
	if err != nil {
		return nil, err
	}
	if f := eng.Failures(); len(f) > 0 {
		return nil, fmt.Errorf("%s: point failed: %v", u.name, f[0])
	}
	if got := eng.ResumedPoints(); got != len(u.skipped) {
		return nil, fmt.Errorf("%s: engine skipped %d points, want %d", u.name, got, len(u.skipped))
	}
	if got, want := filledSlots(tables), slotsPerPoint(u.spec.ID); got != want {
		return nil, fmt.Errorf("%s: engine filled %d table slots, want %d", u.name, got, want)
	}
	return tables, nil
}
