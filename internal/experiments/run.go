// Package experiments reproduces the paper's evaluation (Section 7):
// it assembles workloads, failure traces, predictors and schedulers
// into single simulation runs, and provides one spec per figure of the
// paper that regenerates the same data series.
//
// Run construction is delegated to the staged pipeline in
// internal/build: every run is built stage by stage (geometry →
// workload log → jobs → failure trace → failure index → policy →
// sim.Config), with the synthesis-heavy stages memoised in a
// process-wide artifact cache shared by single runs and figure sweeps.
// Sweep points that differ only in policy, confidence or failure count
// therefore skip workload and trace synthesis entirely once a sibling
// point has warmed the cache.
//
// Scaling note. The paper replays multi-month to multi-year archive
// logs (tens of thousands of jobs) and injects up to 4000 failures.
// The synthetic logs here default to a few thousand jobs spanning days
// to weeks, so the nominal failure counts on the paper's x-axes are
// rescaled to the synthetic span at a fixed density mapping
// (DefaultFailuresPerDayPerNominal100): nominal 100 failures ≈ one
// failure per machine-day. This keeps the paper's axis labels and —
// because the scheduling dynamics depend on failure density relative
// to job durations, not on absolute counts — its qualitative regimes:
// the sharp onset, the knee, and the saturation plateau.
package experiments

import (
	"context"

	"bgsched/internal/build"
	"bgsched/internal/sim"
)

// SchedulerKind names the scheduling algorithm under test.
type SchedulerKind = build.SchedulerKind

// The scheduler kinds, re-exported from the build pipeline.
const (
	// SchedBaseline is Krevat's fault-unaware FCFS + MFP scheduler.
	SchedBaseline = build.SchedBaseline
	// SchedBalancing is the paper's balancing algorithm (Section 5.2.1).
	SchedBalancing = build.SchedBalancing
	// SchedTieBreak is the paper's tie-breaking algorithm (Section 5.2.2).
	SchedTieBreak = build.SchedTieBreak
	// SchedBalancingLearned drives the balancing algorithm with the
	// history-trained statistical predictor.
	SchedBalancingLearned = build.SchedBalancingLearned
	// SchedTieBreakLearned drives the tie-breaking algorithm with the
	// learned predictor's boolean oracle.
	SchedTieBreakLearned = build.SchedTieBreakLearned
)

// DefaultFailuresPerDay is the injected failure density, in failures
// per machine-day, corresponding to a nominal count of 100 on the
// paper's x-axes. See the package comment.
const DefaultFailuresPerDay = build.DefaultFailuresPerDay

// QueueDrainSlack is the simulated-horizon stretch factor applied past
// the last job submission; see build.QueueDrainSlack.
const QueueDrainSlack = build.QueueDrainSlack

// RunConfig fully describes one simulation run. It is the build
// pipeline's staged configuration (build.RunConfig); see that type for
// field documentation.
type RunConfig = build.RunConfig

// Run builds and executes the configured simulation.
func Run(cfg RunConfig) (sim.Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext builds and executes the configured simulation under a
// cancellation context: a cancelled ctx aborts the event loop promptly
// and returns ctx.Err(). Construction goes through the staged build
// pipeline and its shared artifact cache (build.Shared), so repeated
// runs over a shared sub-config reuse the synthesized workload, the
// failure trace and the failure index.
func RunContext(ctx context.Context, cfg RunConfig) (sim.Result, error) {
	sc, _, err := build.Default(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	s, err := sim.New(sc)
	if err != nil {
		return sim.Result{}, err
	}
	return s.RunContext(ctx)
}
