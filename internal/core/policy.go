// Package core implements the paper's primary contribution: the job
// placement policies — Krevat's maximal-free-partition (MFP) heuristic,
// the fault-aware balancing algorithm (Section 5.2.1) and the
// tie-breaking algorithm (Section 5.2.2) — and the FCFS space-sharing
// scheduler with backfilling and migration they plug into.
package core

import (
	"fmt"

	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/predict"
	"bgsched/internal/torus"
)

// PlacementContext is everything a policy may consult when ranking
// candidate partitions for one job.
type PlacementContext struct {
	Grid      *torus.Grid
	Job       *job.Job
	Now       float64
	MFPBefore int // maximal free partition size before placing the job

	// mfp answers the MFP questions; the scheduler shares its own so
	// windows built for one candidate serve the next. Nil means a
	// private engine is made on first use.
	mfp *partition.Engine

	// Policy scratch, reused across Choose calls by a scheduler that
	// reuses its context; policies must not let it escape.
	floats []float64
	ints   []int
}

// engine returns the context's MFP engine.
func (ctx *PlacementContext) engine() *partition.Engine {
	if ctx.mfp == nil {
		ctx.mfp = new(partition.Engine)
	}
	return ctx.mfp
}

// Policy ranks candidate partitions for a job and picks one.
// Choose returns the index of the selected candidate, or -1 to decline
// placement (no built-in policy declines; the escape hatch exists for
// experimental policies). A non-nil error means the policy could not
// evaluate the candidates — typically an internal grid inconsistency —
// and aborts the scheduling decision; it must leave the grid unchanged.
type Policy interface {
	Name() string
	Choose(ctx *PlacementContext, cands []torus.Partition) (int, error)
}

// mfpAfter returns the MFP size of the grid with p hypothetically
// allocated, exactly and without touching the grid. An invalid or
// non-free p means internal inconsistency (candidates come from a
// finder over this same grid), reported as an error rather than a
// panic so one bad sweep point cannot take down its siblings.
func mfpAfter(ctx *PlacementContext, p torus.Partition) (int, error) {
	gr := ctx.Grid
	if !gr.Geometry().ValidPartition(p) || !gr.PartitionFree(p) {
		return 0, fmt.Errorf("core: probe allocation of %v failed: partition invalid or not free", p)
	}
	return ctx.engine().MaxFreeAfter(gr, p), nil
}

// Baseline is Krevat's placement heuristic: keep the maximal free
// partition as large as possible, i.e. minimise
// L_MFP = MFP(before) - MFP(after). Ties break to the first candidate
// in the finder's deterministic order.
type Baseline struct{}

// Name implements Policy.
func (Baseline) Name() string { return "baseline" }

// Choose implements Policy. The scan stops at the first candidate whose
// after-MFP equals the grid's current MFP: the MFP can never grow under
// an allocation, so no later candidate can beat it, and ties already
// break to the earliest index — the selection is identical to the full
// scan.
func (Baseline) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	_, before := ctx.engine().MaxFree(ctx.Grid)
	best := -1
	bestMFP := -1
	for i, p := range cands {
		after, err := mfpAfter(ctx, p)
		if err != nil {
			return -1, err
		}
		if after > bestMFP {
			bestMFP = after
			best = i
			if after == before {
				break
			}
		}
	}
	return best, nil
}

// Combiner folds per-node failure probabilities into a partition
// failure probability P_f.
type Combiner func([]float64) float64

// PartitionFailProb evaluates P_f for partition p over the window
// (now, until] under the given node prober and combiner.
func PartitionFailProb(g torus.Geometry, prober predict.NodeProber, p torus.Partition, now, until float64, combine Combiner) float64 {
	return partitionFailProbInto(nil, g, prober, p, now, until, combine)
}

// partitionFailProbInto is PartitionFailProb gathering node
// probabilities into a caller-owned buffer so repeated evaluations do
// not allocate. probs only needs capacity; it is truncated first.
func partitionFailProbInto(probs []float64, g torus.Geometry, prober predict.NodeProber, p torus.Partition, now, until float64, combine Combiner) float64 {
	probs = probs[:0]
	g.ForEachNode(p, func(id int) bool {
		probs = append(probs, prober.NodeFailProb(id, now, until))
		return true
	})
	return combine(probs)
}

// Balancing is the paper's balancing algorithm: minimise the total
// expected loss E_loss = L_MFP + L_PF, where L_MFP is the free space
// consumed from the maximal free partition and L_PF = P_f * s_j is the
// expected work lost if the partition fails before the job completes
// (the job is assumed to fail just before completion; Section 5.2.1).
type Balancing struct {
	Prober predict.NodeProber
	// Combine folds node probabilities into P_f. Defaults to
	// predict.CombineIndependent (the Section 5.2.1 product formula);
	// predict.CombineMax gives the Section 4.1 variant.
	Combine Combiner
}

// Name implements Policy.
func (b *Balancing) Name() string { return "balancing" }

// Choose implements Policy.
func (b *Balancing) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	combine := b.Combine
	if combine == nil {
		combine = predict.CombineIndependent
	}
	g := ctx.Grid.Geometry()
	until := ctx.Now + ctx.Job.Estimate
	if cap(ctx.floats) < ctx.Job.AllocSize {
		ctx.floats = make([]float64, 0, ctx.Job.AllocSize)
	}
	best := -1
	bestLoss := 0.0
	for i, p := range cands {
		after, err := mfpAfter(ctx, p)
		if err != nil {
			return -1, err
		}
		lMFP := float64(ctx.MFPBefore - after)
		pf := partitionFailProbInto(ctx.floats, g, b.Prober, p, ctx.Now, until, combine)
		loss := lMFP + pf*float64(ctx.Job.Size)
		if best == -1 || loss < bestLoss {
			best = i
			bestLoss = loss
		}
	}
	return best, nil
}

// TieBreak is the paper's tie-breaking algorithm: rank candidates by
// the baseline MFP heuristic, and among the candidates tied at the
// optimal MFP prefer one the tie-breaking predictor expects to survive
// the job. If every tied candidate is predicted to fail, the choice is
// arbitrary (the first; Section 4.2).
type TieBreak struct {
	Oracle predict.PartitionOracle
}

// Name implements Policy.
func (tb *TieBreak) Name() string { return "tiebreak" }

// Choose implements Policy.
func (tb *TieBreak) Choose(ctx *PlacementContext, cands []torus.Partition) (int, error) {
	if len(cands) == 0 {
		return -1, nil
	}
	g := ctx.Grid.Geometry()
	until := ctx.Now + ctx.Job.Estimate

	bestMFP := -1
	if cap(ctx.ints) < len(cands) {
		ctx.ints = make([]int, len(cands))
	}
	afters := ctx.ints[:len(cands)]
	for i, p := range cands {
		after, err := mfpAfter(ctx, p)
		if err != nil {
			return -1, err
		}
		afters[i] = after
		if afters[i] > bestMFP {
			bestMFP = afters[i]
		}
	}
	first := -1
	for i, p := range cands {
		if afters[i] != bestMFP {
			continue
		}
		if first == -1 {
			first = i
		}
		if !tb.Oracle.PartitionWillFail(g.Nodes(p), ctx.Now, until) {
			return i, nil // tied on MFP and predicted healthy
		}
	}
	return first, nil // all tied candidates predicted to fail: arbitrary
}

var (
	_ Policy = Baseline{}
	_ Policy = (*Balancing)(nil)
	_ Policy = (*TieBreak)(nil)
)
