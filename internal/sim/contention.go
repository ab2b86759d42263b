package sim

import (
	"encoding/json"
	"fmt"
	"sort"

	"bgsched/internal/contention"
	"bgsched/internal/job"
	"bgsched/internal/trace"
)

// ---------------------------------------------------------------------
// Network contention: runtime dilation from shared torus lines.

// contentionSubsystem charges running jobs for the torus lines their
// partitions share: when a job starts, it and every co-resident
// neighbor whose partition shares lines with it are each dilated by
// the model's per-line charge (internal/contention). The dilation
// extends the affected run's completion via the same epoch-reissue
// idiom checkpoint overheads use, so killed or rescheduled runs never
// see stale finish events. It owns no event kinds — it rides the start
// hook — and a nil config keeps every hook a no-op, so the paper's
// main runs are untouched.
type contentionSubsystem struct {
	s   *Simulator
	cfg *contention.Config

	// Accumulated model state, mirrored into Result as it accrues and
	// round-tripped through snapshots: total charges applied, total
	// dilation seconds, and the per-job dilation breakdown.
	charges int
	total   float64
	perJob  map[job.ID]float64
}

func (c *contentionSubsystem) attach(*kernel) {}

func (c *contentionSubsystem) name() string { return "contention" }

// contentionState is the subsystem's snapshot payload: the aggregate
// counters plus the per-job dilation ledger, jobs sorted so the
// canonical snapshot encoding is stable.
type contentionState struct {
	Charges int                `json:"charges"`
	Total   float64            `json:"total"`
	Jobs    []contentionJobRow `json:"jobs,omitempty"`
}

type contentionJobRow struct {
	Job      job.ID  `json:"job"`
	Dilation float64 `json:"dilation"`
}

// SnapshotState serializes the dilation ledger. A disabled model keeps
// no state (nil), so runs without contention produce the exact
// snapshot bytes they did before the subsystem existed.
func (c *contentionSubsystem) SnapshotState() (json.RawMessage, error) {
	if c.cfg == nil {
		return nil, nil
	}
	st := contentionState{Charges: c.charges, Total: c.total}
	for id := range c.perJob {
		st.Jobs = append(st.Jobs, contentionJobRow{Job: id, Dilation: c.perJob[id]})
	}
	sort.Slice(st.Jobs, func(i, j int) bool { return st.Jobs[i].Job < st.Jobs[j].Job })
	b, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("sim: contention snapshot: %w", err)
	}
	return b, nil
}

// RestoreState feeds a captured ledger back and mirrors the aggregates
// into the restored Result. A branch that disabled contention drops
// the payload (defined branch semantics: the new mechanism starts from
// its own zero state).
func (c *contentionSubsystem) RestoreState(data json.RawMessage) error {
	if data == nil || c.cfg == nil {
		return nil
	}
	var st contentionState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("sim: contention restore: %w", err)
	}
	if st.Charges < 0 || st.Total < 0 {
		return fmt.Errorf("sim: contention restore: negative ledger (charges %d, total %g)", st.Charges, st.Total)
	}
	c.charges = st.Charges
	c.total = st.Total
	c.perJob = make(map[job.ID]float64, len(st.Jobs))
	for _, row := range st.Jobs {
		c.perJob[row.Job] = row.Dilation
	}
	c.s.result.ContentionCharges = st.Charges
	c.s.result.DilationSeconds = st.Total
	return nil
}

// onJobStart charges the contention of the new co-residency: the
// starter pays for every line it shares with each running neighbor,
// and each such neighbor pays for the lines the starter now contends
// on. Neighbors are visited in job-id order, so the charge sequence —
// and with it the event calendar and the causal trace — is
// deterministic. Runs before the checkpoint subsystem's start hook in
// the wiring list, so the first checkpoint is scheduled against the
// final (dilated) epoch and completion.
func (c *contentionSubsystem) onJobStart(r *runState) {
	if c.cfg == nil {
		return
	}
	s := c.s
	// The starter's own chain record ("start") is the cause of every
	// dilation this co-residency inflicts.
	startSeq := s.progress[r.job.ID].lastSeq
	selfCharge := 0.0
	for _, n := range s.running {
		if n == r {
			continue
		}
		charge := c.cfg.Charge(s.cfg.Geometry, r.part, n.part)
		if charge <= 0 {
			continue
		}
		selfCharge += charge
		c.dilate(n, charge, startSeq)
	}
	if selfCharge > 0 {
		c.dilate(r, selfCharge, startSeq)
	}
}

// dilate extends one running job's completion by charge seconds. The
// dilation is pure overhead — it produces no work — so it folds into
// overheadSoFar exactly like a checkpoint overhead, keeping the saved-
// work accounting intact, and the pending finish event is reissued
// under a fresh epoch.
func (c *contentionSubsystem) dilate(r *runState, charge float64, cause uint64) {
	s := c.s
	p := s.progress[r.job.ID]
	r.overheadSoFar += charge
	r.finishTime += charge
	r.expFinish += charge
	r.epoch = p.nextEpoch
	p.nextEpoch++
	s.k.push(event{time: r.finishTime, kind: evFinish, jobID: r.job.ID, epoch: r.epoch})

	c.charges++
	c.total += charge
	if c.perJob == nil {
		c.perJob = make(map[job.ID]float64)
	}
	c.perJob[r.job.ID] += charge
	s.result.ContentionCharges++
	s.result.DilationSeconds += charge
	s.met.contentions.Inc()
	s.met.dilation.Observe(charge)
	s.logEvent("dilate", r.job.ID, 0, &r.part)
	if s.cfg.Trace != nil {
		p.lastSeq = s.traceJob("dilate", r.job.ID, cause,
			trace.Num("seconds", charge), trace.Fint("epoch", int64(r.epoch)))
	}
}
