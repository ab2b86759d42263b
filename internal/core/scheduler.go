package core

import (
	"fmt"
	"math"
	"sort"

	"bgsched/internal/job"
	"bgsched/internal/partition"
	"bgsched/internal/telemetry"
	"bgsched/internal/torus"
)

// BackfillMode selects how the scheduler fills around a blocked queue
// head.
type BackfillMode int

const (
	// BackfillNone: strict FCFS; nothing runs ahead of the head.
	BackfillNone BackfillMode = iota
	// BackfillAggressive: any queued job that fits starts immediately,
	// with no reservation protecting the head (can delay it).
	BackfillAggressive
	// BackfillEASY: the head receives a reservation (time and
	// partition) computed from the estimated completions of running
	// jobs; a later job may start only if it will finish before the
	// reservation time or does not intersect the reserved partition.
	BackfillEASY
)

// String implements fmt.Stringer.
func (m BackfillMode) String() string {
	switch m {
	case BackfillNone:
		return "none"
	case BackfillAggressive:
		return "aggressive"
	case BackfillEASY:
		return "easy"
	}
	return fmt.Sprintf("BackfillMode(%d)", int(m))
}

// Config assembles a scheduler.
type Config struct {
	Policy   Policy
	Finder   partition.Finder // nil defaults to the shape finder
	Backfill BackfillMode
	// Migration enables the compaction pass (Krevat's migration):
	// after releases, running jobs may be moved to defragment the
	// torus. The paper's model migrates without cost.
	Migration bool
	// Telemetry, when non-nil, receives per-decision instrumentation
	// ("sched.*" instruments; see NewScheduler). A nil registry
	// disables collection with no other behaviour change.
	Telemetry *telemetry.Registry
}

// schedMetrics holds the scheduler's instruments, resolved once at
// construction. With a nil registry every field is a nil handle and
// all recording is a no-op.
type schedMetrics struct {
	decision          *telemetry.Timer     // sched.decision.seconds: one Schedule call
	startsFCFS        *telemetry.Counter   // sched.starts.fcfs
	startsBackfill    *telemetry.Counter   // sched.starts.backfill
	backfillAttempts  *telemetry.Counter   // sched.backfill.attempts
	backfillSuccesses *telemetry.Counter   // sched.backfill.successes
	reservations      *telemetry.Counter   // sched.reservations.computed
	reservationDrain  *telemetry.Histogram // sched.reservations.drain_depth: releases simulated until the head fits
}

func newSchedMetrics(reg *telemetry.Registry) schedMetrics {
	return schedMetrics{
		decision:          reg.Timer("sched.decision.seconds"),
		startsFCFS:        reg.Counter("sched.starts.fcfs"),
		startsBackfill:    reg.Counter("sched.starts.backfill"),
		backfillAttempts:  reg.Counter("sched.backfill.attempts"),
		backfillSuccesses: reg.Counter("sched.backfill.successes"),
		reservations:      reg.Counter("sched.reservations.computed"),
		reservationDrain:  reg.Histogram("sched.reservations.drain_depth"),
	}
}

// Running describes a job currently executing, as the scheduler sees
// it. ExpFinish is the simulator's estimate of when its partition
// frees (start + estimated execution time).
type Running struct {
	Job       *job.Job
	Part      torus.Partition
	Start     float64
	ExpFinish float64
}

// Decision is one job start issued by Schedule. The partition has
// already been allocated on the grid when the decision is returned.
type Decision struct {
	Job  *job.Job
	Part torus.Partition
}

// Scheduler implements the paper's FCFS space-sharing scheduler: at
// every scheduling point it starts the queue head whenever any
// partition of the job's size is free, placing it according to the
// configured policy, and then backfills per the configured mode.
//
// The scheduler owns every buffer its decision loop needs — candidate
// lists, the placement context, the EASY reservation's running-set and
// scratch grid, the returned decision slice — plus the MFP engine its
// policies share, so a steady-state Schedule call performs no heap
// allocations. The reuse is invisible in behaviour: decisions are
// byte-identical to the allocate-per-call implementation. A Scheduler
// is consequently not safe for concurrent use (it never was; the
// simulator's event loop is single-threaded).
type Scheduler struct {
	cfg Config
	met schedMetrics

	// The finder's optional capabilities, asserted once here: an
	// interface type assertion on the hot path can allocate, because
	// the runtime rebuilds its per-site type cache at random calls.
	buffered partition.BufferedFinder // nil: the finder allocates its results
	placer   partition.Placer         // nil: candidates keep finder order

	mfp      partition.Engine   // MFP and MFP-after-placement answers
	ctx      PlacementContext   // reused placement context
	cands    []torus.Partition  // candidate buffer for tryStart/tryBackfill
	resCands []torus.Partition  // candidate buffer for reservation probes
	started  []Decision         // returned by Schedule; valid until the next call
	resRun   []Running          // running ∪ fresh starts, for the reservation
	scratch  *torus.Grid        // reservation scratch (stable identity)
	sorter   runningByExpFinish // reusable sort.Interface for the drain order
}

// runningByExpFinish sorts a Running slice by expected finish time.
// Using sort.Sort on a pointer receiver (instead of sort.Slice, whose
// reflect-based swapper allocates per call) keeps reservations
// allocation-free; both entry points run the same pdqsort, so the
// permutation — including the treatment of equal keys — is unchanged.
type runningByExpFinish struct{ rs []Running }

func (s *runningByExpFinish) Len() int           { return len(s.rs) }
func (s *runningByExpFinish) Less(i, j int) bool { return s.rs[i].ExpFinish < s.rs[j].ExpFinish }
func (s *runningByExpFinish) Swap(i, j int)      { s.rs[i], s.rs[j] = s.rs[j], s.rs[i] }

// NewScheduler validates the configuration and returns a scheduler.
func NewScheduler(cfg Config) (*Scheduler, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("core: Config.Policy is required")
	}
	if cfg.Finder == nil {
		cfg.Finder = partition.Instrumented(partition.ShapeFinder{}, cfg.Telemetry)
	}
	switch cfg.Backfill {
	case BackfillNone, BackfillAggressive, BackfillEASY:
	default:
		return nil, fmt.Errorf("core: unknown backfill mode %d", int(cfg.Backfill))
	}
	s := &Scheduler{cfg: cfg, met: newSchedMetrics(cfg.Telemetry)}
	s.buffered, _ = cfg.Finder.(partition.BufferedFinder)
	s.placer, _ = cfg.Finder.(partition.Placer)
	return s, nil
}

// freeOfSize queries the finder into buf when it supports buffered
// queries, falling back to the allocating interface otherwise. The
// returned slice must be treated as owned by the caller of freeOfSize
// either way (buffered finders fill buf; plain finders hand out fresh
// slices).
func (s *Scheduler) freeOfSize(gr *torus.Grid, size int, buf *[]torus.Partition) []torus.Partition {
	if s.buffered != nil {
		*buf = s.buffered.FreeOfSizeInto(gr, size, (*buf)[:0])
		return *buf
	}
	return s.cfg.Finder.FreeOfSize(gr, size)
}

// placementCtx primes the reused placement context for one decision,
// preserving the policy scratch buffers across calls.
func (s *Scheduler) placementCtx(gr *torus.Grid, j *job.Job, now float64) *PlacementContext {
	_, mfp := s.mfp.MaxFree(gr)
	s.ctx.Grid = gr
	s.ctx.Job = j
	s.ctx.Now = now
	s.ctx.MFPBefore = mfp
	s.ctx.mfp = &s.mfp
	return &s.ctx
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Schedule starts as many queued jobs as the policy and backfill mode
// allow at time now. It allocates partitions on gr, removes started
// jobs from q, and returns the start decisions in order. running lists
// the currently executing jobs (used by EASY reservations). The
// returned slice is owned by the scheduler and valid until the next
// Schedule call; callers that keep decisions across calls must copy.
func (s *Scheduler) Schedule(gr *torus.Grid, q *job.Queue, running []Running, now float64) ([]Decision, error) {
	sw := s.met.decision.Start()
	defer sw.Stop()
	s.started = s.started[:0]

	// Phase 1: strict FCFS from the head.
	for q.Len() > 0 {
		head := q.Peek()
		d, ok, err := s.tryStart(gr, head, now)
		if err != nil {
			return s.started, err
		}
		if !ok {
			break
		}
		q.RemoveAt(0)
		s.started = append(s.started, d)
		s.met.startsFCFS.Inc()
	}
	if q.Len() == 0 || s.cfg.Backfill == BackfillNone {
		return s.started, nil
	}

	// Phase 2: backfill around the blocked head.
	switch s.cfg.Backfill {
	case BackfillAggressive:
		// Scan the rest of the queue in FCFS order; anything that fits
		// starts now.
		for i := 1; i < q.Len(); {
			j := q.At(i)
			s.met.backfillAttempts.Inc()
			d, ok, err := s.tryStart(gr, j, now)
			if err != nil {
				return s.started, err
			}
			if !ok {
				i++
				continue
			}
			q.RemoveAt(i)
			s.started = append(s.started, d)
			s.met.backfillSuccesses.Inc()
			s.met.startsBackfill.Inc()
		}
	case BackfillEASY:
		// The reservation must see the machine as it will be: running
		// jobs plus this call's fresh starts, gathered into a reused
		// buffer.
		s.resRun = append(s.resRun[:0], running...)
		for _, d := range s.started {
			s.resRun = append(s.resRun, Running{Job: d.Job, Part: d.Part, Start: now, ExpFinish: now + d.Job.Estimate})
		}
		res, err := s.reservation(gr, q.Peek(), s.resRun, now)
		if err != nil {
			return s.started, err
		}
		for i := 1; i < q.Len(); {
			j := q.At(i)
			s.met.backfillAttempts.Inc()
			d, ok, err := s.tryBackfill(gr, j, now, res)
			if err != nil {
				return s.started, err
			}
			if !ok {
				i++
				continue
			}
			q.RemoveAt(i)
			s.started = append(s.started, d)
			s.met.backfillSuccesses.Inc()
			s.met.startsBackfill.Inc()
		}
	}
	return s.started, nil
}

// preferPlacement gives a placement-searching finder (partition.Placer,
// e.g. the annealing finder) its say: the candidate it picks is swapped
// to the front of the slice. Every policy tie-breaks toward the first
// candidate, so this changes the decision only among policy-equal
// candidates — the legal set is exactly what the finder returned.
// Finders hand out fresh slices, so the in-place swap is safe.
func (s *Scheduler) preferPlacement(gr *torus.Grid, cands []torus.Partition) {
	if s.placer == nil || len(cands) < 2 {
		return
	}
	if k := s.placer.Place(gr, cands); k > 0 && k < len(cands) {
		cands[0], cands[k] = cands[k], cands[0]
	}
}

// tryStart attempts to place j now; on success the partition is
// allocated and the decision returned.
func (s *Scheduler) tryStart(gr *torus.Grid, j *job.Job, now float64) (Decision, bool, error) {
	cands := s.freeOfSize(gr, j.AllocSize, &s.cands)
	if len(cands) == 0 {
		return Decision{}, false, nil
	}
	s.preferPlacement(gr, cands)
	ctx := s.placementCtx(gr, j, now)
	idx, err := s.cfg.Policy.Choose(ctx, cands)
	if err != nil {
		return Decision{}, false, fmt.Errorf("core: policy %s: %w", s.cfg.Policy.Name(), err)
	}
	if idx < 0 {
		return Decision{}, false, nil
	}
	if idx >= len(cands) {
		return Decision{}, false, fmt.Errorf("core: policy %s chose index %d of %d candidates",
			s.cfg.Policy.Name(), idx, len(cands))
	}
	p := cands[idx]
	if err := gr.Allocate(p, int64(j.ID)); err != nil {
		return Decision{}, false, fmt.Errorf("core: start %v: %w", j, err)
	}
	return Decision{Job: j, Part: p}, true, nil
}

// reservationState describes the EASY guarantee for the queue head: it
// will start no later than Time on partition Part.
type reservationState struct {
	Time float64
	Part torus.Partition
	// ok distinguishes a real reservation from the degenerate case
	// where none could be computed (then only finish-before-Time
	// backfills with Time = +Inf are allowed, i.e. everything).
	ok bool
}

// reservation simulates the estimated completions of running jobs on a
// scratch grid to find the earliest time the head job fits, and the
// partition it would then occupy. The scratch grid is reused across
// calls (CopyFrom instead of Clone), so reservations allocate nothing;
// running may be sorted in place (callers pass the scheduler's own
// buffer).
func (s *Scheduler) reservation(gr *torus.Grid, head *job.Job, running []Running, now float64) (reservationState, error) {
	s.met.reservations.Inc()
	if s.scratch == nil || s.scratch.Geometry() != gr.Geometry() {
		s.scratch = gr.Clone()
	} else if err := s.scratch.CopyFrom(gr); err != nil {
		return reservationState{}, fmt.Errorf("core: reservation: %w", err)
	}
	scratch := s.scratch
	s.sorter.rs = running
	sort.Sort(&s.sorter)
	s.sorter.rs = nil

	check := func(t float64) (reservationState, bool, error) {
		cands := s.freeOfSize(scratch, head.AllocSize, &s.resCands)
		if len(cands) == 0 {
			return reservationState{}, false, nil
		}
		s.preferPlacement(scratch, cands)
		ctx := s.placementCtx(scratch, head, t)
		idx, err := s.cfg.Policy.Choose(ctx, cands)
		if err != nil {
			return reservationState{}, false, fmt.Errorf("core: reservation policy %s: %w", s.cfg.Policy.Name(), err)
		}
		if idx < 0 || idx >= len(cands) {
			idx = 0
		}
		return reservationState{Time: t, Part: cands[idx], ok: true}, true, nil
	}

	for i, r := range running {
		if err := scratch.Release(r.Part, int64(r.Job.ID)); err != nil {
			return reservationState{}, fmt.Errorf("core: reservation: %w", err)
		}
		res, ok, err := check(math.Max(r.ExpFinish, now))
		if err != nil {
			return reservationState{}, err
		}
		if ok {
			s.met.reservationDrain.Observe(float64(i + 1))
			return res, nil
		}
	}
	// Head cannot fit even on the drained machine (possible only if its
	// allocation exceeds machine capacity, which upstream validation
	// prevents). Degenerate reservation: no constraint.
	return reservationState{Time: math.Inf(1), ok: false}, nil
}

// tryBackfill starts j now if doing so cannot delay the reserved head
// start: either j is estimated to finish before the reservation time,
// or its partition does not intersect the reserved partition.
func (s *Scheduler) tryBackfill(gr *torus.Grid, j *job.Job, now float64, res reservationState) (Decision, bool, error) {
	cands := s.freeOfSize(gr, j.AllocSize, &s.cands)
	if len(cands) == 0 {
		return Decision{}, false, nil
	}
	finishesInTime := now+j.Estimate <= res.Time
	if !finishesInTime && res.ok {
		// Filter in place: the candidate buffer is ours (buffered
		// finder) or a fresh slice (plain finder), and the kept order is
		// the original order either way.
		g := gr.Geometry()
		filtered := cands[:0]
		for _, p := range cands {
			if !g.Overlaps(p, res.Part) {
				filtered = append(filtered, p)
			}
		}
		cands = filtered
		if len(cands) == 0 {
			return Decision{}, false, nil
		}
	}
	s.preferPlacement(gr, cands)
	ctx := s.placementCtx(gr, j, now)
	idx, err := s.cfg.Policy.Choose(ctx, cands)
	if err != nil {
		return Decision{}, false, fmt.Errorf("core: backfill policy %s: %w", s.cfg.Policy.Name(), err)
	}
	if idx < 0 {
		return Decision{}, false, nil
	}
	if idx >= len(cands) {
		return Decision{}, false, fmt.Errorf("core: policy %s chose index %d of %d candidates",
			s.cfg.Policy.Name(), idx, len(cands))
	}
	p := cands[idx]
	if err := gr.Allocate(p, int64(j.ID)); err != nil {
		return Decision{}, false, fmt.Errorf("core: backfill %v: %w", j, err)
	}
	return Decision{Job: j, Part: p}, true, nil
}
