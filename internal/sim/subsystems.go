package sim

import (
	"encoding/json"
	"fmt"

	"bgsched/internal/checkpoint"
	"bgsched/internal/job"
	"bgsched/internal/torus"
	"bgsched/internal/trace"
)

// A subsystem is one simulator mechanism (failures, checkpointing,
// migration, ...) wired in at construction time: attach registers the
// event-kind handlers it owns on the kernel, and the snapshot hooks
// round-trip whatever private mutable state the mechanism keeps outside
// the kernel calendar (most keep none and return nil). Subsystems may
// additionally implement the lifecycle hooks below; the Simulator
// discovers them by interface assertion when wiring, so adding a
// mechanism is one new type plus one entry in the wiring list — never
// an edit to the event loop or another subsystem.
type subsystem interface {
	attach(k *kernel)
	// name identifies the subsystem's state in a snapshot.
	name() string
	// SnapshotState returns the subsystem's private mutable state as
	// canonical JSON (nil when it keeps none).
	SnapshotState() (json.RawMessage, error)
	// RestoreState resets the subsystem from a prior SnapshotState.
	// A nil payload means the snapshot recorded no state; a non-nil
	// payload for a subsystem reconfigured without that state (a branch
	// that swapped the policy) is ignored, not an error.
	RestoreState(data json.RawMessage) error
}

// startHook runs when a job (re)start is committed, after the finish
// event for the new run is scheduled.
type startHook interface {
	onJobStart(r *runState)
}

// startCostHook contributes a delay charged at the front of a run (the
// checkpoint restore penalty); the sum of all hooks shifts both the
// actual and the scheduler-visible completion.
type startCostHook interface {
	startPenalty(p *jobProgress) float64
}

// finishHook runs after a job completion is committed and its outcome
// recorded, before the scheduler pass that refills the machine.
type finishHook interface {
	afterFinish() error
}

// ---------------------------------------------------------------------
// Failures: transient node faults, job kills, and optional downtime.

// failureSubsystem delivers failure-trace events: the failed node's
// running job (if any) is killed and requeued at its original FCFS
// position, and — when a downtime is configured — the node is held out
// of service until a recovery event returns it.
type failureSubsystem struct {
	s *Simulator
}

func (f *failureSubsystem) attach(k *kernel) {
	k.register(evFailure, f.handleFailure)
	k.register(evNodeUp, f.handleNodeUp)
}

func (f *failureSubsystem) name() string { return "failures" }

// SnapshotState: the failure subsystem keeps no private state — the
// undelivered trace lives in the calendar, downtime holds live in the
// occupancy map (downOwner entries) with their recoveries queued as
// evNodeUp events.
func (f *failureSubsystem) SnapshotState() (json.RawMessage, error) { return nil, nil }

func (f *failureSubsystem) RestoreState(json.RawMessage) error { return nil }

func (f *failureSubsystem) handleFailure(e event) error {
	s := f.s
	if s.pending == 0 {
		return nil
	}
	s.result.FailureEvents++
	s.met.failures.Inc()
	owner := s.grid.OwnerAt(e.node)
	s.logEvent("failure", job.ID(max(owner, 0)), e.node, nil)
	var failSeq uint64
	if s.cfg.Trace != nil { // guard: the variadic fields allocate
		failSeq = s.traceSim("failure", trace.Fint("node", int64(e.node)))
	}
	if owner == downOwner {
		return nil // node already held down; the failure is absorbed
	}
	if owner > 0 {
		if err := f.kill(job.ID(owner), failSeq); err != nil {
			return err
		}
	}
	if s.cfg.Downtime > 0 && s.grid.NodeFree(e.node) {
		p := torus.Partition{Base: s.cfg.Geometry.CoordOf(e.node), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
		if err := s.grid.Allocate(p, downOwner); err != nil {
			return fmt.Errorf("sim: downtime hold: %w", err)
		}
		s.k.push(event{time: s.k.now + s.cfg.Downtime, kind: evNodeUp, node: e.node})
	}
	if owner > 0 || s.cfg.Downtime > 0 {
		if err := s.schedule(); err != nil {
			return err
		}
	}
	return s.observe()
}

// kill terminates the run of a job hit by a failure and requeues it.
// cause is the trace sequence of the failure record that delivered the
// fault, linking the kill (and the requeue behind it) to its origin.
func (f *failureSubsystem) kill(id job.ID, cause uint64) error {
	s := f.s
	r, ok := s.running.get(id)
	if !ok {
		return fmt.Errorf("sim: failure killed job %d which is not running", id)
	}
	s.result.JobKills++
	s.nKills++
	s.met.kills.Inc()
	s.met.restarts.Inc()
	if err := s.grid.Release(r.part, int64(id)); err != nil {
		return fmt.Errorf("sim: kill: %w", err)
	}
	p := s.progress[id]
	// Occupancy spent in this run that produced no retained work:
	// everything except the checkpointed progress gained in this run.
	gained := p.savedWork - r.savedAtStart
	wasted := s.k.now - r.start - gained
	if wasted < 0 {
		wasted = 0
	}
	p.lostWork += float64(r.part.Size()) * wasted
	p.restarts++
	s.logEvent("kill", id, 0, &r.part)
	if s.cfg.Trace != nil {
		killSeq := s.traceJob("kill", id, cause,
			trace.F("partition", r.part.String()),
			trace.Num("lost_work", float64(r.part.Size())*wasted))
		p.lastSeq = s.traceJob("requeue", id, killSeq)
	}
	// Removing the run state invalidates this run's pending finish and
	// checkpoint events: their epoch can never match a future run.
	s.running.remove(id)
	s.queue.Push(r.job) // original arrival time: regains FCFS priority
	s.runFree = append(s.runFree, r)
	return nil
}

func (f *failureSubsystem) handleNodeUp(e event) error {
	s := f.s
	p := torus.Partition{Base: s.cfg.Geometry.CoordOf(e.node), Shape: torus.Shape{X: 1, Y: 1, Z: 1}}
	if err := s.grid.Release(p, downOwner); err != nil {
		return fmt.Errorf("sim: node up: %w", err)
	}
	s.logEvent("nodeup", 0, e.node, nil)
	if s.cfg.Trace != nil {
		s.traceSim("nodeup", trace.Fint("node", int64(e.node)))
	}
	if err := s.schedule(); err != nil {
		return err
	}
	return s.observe()
}

// ---------------------------------------------------------------------
// Checkpointing: the Section 8 extension.

// checkpointSubsystem owns the checkpoint calendar: it schedules
// checkpoint (and policy re-poll) events for running jobs, charges the
// checkpoint overhead, banks saved work, and charges the restore
// penalty when a restarted job resumes from a checkpoint. A nil config
// keeps every hook a no-op, matching the paper's main runs.
type checkpointSubsystem struct {
	s   *Simulator
	cfg *checkpoint.Config
}

func (c *checkpointSubsystem) attach(k *kernel) {
	k.register(evCheckpoint, c.handleCheckpoint)
	k.register(evCkptPoll, c.handlePoll)
}

func (c *checkpointSubsystem) name() string { return "checkpoint" }

// SnapshotState delegates to the policy when it carries mutable per-run
// state (checkpoint.Stateful — the prediction-triggered policy's
// per-job trigger throttle). Banked saved work lives in jobProgress and
// pending checkpoints in the calendar, so stateless policies serialize
// nothing.
func (c *checkpointSubsystem) SnapshotState() (json.RawMessage, error) {
	if c.cfg == nil {
		return nil, nil
	}
	sp, ok := c.cfg.Policy.(checkpoint.Stateful)
	if !ok {
		return nil, nil
	}
	b, err := sp.StateJSON()
	if err != nil {
		return nil, fmt.Errorf("sim: checkpoint snapshot: %w", err)
	}
	return b, nil
}

// RestoreState feeds the captured policy state back. A branch that
// swapped to a stateless policy (or disabled checkpointing) drops the
// payload: the new policy starts from its own zero state, which is the
// defined branch semantics.
func (c *checkpointSubsystem) RestoreState(data json.RawMessage) error {
	if data == nil || c.cfg == nil {
		return nil
	}
	sp, ok := c.cfg.Policy.(checkpoint.Stateful)
	if !ok {
		return nil
	}
	if err := sp.RestoreJSON(data); err != nil {
		return fmt.Errorf("sim: checkpoint restore: %w", err)
	}
	return nil
}

func (c *checkpointSubsystem) handleCheckpoint(e event) error {
	s := c.s
	r, ok := s.running.get(e.jobID)
	if !ok || r.epoch != e.epoch || c.cfg == nil {
		return nil // stale
	}
	p := s.progress[e.jobID]
	// Work completed in this run up to now (checkpoint overheads and
	// the restart penalty do not produce work).
	done := (s.k.now - r.start) - r.overheadSoFar - r.restartPenaltyPaid
	if done < 0 {
		done = 0
	}
	p.savedWork = r.savedAtStart + done
	if p.savedWork > r.job.Actual {
		p.savedWork = r.job.Actual
	}
	s.result.Checkpoints++
	s.met.checkpoints.Inc()
	s.logEvent("checkpoint", e.jobID, 0, &r.part)
	if s.cfg.Trace != nil {
		p.lastSeq = s.traceJob("checkpoint", e.jobID, p.lastSeq,
			trace.Num("saved_work", p.savedWork))
	}

	// The checkpoint itself costs Overhead: completion slips, and the
	// finish event is reissued under a fresh epoch.
	over := c.cfg.Overhead
	r.overheadSoFar += over
	r.finishTime += over
	r.expFinish += over
	r.epoch = p.nextEpoch
	p.nextEpoch++
	s.k.push(event{time: r.finishTime, kind: evFinish, jobID: e.jobID, epoch: r.epoch})
	c.scheduleNext(r)
	return nil
}

// handlePoll re-consults the checkpoint policy for a running job.
func (c *checkpointSubsystem) handlePoll(e event) error {
	r, ok := c.s.running.get(e.jobID)
	if !ok || r.epoch != e.epoch || c.cfg == nil {
		return nil // stale
	}
	c.scheduleNext(r)
	return nil
}

// scheduleNext consults the policy for the job's next checkpoint and
// enqueues it. If the policy has nothing scheduled and a poll interval
// is configured, a re-poll is enqueued instead so prediction-triggered
// policies see the sliding horizon.
func (c *checkpointSubsystem) scheduleNext(r *runState) {
	if c.cfg == nil {
		return
	}
	s := c.s
	nodes := s.cfg.Geometry.Nodes(r.part)
	if t, ok := c.cfg.Policy.Next(int64(r.job.ID), s.k.now, r.expFinish, nodes); ok {
		s.k.push(event{time: t, kind: evCheckpoint, jobID: r.job.ID, epoch: r.epoch})
		return
	}
	if poll := c.cfg.PollInterval; poll > 0 && s.k.now+poll < r.expFinish {
		s.k.push(event{time: s.k.now + poll, kind: evCkptPoll, jobID: r.job.ID, epoch: r.epoch})
	}
}

// onJobStart schedules the first checkpoint of a fresh run.
func (c *checkpointSubsystem) onJobStart(r *runState) { c.scheduleNext(r) }

// startPenalty charges the restore cost when a job restarts from a
// checkpoint: only a run that has banked saved work pays it.
func (c *checkpointSubsystem) startPenalty(p *jobProgress) float64 {
	if c.cfg == nil || p.savedWork <= 0 {
		return 0
	}
	return c.cfg.RestartPenalty
}

// ---------------------------------------------------------------------
// Migration: the scheduler's compaction pass at job completion.

// migrationSubsystem re-places running jobs after a completion when the
// scheduler's migration pass is enabled, charging the configured
// checkpoint-and-restart cost per move. It owns no event kinds — it
// rides the finish hook — but registering it as a subsystem keeps all
// cross-cutting mechanisms in one wiring list.
type migrationSubsystem struct {
	s *Simulator
}

func (m *migrationSubsystem) attach(*kernel) {}

func (m *migrationSubsystem) name() string { return "migration" }

// SnapshotState: migration is stateless — it re-derives moves from the
// machine state at every finish.
func (m *migrationSubsystem) SnapshotState() (json.RawMessage, error) { return nil, nil }

func (m *migrationSubsystem) RestoreState(json.RawMessage) error { return nil }

// afterFinish runs the scheduler's compaction pass and applies the
// moves; it fires between the completed job's accounting and the
// scheduler pass that refills the machine.
func (m *migrationSubsystem) afterFinish() error {
	s := m.s
	if !s.cfg.Scheduler.Config().Migration {
		return nil
	}
	list := s.runningList()
	if len(list) == 0 {
		return nil
	}
	moves, err := s.cfg.Scheduler.Migrate(s.grid, list)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for _, mv := range moves {
		r, _ := s.running.get(list[mv.JobIndex].Job.ID)
		r.part = mv.To
		s.result.Migrations++
		s.met.migrations.Inc()
		if cost := s.cfg.MigrationCost; cost > 0 {
			// The move checkpoints and restarts the job: completion
			// slips and the pause produces no work. The pending finish
			// event is reissued under a fresh epoch.
			p := s.progress[r.job.ID]
			r.overheadSoFar += cost
			r.finishTime += cost
			r.expFinish += cost
			r.epoch = p.nextEpoch
			p.nextEpoch++
			s.k.push(event{time: r.finishTime, kind: evFinish, jobID: r.job.ID, epoch: r.epoch})
		}
		s.logEvent("migrate", r.job.ID, 0, &mv.To)
		if s.cfg.Trace != nil {
			p := s.progress[r.job.ID]
			p.lastSeq = s.traceJob("migrate", r.job.ID, s.lastFinishSeq,
				trace.F("to", mv.To.String()), trace.Num("cost", s.cfg.MigrationCost))
		}
	}
	return nil
}
