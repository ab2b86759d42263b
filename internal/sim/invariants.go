package sim

import (
	"fmt"

	"bgsched/internal/job"
	"bgsched/internal/torus"
)

// InvariantError reports a conservation invariant violated during a run
// with Config.CheckInvariants set. It names the check and carries the
// simulation time at which the violation was observed, so a failing
// sweep point can be reproduced by replaying the same configuration.
type InvariantError struct {
	Time   float64 // simulation time of the violating event
	Check  string  // which invariant failed (e.g. "free-count")
	Detail string  // human-readable specifics
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("sim: invariant %q violated at t=%g: %s", e.Check, e.Time, e.Detail)
}

// verifyInvariants validates machine-state conservation after one
// event. It is pure observation: the grid and run state are never
// modified. The checks, in order:
//
//  1. ownership: every allocated node belongs to a currently running
//     job or to a configured downtime hold — probe markers must never
//     escape a policy evaluation;
//  2. free-count: the grid's cached free count is non-negative and
//     equals a fresh scan of the occupancy map;
//  3. partition-ownership: each running job owns every node of its
//     recorded partition (exclusive per-node owners make this also a
//     pairwise non-overlap proof);
//  4. node-conservation: free + held-down + running-partition nodes
//     account for the whole machine;
//  5. start-conservation: starts = finishes + kills + currently
//     running (no run state is ever leaked or double-counted).
//
// Event-time monotonicity, the remaining invariant, is enforced
// unconditionally by the Run loop itself.
func (s *Simulator) verifyInvariants() error {
	gr := s.grid
	g := s.cfg.Geometry
	n := g.N()

	free, down := 0, 0
	for id := 0; id < n; id++ {
		switch owner := gr.OwnerAt(id); {
		case owner == torus.FreeOwner:
			free++
		case owner == downOwner:
			down++
		case owner > 0:
			if _, ok := s.running.get(job.ID(owner)); !ok {
				return &InvariantError{Time: s.k.now, Check: "ownership",
					Detail: fmt.Sprintf("node %d owned by job %d which is not running", id, owner)}
			}
		default:
			return &InvariantError{Time: s.k.now, Check: "ownership",
				Detail: fmt.Sprintf("node %d held by reserved owner %d", id, owner)}
		}
	}
	if fc := gr.FreeCount(); fc < 0 || fc != free {
		return &InvariantError{Time: s.k.now, Check: "free-count",
			Detail: fmt.Sprintf("cached free count %d, occupancy scan found %d", fc, free)}
	}

	claimed := 0
	for _, r := range s.running {
		id := r.job.ID
		bad := -1
		g.ForEachNode(r.part, func(node int) bool {
			if gr.OwnerAt(node) != int64(id) {
				bad = node
				return false
			}
			return true
		})
		if bad >= 0 {
			return &InvariantError{Time: s.k.now, Check: "partition-ownership",
				Detail: fmt.Sprintf("job %d's partition %v includes node %d owned by %d",
					id, r.part, bad, gr.OwnerAt(bad))}
		}
		claimed += r.part.Size()
	}
	if free+down+claimed != n {
		return &InvariantError{Time: s.k.now, Check: "node-conservation",
			Detail: fmt.Sprintf("free %d + down %d + running %d != machine %d", free, down, claimed, n)}
	}

	if s.nStarts != s.nFinishes+s.nKills+len(s.running) {
		return &InvariantError{Time: s.k.now, Check: "start-conservation",
			Detail: fmt.Sprintf("starts %d != finishes %d + kills %d + running %d",
				s.nStarts, s.nFinishes, s.nKills, len(s.running))}
	}
	return nil
}
