package sim

import "bgsched/internal/job"

// runSet holds the run states of the running jobs sorted by job ID:
// lookups binary-search and iteration is in job-id order. Its capacity
// is fixed up front at the most jobs that can run at once (each holds
// at least one node, and a job runs at most once at a time), so
// starting a run never allocates. A map would: churn leaves deletion
// tombstones that force a regrowth at hash-seed-dependent moments.
type runSet []*runState

func newRunSet(nodes, jobs int) runSet { return make(runSet, 0, min(nodes, jobs)) }

// search returns the index of id's run state, or where it would go.
func (rs runSet) search(id job.ID) (int, bool) {
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].job.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rs) && rs[lo].job.ID == id
}

// get returns the run state of job id, if it is running.
func (rs runSet) get(id job.ID) (*runState, bool) {
	if i, ok := rs.search(id); ok {
		return rs[i], true
	}
	return nil, false
}

// put inserts r, replacing the run state of a job already running.
func (rs *runSet) put(r *runState) {
	i, ok := rs.search(r.job.ID)
	if ok {
		(*rs)[i] = r
		return
	}
	*rs = append(*rs, nil)
	copy((*rs)[i+1:], (*rs)[i:])
	(*rs)[i] = r
}

// remove drops job id's run state, if any.
func (rs *runSet) remove(id job.ID) {
	if i, ok := rs.search(id); ok {
		*rs = append((*rs)[:i], (*rs)[i+1:]...)
	}
}
