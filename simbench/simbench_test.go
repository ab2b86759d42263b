package main

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"bgsched/internal/build"
	"bgsched/internal/partition"
	"bgsched/internal/sim"
)

// A run whose output differs from the recorded digest in any reported
// field counts as failed, and so does a run that errs.
func TestPerturbedResultFails(t *testing.T) {
	w, err := workloadByName("llnl-ckpt-logged", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	u := w.sims[0]
	r, err := runSim(u, plain)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(digestBook{w.name: {u.name: r.digest}}, w.name, defaultSeed, false)
	if !chk.check(u.name, r.digest) {
		t.Fatal("the recorded output failed its own check")
	}

	res, err := resultOf(u)
	if err != nil {
		t.Fatal(err)
	}
	res.Summary.AvgWait += 1e-9
	if chk.check(u.name, resultDigest(res, r.elog.digest(), r.trace.digest())) {
		t.Error("a perturbed summary passed")
	}
	sk := newSink(false)
	sk.Write([]byte("x"))
	if chk.check(u.name, resultDigest(res, sk.digest(), r.trace.digest())) {
		t.Error("perturbed event-log bytes passed")
	}
	if chk.check(u.name, "") {
		t.Error("an erring run passed")
	}
	if chk.ok != 1 || chk.failed != 3 {
		t.Errorf("ok=%d failed=%d, want 1 and 3", chk.ok, chk.failed)
	}

	// Away from the default seed the check is repeatability.
	rep := newChecker(nil, w.name, 2, false)
	if !rep.check("u", "a") || !rep.check("u", "a") || rep.check("u", "b") {
		t.Error("repeatability check: want pass, pass, fail")
	}
}

// resultOf runs u without emission and returns its sim.Result.
func resultOf(u simUnit) (sim.Result, error) {
	var b build.Builder
	sc, art, err := b.Build(u.cfg)
	if err != nil {
		return sim.Result{}, err
	}
	defer art.ReleaseJobs()
	s, err := sim.New(sc)
	if err != nil {
		return sim.Result{}, err
	}
	return s.RunContext(context.Background())
}

// Probing the scheduler changes no output: traced and untraced runs of
// every workload, and of an anneal-finder configuration, give
// identical digests, and the probe keeps the finder's capabilities.
func TestTracedRunsMatchUntraced(t *testing.T) {
	var units []simUnit
	for _, name := range []string{"fig-sweep", "sdsc-easy-fast", "llnl-ckpt-logged"} {
		w, err := workloadByName(name, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, w.sims[0])
	}
	units = append(units, simUnit{name: "anneal", cfg: build.RunConfig{
		Workload: "SDSC", JobCount: 400, LoadScale: 1.2, FailureNominal: 1000,
		Scheduler: build.SchedBalancing, Param: 0.1, Finder: "anneal", AnnealSeed: 5, Seed: 3,
	}})
	for _, u := range units {
		p, err := runSim(u, plain)
		if err != nil {
			t.Fatal(u.name, err)
		}
		r, err := runSim(u, traced)
		if err != nil {
			t.Fatal(u.name, err)
		}
		if p.digest != r.digest {
			t.Errorf("%s: traced digest %s, untraced %s", u.name, r.digest, p.digest)
		}
		st := r.layers
		if st.finderCalls == 0 || st.policy.N == 0 {
			t.Errorf("%s: probes saw %d finder and %d policy calls", u.name, st.finderCalls, st.policy.N)
		}
		f, err := partition.ByName(u.cfg.Finder, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, buffered := f.(partition.BufferedFinder); buffered && st.finderPlain != 0 {
			t.Errorf("%s: buffered finder saw %d FreeOfSize calls", u.name, st.finderPlain)
		}
	}

	st := &layerStats{}
	for _, name := range partition.Names {
		f, err := partition.ByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := probeFinder(f, st)
		_, fb := f.(partition.BufferedFinder)
		_, pb := p.(partition.BufferedFinder)
		_, fp := f.(partition.Placer)
		_, pp := p.(partition.Placer)
		if fb != pb || fp != pp {
			t.Errorf("%s: probe capabilities buffered=%v placer=%v, finder %v %v", name, pb, pp, fb, fp)
		}
	}
}

// The engine runs exactly the unit's point, and the traced run's direct
// simulations are the ones the engine runs: each unit's table values
// are its direct runs' values.
func TestSweepSliceMatchesDirectRuns(t *testing.T) {
	w, err := workloadByName("fig-sweep", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string][]float64{}
	for _, u := range w.sims {
		u.cfg.JobCount = 80
		res, err := resultOf(u)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Summary
		if fig, _, _ := strings.Cut(u.unit, "|"); slotsPerPoint(fig) == 3 {
			direct[u.unit] = append(direct[u.unit], s.Utilization, s.UnusedCapacity, s.LostCapacity)
		} else {
			direct[u.unit] = append(direct[u.unit], s.AvgSlowdown)
		}
	}
	for _, f := range w.figs {
		f.opt.JobCount = 80
		tables, err := f.runFig()
		if err != nil {
			t.Fatal(err)
		}
		var got []float64
		for _, tb := range tables {
			for _, s := range tb.Series {
				for _, y := range s.Y {
					if !math.IsNaN(y) {
						got = append(got, y)
					}
				}
			}
		}
		want := direct[f.name]
		sort.Float64s(got)
		sort.Float64s(want)
		if len(got) != len(want) {
			t.Fatalf("%s: engine filled %d slots, direct runs give %d", f.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: engine values %v, direct %v", f.name, got, want)
				break
			}
		}
	}
}
