package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval. Calls too many for a span each are
// kept as an aggregate child of the run span (Agg set, no start/end).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root
	Run    int     `json:"run"`    // the traced unit run the span belongs to
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced phase began
	Dur    float64 `json:"dur_s"`
	Self   float64 `json:"self_s"` // Dur minus the part covered by children
	Calls  int64   `json:"calls,omitempty"`
	// Agg holds the timed calls of an aggregate span; the finder's are
	// a sample (see finderStride) and its Dur is scaled up from them.
	Agg *agg `json:"agg,omitempty"`
}

// counts are one traced run's deterministic work counts; two traced
// runs of a configuration must agree on every field.
type counts struct {
	events, schedCalls, reservations, bfAttempts, bfSuccesses int64
	policyCalls, policyCands                                  int64
	finderCalls, finderCands, finderEmpty, finderPlain        int64
	buildHits, buildMisses, fastHits, fastMisses              int64
	elogBytes, elogWrites, traceBytes, traceWrites            int64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.schedCalls += o.schedCalls
	c.reservations += o.reservations
	c.bfAttempts += o.bfAttempts
	c.bfSuccesses += o.bfSuccesses
	c.policyCalls += o.policyCalls
	c.policyCands += o.policyCands
	c.finderCalls += o.finderCalls
	c.finderCands += o.finderCands
	c.finderEmpty += o.finderEmpty
	c.finderPlain += o.finderPlain
	c.buildHits += o.buildHits
	c.buildMisses += o.buildMisses
	c.fastHits += o.fastHits
	c.fastMisses += o.fastMisses
	c.elogBytes += o.elogBytes
	c.elogWrites += o.elogWrites
	c.traceBytes += o.traceBytes
	c.traceWrites += o.traceWrites
}

// countsOf reads a traced run's probes, sinks and telemetry.
func countsOf(r simRun) counts {
	reg := r.tel
	c := counts{
		events:       r.events,
		schedCalls:   reg.Histogram("sched.decision.seconds").Count(),
		reservations: reg.Counter("sched.reservations.computed").Value(),
		bfAttempts:   reg.Counter("sched.backfill.attempts").Value(),
		bfSuccesses:  reg.Counter("sched.backfill.successes").Value(),
		policyCalls:  r.layers.policy.N,
		policyCands:  r.layers.policyCands,
		finderCalls:  r.layers.finderCalls,
		finderCands:  r.layers.finderCands,
		finderEmpty:  r.layers.finderEmpty,
		finderPlain:  r.layers.finderPlain,
		buildHits:    reg.Counter("build.cache.hits").Value(),
		buildMisses:  reg.Counter("build.cache.misses").Value(),
		fastHits:     reg.Counter("finder.fast.cache_hits").Value(),
		fastMisses:   reg.Counter("finder.fast.cache_misses").Value(),
	}
	if r.elog != nil {
		c.elogBytes, c.elogWrites = r.elog.bytes, r.elog.writes
		c.traceBytes, c.traceWrites = r.trace.bytes, r.trace.writes
	}
	return c
}

// unitTimes holds one unit's repeated timings, in seconds.
type unitTimes struct {
	plainWall, plainSpans, quietWall                []float64
	wall, build, create, run, sched, finder, policy []float64
	emitWrite                                       []float64
}

// tracedRun measures the per-layer metrics. Each pass runs every
// simulation of the workload untraced, then traced, then (when it
// emits) with emission off; fig-sweep adds one engine pass over the
// slice. Pairing the variants inside a pass keeps machine drift out of
// the differences between them.
func tracedRun(w *workload, budget time.Duration, chk *checker, rep *report, outDir string) (map[string]metric, bool, error) {
	if err := coldBuild(w.sims); err != nil {
		return nil, false, err
	}
	times := make([]unitTimes, len(w.sims))
	var perPass counts
	repeats := true
	var engineWalls []float64
	var spans []span
	start := time.Now()
	runID := 0
	for rep.Passes = 0; rep.Passes < 2 || time.Since(start) < budget; rep.Passes++ {
		var pass counts
		for k, u := range w.sims {
			t := &times[k]
			p, err := runSim(u, plain)
			if !chk.check(u.name, digestOr(p, err)) {
				continue
			}
			t.plainWall = append(t.plainWall, p.wall.Seconds())
			t.plainSpans = append(t.plainSpans, (p.build + p.create + p.run).Seconds())

			r, err := runSim(u, traced)
			if !chk.check(u.name, digestOr(r, err)) {
				continue
			}
			runID++
			spans = appendSpans(spans, r, runID, start)
			t.wall = append(t.wall, r.wall.Seconds())
			t.build = append(t.build, r.build.Seconds())
			t.create = append(t.create, r.create.Seconds())
			t.run = append(t.run, r.run.Seconds())
			t.sched = append(t.sched, r.tel.Histogram("sched.decision.seconds").Sum())
			t.finder = append(t.finder, r.layers.finderTime().Seconds())
			t.policy = append(t.policy, r.layers.policy.Total.Seconds())
			if r.elog != nil {
				t.emitWrite = append(t.emitWrite, (r.elog.spent + r.trace.spent).Seconds())
			}
			pass.add(countsOf(r))

			if u.emit {
				q, err := runSim(u, noEmit)
				if chk.check(u.name+"/quiet", digestOr(q, err)) {
					t.quietWall = append(t.quietWall, q.wall.Seconds())
				}
			}
		}
		if rep.Passes == 0 {
			perPass = pass
		} else if pass != perPass {
			repeats = false
		}
		if len(w.figs) > 0 {
			t0 := time.Now()
			for _, u := range timedUnits(w) {
				_, _, _, d := u.run()
				chk.check(u.name, d)
			}
			engineWalls = append(engineWalls, time.Since(t0).Seconds())
		}
	}
	rep.Samples = runID
	if err := writeSpans(outDir, rep, spans); err != nil {
		return nil, false, err
	}

	// Per-pass totals: each unit at its median repeat.
	sum := func(get func(*unitTimes) []float64) float64 {
		s := 0.0
		for k := range times {
			if xs := get(&times[k]); len(xs) > 0 {
				s += median(xs)
			}
		}
		return s
	}
	plainWall := sum(func(t *unitTimes) []float64 { return t.plainWall })
	wall := sum(func(t *unitTimes) []float64 { return t.wall })
	buildS := sum(func(t *unitTimes) []float64 { return t.build })
	createS := sum(func(t *unitTimes) []float64 { return t.create })
	runS := sum(func(t *unitTimes) []float64 { return t.run })
	schedS := sum(func(t *unitTimes) []float64 { return t.sched })
	finderS := sum(func(t *unitTimes) []float64 { return t.finder })
	policyS := sum(func(t *unitTimes) []float64 { return t.policy })
	engineSelf, emitCost := 0.0, 0.0
	if len(engineWalls) > 0 {
		engineSelf = median(engineWalls) - sum(func(t *unitTimes) []float64 { return t.plainSpans })
	}
	for k, u := range w.sims {
		if u.emit && len(times[k].quietWall) > 0 {
			emitCost += median(times[k].plainWall) - median(times[k].quietWall)
		}
	}
	c := perPass
	m := map[string]metric{
		"build.calls":                   {float64(len(w.sims)), "count"},
		"build.s":                       {buildS, "s"},
		"build.cache_hit_frac":          {frac(c.buildHits, c.buildHits+c.buildMisses), "ratio"},
		"experiments.engine_self_s":     {engineSelf, "s"},
		"sim.events":                    {float64(c.events), "count"},
		"sim.new_s":                     {createS, "s"},
		"sim.run_s":                     {runS, "s"},
		"sim.us_per_event":              {runS / float64(max(1, c.events)) * 1e6, "us"},
		"sim.self_s":                    {runS - schedS, "s"},
		"core.sched.calls":              {float64(c.schedCalls), "count"},
		"core.sched.s":                  {schedS, "s"},
		"core.sched.self_s":             {schedS - finderS - policyS, "s"},
		"core.reservations":             {float64(c.reservations), "count"},
		"core.backfill.attempts":        {float64(c.bfAttempts), "count"},
		"core.backfill.successes":       {float64(c.bfSuccesses), "count"},
		"core.backfill.success_frac":    {frac(c.bfSuccesses, c.bfAttempts), "ratio"},
		"core.policy.calls":             {float64(c.policyCalls), "count"},
		"core.policy.cands":             {float64(c.policyCands), "count"},
		"core.policy.s":                 {policyS, "s"},
		"partition.finder.calls":        {float64(c.finderCalls), "count"},
		"partition.finder.cands":        {float64(c.finderCands), "count"},
		"partition.finder.empty_frac":   {frac(c.finderEmpty, c.finderCalls), "ratio"},
		"partition.finder.s":            {finderS, "s"},
		"partition.fast.cache_hit_frac": {frac(c.fastHits, c.fastHits+c.fastMisses), "ratio"},
		"emit.eventlog.bytes":           {float64(c.elogBytes), "B"},
		"emit.eventlog.writes":          {float64(c.elogWrites), "count"},
		"emit.trace.bytes":              {float64(c.traceBytes), "B"},
		"emit.trace.writes":             {float64(c.traceWrites), "count"},
		"emit.write_s":                  {sum(func(t *unitTimes) []float64 { return t.emitWrite }), "s"},
		"emit.cost_s":                   {emitCost, "s"},
		"trace.overhead_frac":           {wall/plainWall - 1, "ratio"},
		"trace.span_coverage_frac":      {(buildS + createS + runS) / wall, "ratio"},
	}
	if c.finderPlain > 0 {
		rep.Extra = map[string]any{"finder_plain_calls": c.finderPlain}
	}
	return m, repeats, nil
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digestOr is a run's digest, or "" (a failed check) when it erred.
func digestOr(r simRun, err error) string {
	if err != nil {
		return ""
	}
	return r.digest
}

// appendSpans records one traced run: the unit span, its build,
// sim.new and sim.run children, and under sim.run the scheduler (from
// the program's sched.decision.seconds telemetry), whose finder and
// policy probes are aggregates, and the emission sinks' writes.
func appendSpans(spans []span, r simRun, run int, origin time.Time) []span {
	base := len(spans)
	id := func(i int) int { return base + i + 1 }
	at := r.start.Sub(origin).Seconds()
	schedS := r.tel.Histogram("sched.decision.seconds").Sum()
	finder, policy := r.layers.finderTimed, r.layers.policy
	finderS := r.layers.finderTime().Seconds()
	var emit agg
	if r.elog != nil {
		emit = agg{N: r.elog.writes + r.trace.writes, Total: r.elog.spent + r.trace.spent}
	}
	b, c, x := r.build.Seconds(), r.create.Seconds(), r.run.Seconds()
	spans = append(spans,
		span{ID: id(0), Run: run, Name: "unit", Start: at, Dur: r.wall.Seconds(), Self: r.wall.Seconds() - b - c - x},
		span{ID: id(1), Parent: id(0), Run: run, Name: "build", Start: at, Dur: b, Self: b},
		span{ID: id(2), Parent: id(0), Run: run, Name: "sim.new", Start: at + b, Dur: c, Self: c},
		span{ID: id(3), Parent: id(0), Run: run, Name: "sim.run", Start: at + b + c, Dur: x, Self: x - schedS - emit.Total.Seconds()},
		span{ID: id(4), Parent: id(3), Run: run, Name: "core.sched", Dur: schedS,
			Self: schedS - finderS - policy.Total.Seconds(), Calls: r.tel.Histogram("sched.decision.seconds").Count()},
		span{ID: id(5), Parent: id(4), Run: run, Name: "partition.finder", Dur: finderS, Self: finderS,
			Calls: r.layers.finderCalls, Agg: &finder},
		span{ID: id(6), Parent: id(4), Run: run, Name: "core.policy", Dur: policy.Total.Seconds(), Self: policy.Total.Seconds(),
			Calls: policy.N, Agg: &policy},
	)
	if r.elog != nil {
		spans = append(spans, span{ID: id(7), Parent: id(3), Run: run, Name: "emit.write", Dur: emit.Total.Seconds(), Self: emit.Total.Seconds(),
			Calls: emit.N})
	}
	return spans
}

// writeSpans dumps the traced run's spans as NDJSON, headed by the
// report, to <dir>/spans-<workload>-seed<n>.ndjson.
func writeSpans(dir string, rep *report, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.ndjson", rep.Workload, rep.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
