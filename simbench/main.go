// Command simbench is the repository's benchmark. One invocation runs
// one workload for a fixed time and prints its metrics as the last line
// of standard output:
//
//	simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics with no
// instrumentation beyond its own clocks. With --trace 1 it measures the
// per-layer metrics: it wraps the scheduler's policy and finder in
// probes, turns on the program's telemetry, and pairs every traced run
// with an untraced run of the same configuration. Every run's output is
// checked against a digest (see digest.go). README.md describes the
// workloads and metrics; run.sh builds and runs it from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"bgsched/internal/build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the line printed before the result: where and how the
// figures were taken.
type report struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Trace       int            `json:"trace"`
	Fingerprint fingerprint    `json:"fingerprint"`
	Passes      int            `json:"passes"`
	Samples     int            `json:"samples"`
	TailRank    float64        `json:"run_s_p90_rank,omitempty"`
	FailedUnits []string       `json:"failed_units,omitempty"`
	Extra       map[string]any `json:"extra,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "fig-sweep, sdsc-easy-fast or llnl-ckpt-logged")
	seed := fs.Int64("seed", defaultSeed, "benchmark seed; every input derives from it")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	record := fs.String("record", "", "record this seed's output digests into the digest book at this path")
	outDir := fs.String("out", ".bench_build", "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "simbench: --trace must be 0 or 1")
		return 2
	}
	// One simulation at a time on one processor: on a shared 2-CPU
	// machine GOMAXPROCS=1 narrows run-to-run spread, and the sweep
	// engine is held to one worker (figUnit.runFig).
	runtime.GOMAXPROCS(1)

	w, err := workloadByName(*wlName, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	book, err := loadRecorded()
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	chk := newChecker(book, w.name, *seed, *record != "")
	rep := report{Workload: w.name, Seed: *seed, Trace: *traceFlag, Fingerprint: newFingerprint()}
	budget := time.Duration(*seconds * float64(time.Second))

	var metrics map[string]metric
	steady := true
	if *traceFlag == 1 || *record != "" {
		metrics, steady, err = tracedRun(w, budget, chk, &rep, *outDir)
	} else {
		metrics, err = endToEnd(w, budget, chk, &rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if *record != "" {
		if chk.failed > 0 {
			fmt.Fprintf(stderr, "simbench: not recording, output not repeatable in %v\n", chk.bad)
			return 1
		}
		if err := writeRecord(*record, w.name, chk.got); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
	}
	rep.Fingerprint.Load1End = load1()
	rep.FailedUnits = chk.bad
	res := result{
		Correct:   chk.failed == 0 && steady,
		Attempted: chk.ok + chk.failed,
		Failed:    chk.failed,
		Metrics:   metrics,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	return 0
}

// setupPasses is how many times set-up is repeated; setup_s is the
// median.
const setupPasses = 3

// timedUnit is one unit of the end-to-end pass.
type timedUnit struct {
	name   string
	events int64
	run    func() (wall, cpu time.Duration, events int64, digest string)
}

// endToEnd measures the end-to-end metrics: set-up, then passes over
// the workload's units until the budget is spent.
func endToEnd(w *workload, budget time.Duration, chk *checker, rep *report) (map[string]metric, error) {
	units := timedUnits(w)

	var setups []float64
	for i := 0; i < setupPasses; i++ {
		// Each set-up starts from an empty build cache and a collected
		// heap, as in a fresh process.
		build.Shared.Purge()
		runtime.GC()
		t0 := time.Now()
		if err := coldBuild(w.sims); err != nil {
			return nil, err
		}
		_, _, _, d := units[0].run() // warm-up, charged to set-up
		chk.check(units[0].name, d)
		setups = append(setups, time.Since(t0).Seconds())
	}

	if len(w.figs) > 0 {
		// The engine reports no event counts, so one untimed pass runs
		// the sweep's own simulations directly to count them (and to
		// check their outputs).
		idx := map[string]int{}
		for k, u := range units {
			idx[u.name] = k
		}
		for _, u := range w.sims {
			r, err := runSim(u, plain)
			if err != nil {
				chk.check(u.name, "")
				continue
			}
			chk.check(u.name, r.digest)
			units[idx[u.unit]].events += r.events
		}
	}

	walls := make([][]float64, len(units))
	cpus := make([][]float64, len(units))
	var cals []float64
	start := time.Now()
	for rep.Passes = 0; rep.Passes == 0 || time.Since(start) < budget; rep.Passes++ {
		for k := range units {
			cals = append(cals, calibrate().Seconds())
			wall, cpu, events, d := units[k].run()
			chk.check(units[k].name, d)
			walls[k] = append(walls[k], wall.Seconds())
			cpus[k] = append(cpus[k], cpu.Seconds())
			if len(w.figs) == 0 {
				units[k].events = events
			}
		}
	}

	// Each unit is taken at its median repeat, so a slow run moves no
	// figure and seeds never mix in one distribution.
	var wall, cpu, events float64
	var ratios []float64
	for k, u := range units {
		m := median(walls[k])
		wall += m
		cpu += median(cpus[k])
		events += float64(u.events)
		for _, x := range walls[k] {
			ratios = append(ratios, x/m)
		}
	}
	p50 := wall / float64(len(units))
	rep.Samples = len(ratios)
	rep.TailRank = tailRank(len(ratios))
	// Times are reported in reference seconds: scaled by how much slower
	// than calRef the calibration kernel ran next to the units (see
	// calibrate.go). The raw figures go into the report.
	speed := median(cals) / calRef
	rep.Extra = map[string]any{
		"calibration_s": median(cals), "slowdown_vs_ref": speed,
		"raw_wall_s": wall, "raw_cpu_s": cpu, "raw_setup_s": median(setups), "setup_samples_s": setups,
	}
	okFrac := float64(chk.ok) / float64(max(1, chk.ok+chk.failed))
	return map[string]metric{
		"wall_s":       {wall / speed, "s"},
		"cpu_s":        {cpu / speed, "s"},
		"events_per_s": {events / wall * speed, "events/s"},
		"run_s_p50":    {p50 / speed, "s"},
		"run_s_p90":    {p50 * quantile(ratios, rep.TailRank) / speed, "s"},
		"setup_s":      {median(setups) / speed, "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
		"ok_frac":      {okFrac, "ratio"},
	}, nil
}

// timedUnits lists what an end-to-end pass runs: the figure slice
// through the engine for fig-sweep, the simulations otherwise.
func timedUnits(w *workload) []timedUnit {
	var out []timedUnit
	for _, f := range w.figs {
		f := f
		out = append(out, timedUnit{name: f.name, run: func() (time.Duration, time.Duration, int64, string) {
			c0, t0 := cpuTime(), time.Now()
			tables, err := f.runFig()
			wall, cpu := time.Since(t0), cpuTime()-c0
			if err != nil {
				return wall, cpu, 0, ""
			}
			d, err := tablesDigest(tables)
			if err != nil {
				return wall, cpu, 0, ""
			}
			return wall, cpu, 0, d
		}})
	}
	if len(out) > 0 {
		return out
	}
	for _, u := range w.sims {
		u := u
		out = append(out, timedUnit{name: u.name, run: func() (time.Duration, time.Duration, int64, string) {
			r, err := runSim(u, plain)
			if err != nil {
				return r.wall, r.cpu, 0, ""
			}
			return r.wall, r.cpu, r.events, r.digest
		}})
	}
	return out
}
