package main

import (
	"bufio"
	"context"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bgsched/internal/build"
	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
	"bgsched/internal/trace"
)

// runMode selects what one simulation run carries besides the program.
type runMode int

const (
	plain  runMode = iota // as a user runs it; only the benchmark's outer clocks
	traced                // plus telemetry and the finder/policy probes
	noEmit                // plain, with the event log and causal trace off
)

// simRun is the outcome of one simulation run.
type simRun struct {
	digest string
	events int64
	// wall and cpu cover Build through ReleaseJobs; build, create and
	// run are the spans around Build, sim.New and RunContext.
	wall, cpu          time.Duration
	build, create, run time.Duration
	start              time.Time
	layers             *layerStats         // traced only
	tel                *telemetry.Registry // traced only
	elog, trace        *sink               // emitting units only
}

// runSim builds and runs u once through the public entry points.
func runSim(u simUnit, mode runMode) (simRun, error) {
	cfg := u.cfg
	var r simRun
	if u.emit && mode != noEmit {
		r.elog, r.trace = newSink(mode == traced), newSink(mode == traced)
		cfg.EventLog = r.elog
		cfg.Trace = trace.New(r.trace, trace.Options{})
	}
	if mode == traced {
		r.tel = telemetry.New()
	}
	c0 := cpuTime()
	r.start = time.Now()
	b := build.Builder{Telemetry: r.tel}
	sc, art, err := b.Build(cfg)
	if err != nil {
		return r, err
	}
	t1 := time.Now()
	if mode == traced {
		r.layers = &layerStats{}
		if sc.Scheduler, err = probeScheduler(sc.Scheduler, r.layers, r.tel); err != nil {
			return r, err
		}
	}
	s, err := sim.New(sc)
	if err != nil {
		return r, err
	}
	t2 := time.Now()
	res, err := s.RunContext(context.Background())
	if err != nil {
		return r, err
	}
	t3 := time.Now()
	art.ReleaseJobs()
	r.wall, r.cpu = time.Since(r.start), cpuTime()-c0
	r.build, r.create, r.run = t1.Sub(r.start), t2.Sub(t1), t3.Sub(t2)
	r.events = res.EventsDispatched
	if r.elog != nil {
		r.digest = resultDigest(res, r.elog.digest(), r.trace.digest())
	} else {
		r.digest = resultDigest(res)
	}
	return r, nil
}

// coldBuild builds every configuration once; from an empty build
// cache that is the set-up a fresh process pays.
func coldBuild(units []simUnit) error {
	for _, u := range units {
		var b build.Builder
		_, art, err := b.Build(u.cfg)
		if err != nil {
			return err
		}
		art.ReleaseJobs()
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailRank is the highest percentile, at most p90, with at least ten
// of n samples above it.
func tailRank(n int) float64 {
	return math.Max(0.5, math.Min(0.9, 1-10/float64(n)))
}

// fingerprint describes the machine a result came from.
type fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Load1Start float64 `json:"load1_start"`
	Load1End   float64 `json:"load1_end"`
}

func newFingerprint() fingerprint {
	return fingerprint{
		CPU: cpuModel(), NProc: runtime.NumCPU(), Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Load1Start: load1(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// load1 is the 1-minute load average, or -1 where it cannot be read.
func load1() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(raw))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}
