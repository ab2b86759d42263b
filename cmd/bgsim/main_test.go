package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bgsched/internal/torus"
)

func TestBgsimBasicRun(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "NASA", "-jobs", "80", "-sched", "balancing",
		"-a", "0.1", "-failures", "500",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"jobs finished       80", "avg bounded slowdown", "capacity"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestBgsimCheckpointFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "SDSC", "-jobs", "60", "-sched", "baseline",
		"-failures", "2000", "-ckpt-interval", "600", "-ckpt-overhead", "10",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "checkpoints=") {
		t.Errorf("checkpoint counter missing:\n%s", buf.String())
	}
}

// Every finder algorithm returns identical candidate sets, so swapping
// -finder must never change a simulation's metrics, only its cost.
func TestBgsimFinderFlagInvariant(t *testing.T) {
	base := []string{"-workload", "NASA", "-jobs", "60", "-sched", "balancing", "-a", "0.1", "-failures", "300"}
	var want bytes.Buffer
	if err := run(context.Background(), append([]string{"-finder", "shape"}, base...), &want); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-finder", "fast"},
		{"-finder", "pop"},
	} {
		var got bytes.Buffer
		if err := run(context.Background(), append(args, base...), &got); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%v changed the simulation results:\n%s\nvs\n%s", args, got.String(), want.String())
		}
	}
}

func TestBgsimBadFlags(t *testing.T) {
	cases := [][]string{
		{"-sched", "quantum", "-jobs", "10"},
		{"-backfill", "psychic", "-jobs", "10"},
		{"-combine", "quantum", "-jobs", "10"},
		{"-workload", "EARTH", "-jobs", "10"},
		{"-finder", "psychic", "-jobs", "10"},
		{"-anneal-seed", "-5", "-jobs", "10"},
		{"-contention", "psychic", "-jobs", "10"},
		{"-nonexistent-flag"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestBgsimOversizedMachine: a -machine past torus.MaxNodes exits
// non-zero with an error naming the cap instead of panicking in the
// node-array allocation. The test binary re-runs itself as bgsim so the
// real exit status is checked.
func TestBgsimOversizedMachine(t *testing.T) {
	if os.Getenv("BGSIM_RUN_MAIN") == "1" {
		os.Args = append([]string{"bgsim"}, strings.Fields(os.Getenv("BGSIM_ARGS"))...)
		main()
		os.Exit(0)
	}
	for _, m := range []string{"100000x100000x100000", "4294967296x4294967296x2"} {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestBgsimOversizedMachine$")
		cmd.Env = append(os.Environ(), "BGSIM_RUN_MAIN=1", "BGSIM_ARGS=-machine "+m+" -jobs 1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("-machine %s: exit %v, want status 1; stderr:\n%s", m, err, stderr.String())
		}
		msg := stderr.String()
		if strings.Contains(msg, "panic") || !strings.Contains(msg, strconv.Itoa(torus.MaxNodes)+"-node cap") {
			t.Fatalf("-machine %s: stderr %q, want the node-cap error and no panic", m, msg)
		}
	}
}

func TestBgsimBackfillModes(t *testing.T) {
	for _, mode := range []string{"none", "aggressive", "easy"} {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-jobs", "40", "-backfill", mode}, &buf); err != nil {
			t.Errorf("backfill %s: %v", mode, err)
		}
	}
}

// -check runs the simulation under the invariant guard; a healthy run
// must complete with identical output to an unguarded one.
func TestBgsimCheckFlag(t *testing.T) {
	args := []string{"-workload", "NASA", "-jobs", "60", "-sched", "balancing", "-a", "0.1", "-failures", "300"}
	var plain, checked bytes.Buffer
	if err := run(context.Background(), args, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append(args, "-check"), &checked); err != nil {
		t.Fatal(err)
	}
	if plain.String() != checked.String() {
		t.Fatalf("-check changed the results:\n%s\nvs\n%s", plain.String(), checked.String())
	}
}

func TestBgsimCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-jobs", "60"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted", err)
	}
}

// A run that snapshots mid-flight must print the same metrics as an
// uninterrupted one, and the written snapshot must replay to the same
// metrics again via -restore.
func TestBgsimSnapshotRoundTrip(t *testing.T) {
	base := []string{"-workload", "NASA", "-jobs", "80", "-sched", "balancing", "-a", "0.1", "-failures", "500"}
	var plain bytes.Buffer
	if err := run(context.Background(), base, &plain); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(t.TempDir(), "run.bgsnap")
	var withSnap bytes.Buffer
	if err := run(context.Background(), append([]string{"-snapshot-at", "100", "-snapshot-out", snap}, base...), &withSnap); err != nil {
		t.Fatal(err)
	}
	first, rest, ok := strings.Cut(withSnap.String(), "\n")
	if !ok || !strings.Contains(first, "snapshot") || !strings.Contains(first, "at event 100") {
		t.Fatalf("missing snapshot banner:\n%s", withSnap.String())
	}
	if rest != plain.String() {
		t.Fatalf("snapshotting changed the metrics:\n%s\nvs\n%s", rest, plain.String())
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file: %v (size %v)", err, fi)
	}

	// Faithful replay: -restore alone reproduces the parent's metrics.
	var restored bytes.Buffer
	if err := run(context.Background(), []string{"-restore", snap}, &restored); err != nil {
		t.Fatal(err)
	}
	first, rest, _ = strings.Cut(restored.String(), "\n")
	if !strings.Contains(first, "restored") {
		t.Fatalf("missing restored banner:\n%s", restored.String())
	}
	if rest != plain.String() {
		t.Fatalf("replay diverged from the original run:\n%s\nvs\n%s", rest, plain.String())
	}

	// What-if replay: branch flags swap the policy for the suffix.
	var branched bytes.Buffer
	if err := run(context.Background(), []string{"-restore", snap, "-branch-policy", "baseline", "-branch-finder", "fast"}, &branched); err != nil {
		t.Fatal(err)
	}
	out := branched.String()
	if !strings.Contains(out, "branching sched=baseline finder=fast") {
		t.Fatalf("missing branch note:\n%s", out)
	}
	if !strings.Contains(out, "scheduler           baseline") {
		t.Fatalf("branch policy not applied:\n%s", out)
	}
}

// An interrupt before the snapshot point must fail the command with
// "snapshot point not reached" and never create the output file — a
// partial or empty snapshot on disk would be worse than none.
func TestBgsimSnapshotInterrupted(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "never.bgsnap")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-jobs", "80", "-snapshot-at", "100", "-snapshot-out", snap}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "snapshot point not reached") {
		t.Fatalf("err = %v, want snapshot point not reached", err)
	}
	if _, serr := os.Stat(snap); !os.IsNotExist(serr) {
		t.Fatalf("snapshot file was created despite the interrupt: %v", serr)
	}
}

// A seq past the end of the run is the same refusal, same guarantee.
func TestBgsimSnapshotSeqPastEnd(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "never.bgsnap")
	err := run(context.Background(), []string{"-jobs", "40", "-snapshot-at", "1000000", "-snapshot-out", snap}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "snapshot point not reached") {
		t.Fatalf("err = %v, want snapshot point not reached", err)
	}
	if _, serr := os.Stat(snap); !os.IsNotExist(serr) {
		t.Fatalf("snapshot file was created for an unreachable seq: %v", serr)
	}
}

func TestBgsimSnapshotFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "40", "-snapshot-at", "10"},                                // missing -snapshot-out
		{"-jobs", "40", "-snapshot-out", "x.bgsnap"},                         // missing -snapshot-at
		{"-restore", "x.bgsnap", "-snapshot-at", "10", "-snapshot-out", "y"}, // exclusive modes
		{"-restore", "/nonexistent/definitely-missing.bgsnap"},               // unreadable snapshot
	} {
		if err := run(context.Background(), args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// The contention model is off by default and opt-in via -contention;
// an enabled run reports its dilation line and is deterministic for a
// fixed (seed, anneal-seed) pair.
func TestBgsimContentionFlag(t *testing.T) {
	base := []string{"-workload", "SDSC", "-jobs", "50", "-failures", "300", "-seed", "7"}
	var off bytes.Buffer
	if err := run(context.Background(), base, &off); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off.String(), "contention") {
		t.Fatalf("contention line printed for a contention-free run:\n%s", off.String())
	}
	on := append(base, "-finder", "anneal", "-anneal-seed", "3", "-contention", "medium")
	var first, second bytes.Buffer
	if err := run(context.Background(), on, &first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "contention          charges=") {
		t.Fatalf("contention-enabled run missing the dilation line:\n%s", first.String())
	}
	if err := run(context.Background(), on, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("same flags produced different output:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestBgsimEventThroughputLifecycle: the summary always carries the
// deterministic dispatched-event count; the wall-clock throughput line
// appears only under -rate, so byte-compared outputs stay reproducible.
func TestBgsimEventThroughputLifecycle(t *testing.T) {
	base := []string{"-workload", "NASA", "-jobs", "40", "-sched", "baseline", "-failures", "200"}

	var plain bytes.Buffer
	if err := run(context.Background(), base, &plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "events dispatched   ") {
		t.Fatalf("summary missing dispatched count:\n%s", plain.String())
	}
	if strings.Contains(plain.String(), "events/sec") {
		t.Fatalf("throughput leaked into default summary:\n%s", plain.String())
	}

	// Same run again: the default summary must be byte-identical, wall
	// clock notwithstanding.
	var again bytes.Buffer
	if err := run(context.Background(), base, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != plain.String() {
		t.Fatalf("default summary not reproducible:\n%s\nvs\n%s", plain.String(), again.String())
	}

	var rated bytes.Buffer
	if err := run(context.Background(), append([]string{"-rate"}, base...), &rated); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rated.String(), "events/sec") {
		t.Fatalf("-rate summary missing throughput:\n%s", rated.String())
	}
	// -rate only appends; the deterministic dispatched line is unchanged.
	var dispatchLine string
	for _, ln := range strings.Split(plain.String(), "\n") {
		if strings.HasPrefix(ln, "events dispatched") {
			dispatchLine = ln
		}
	}
	if dispatchLine == "" || !strings.Contains(rated.String(), dispatchLine) {
		t.Fatalf("dispatched count drifted under -rate: %q not in\n%s", dispatchLine, rated.String())
	}
}
