package build

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bgsched/internal/sim"
	"bgsched/internal/telemetry"
)

// testCfg is a small sweep-point-sized config.
func testCfg() RunConfig {
	return RunConfig{
		Workload: "SDSC", JobCount: 80, FailureNominal: 1000,
		Scheduler: SchedBalancing, Param: 0.5, Seed: 11,
	}
}

// counters extracts one counter value from a registry snapshot-free.
func counter(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestBuildColdThenWarm: the first build of a config misses every
// keyed stage; an identical rebuild through the same cache hits every
// one and synthesizes nothing.
func TestBuildColdThenWarm(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}

	reg1 := telemetry.New()
	cfg := testCfg()
	cfg.Telemetry = reg1
	if _, _, err := b.Build(cfg); err != nil {
		t.Fatal(err)
	}
	if hits := counter(reg1, "build.cache.hits"); hits != 0 {
		t.Fatalf("cold build recorded %d hits", hits)
	}
	misses := counter(reg1, "build.cache.misses")
	if misses < 3 { // workload, jobs, trace (+ index for balancing)
		t.Fatalf("cold build recorded %d misses, want >= 3", misses)
	}

	reg2 := telemetry.New()
	cfg = testCfg()
	cfg.Telemetry = reg2
	if _, _, err := b.Build(cfg); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg2, "build.cache.misses"); got != 0 {
		t.Fatalf("warm build recorded %d misses", got)
	}
	if got := counter(reg2, "build.cache.hits"); got != misses {
		t.Fatalf("warm build hits = %d, want %d (one per keyed stage)", got, misses)
	}
	for _, stage := range []string{"workload", "jobs", "trace", "index"} {
		if got := counter(reg2, "build."+stage+".hits"); got != 1 {
			t.Errorf("warm build.%s.hits = %d, want 1", stage, got)
		}
	}
}

// TestBuildPolicyOnlyRebuild: two configs sharing (workload, seed,
// jobs, load, failures) but differing in policy parameters reuse every
// upstream artifact — the sweep's dominant rebuild pattern.
func TestBuildPolicyOnlyRebuild(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	cfg := testCfg()
	if _, _, err := b.Build(cfg); err != nil {
		t.Fatal(err)
	}

	for i, mutate := range []func(*RunConfig){
		func(c *RunConfig) { c.Param = 0.9 },
		func(c *RunConfig) { c.Scheduler = SchedTieBreak },
		func(c *RunConfig) { c.Scheduler = SchedBaseline },
		func(c *RunConfig) { c.Backfill, c.BackfillStrict = 0, true },
	} {
		reg := telemetry.New()
		c := testCfg()
		mutate(&c)
		c.Telemetry = reg
		if _, _, err := b.Build(c); err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got := counter(reg, "build.cache.misses"); got != 0 {
			t.Errorf("variant %d: policy-only change recomputed %d stages", i, got)
		}
	}
}

// TestBuildKeyedStagesDiverge: changing a field a stage depends on must
// produce different artifacts, never a false cache hit.
func TestBuildKeyedStagesDiverge(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	base := testCfg()
	_, artBase, err := b.Build(base)
	if err != nil {
		t.Fatal(err)
	}

	seedVar := testCfg()
	seedVar.Seed = 12
	_, artSeed, err := b.Build(seedVar)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(artBase.Log, artSeed.Log) {
		t.Fatal("different seeds served the same workload log")
	}
	if reflect.DeepEqual(artBase.Trace, artSeed.Trace) {
		t.Fatal("different seeds served the same failure trace")
	}

	loadVar := testCfg()
	loadVar.LoadScale = 1.2
	_, artLoad, err := b.Build(loadVar)
	if err != nil {
		t.Fatal(err)
	}
	if artLoad.Log != artBase.Log {
		t.Fatal("load change should reuse the workload log artifact")
	}
	if artLoad.Jobs[0].Actual == artBase.Jobs[0].Actual {
		t.Fatal("load change served unscaled jobs")
	}

	failVar := testCfg()
	failVar.FailureNominal = 2000
	_, artFail, err := b.Build(failVar)
	if err != nil {
		t.Fatal(err)
	}
	if len(artFail.Trace) == len(artBase.Trace) {
		t.Fatal("different nominal failure counts served the same trace")
	}
}

// TestBuildJobsCloned: the jobs artifact is handed out as fresh clones
// — two builds must not alias job pointers, or concurrent runs would
// share mutable scheduling identity.
func TestBuildJobsCloned(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	_, a1, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	_, a2, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a1.Jobs) == 0 || len(a1.Jobs) != len(a2.Jobs) {
		t.Fatalf("job counts differ: %d vs %d", len(a1.Jobs), len(a2.Jobs))
	}
	for i := range a1.Jobs {
		if a1.Jobs[i] == a2.Jobs[i] {
			t.Fatalf("job %d aliased between builds", i)
		}
		if *a1.Jobs[i] != *a2.Jobs[i] {
			t.Fatalf("job %d clone differs from master: %+v vs %+v", i, a1.Jobs[i], a2.Jobs[i])
		}
	}
}

// TestBuildWarmRunByteIdentical: a simulation built warm must replay
// exactly as one built cold — the artifact cache may change cost, never
// results.
func TestBuildWarmRunByteIdentical(t *testing.T) {
	runOnce := func(b *Builder) sim.Result {
		sc, _, err := b.Build(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := runOnce(&Builder{Cache: NewCache(0)})
	shared := &Builder{Cache: NewCache(0)}
	runOnce(shared) // warm the cache
	warm := runOnce(shared)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm-cache run diverged from cold-cache run")
	}
}

// TestCacheLRUEviction: the cache honours its bound and evicts the
// least recently used entry first.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	mk := func(k string) func() (any, error) {
		return func() (any, error) { return k, nil }
	}
	c.GetOrCompute("a", mk("a"))
	c.GetOrCompute("b", mk("b"))
	c.GetOrCompute("a", mk("a")) // refresh a
	c.GetOrCompute("c", mk("c")) // evicts b
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, hit, _ := c.GetOrCompute("a", mk("a2")); !hit {
		t.Fatal("recently used entry a was evicted")
	}
	if _, hit, _ := c.GetOrCompute("b", mk("b2")); hit {
		t.Fatal("evicted entry b still served")
	}
}

// TestCacheErrorNotCached: a failing compute is reported and nothing is
// inserted; the next caller retries.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(0)
	boom := fmt.Errorf("boom")
	if _, _, err := c.GetOrCompute("k", func() (any, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("error result was cached")
	}
	v, hit, err := c.GetOrCompute("k", func() (any, error) { return 42, nil })
	if err != nil || hit || v != 42 {
		t.Fatalf("retry = (%v, %v, %v)", v, hit, err)
	}
}

// TestCacheCoalescing: concurrent misses on one key run the compute
// once; every other caller blocks and shares the result.
func TestCacheCoalescing(t *testing.T) {
	c := NewCache(0)
	var mu sync.Mutex
	computes := 0
	release := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (any, error) {
				mu.Lock()
				computes++
				mu.Unlock()
				<-release // hold the flight open so every caller piles up
				return "artifact", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	for i, v := range results {
		if v != "artifact" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

// TestBuildConcurrentSharedCache: parallel builds over a mixed grid
// through one cache must race-cleanly produce the same results as
// sequential cold builds (run under -race in CI).
func TestBuildConcurrentSharedCache(t *testing.T) {
	grid := make([]RunConfig, 0, 12)
	for _, param := range []float64{0.1, 0.5, 0.9} {
		for _, nominal := range []int{0, 1000} {
			cfg := testCfg()
			cfg.Param = param
			cfg.FailureNominal = nominal
			grid = append(grid, cfg)
			cfg.Scheduler = SchedTieBreak
			grid = append(grid, cfg)
		}
	}
	want := make([]sim.Result, len(grid))
	for i, cfg := range grid {
		res := mustRun(t, &Builder{Cache: NewCache(0)}, cfg)
		want[i] = res
	}

	shared := &Builder{Cache: NewCache(0)}
	got := make([]sim.Result, len(grid))
	var wg sync.WaitGroup
	for i, cfg := range grid {
		wg.Add(1)
		go func(i int, cfg RunConfig) {
			defer wg.Done()
			got[i] = mustRun(t, shared, cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i := range grid {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("grid point %d diverged under the shared concurrent cache", i)
		}
	}
}

func mustRun(t *testing.T, b *Builder, cfg RunConfig) sim.Result {
	t.Helper()
	sc, _, err := b.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestJobClonePoolRecycles: the release/rebuild cycle. Releasing a
// run's job-slice clone drops it (idempotently), and the next build of
// the same point gets fresh structs cloned from the cached master, so
// the previous run's mutations cannot leak. There is no clone pool:
// no struct of a released run comes back in a later build.
func TestJobClonePoolRecycles(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	_, a1, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	run1 := a1.Jobs
	pristine := make([]interface{}, len(run1))
	for i, j := range run1 {
		cp := *j
		pristine[i] = cp
	}
	// Simulate a run mutating its private clones.
	for _, j := range run1 {
		j.Actual = -1
		j.Estimate = -1
	}
	a1.ReleaseJobs()
	if a1.Jobs != nil {
		t.Fatal("ReleaseJobs left the artifact holding the clone")
	}
	a1.ReleaseJobs() // idempotent

	_, a2, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.Jobs) != len(run1) {
		t.Fatalf("job counts differ: %d vs %d", len(a2.Jobs), len(run1))
	}
	for i := range a2.Jobs {
		if a2.Jobs[i] == run1[i] {
			t.Fatalf("job %d reused a released run's struct", i)
		}
		if got := *a2.Jobs[i]; got != pristine[i] {
			t.Fatalf("job %d not reset from master: %+v vs %+v", i, got, pristine[i])
		}
	}

	// A third build without a release must NOT share run 2's structs.
	_, a3, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a3.Jobs {
		if a3.Jobs[i] == a2.Jobs[i] {
			t.Fatalf("job %d aliased between two live builds", i)
		}
	}
}

// TestJobClonePoolCrossRunIsolation: back-to-back full simulations of
// the same point — the sweep engine's pattern via
// experiments.RunContext — stay byte-identical, and the cached master
// slice never absorbs a run's mutations.
func TestJobClonePoolCrossRunIsolation(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	runOnce := func() (sim.Result, *Artifacts) {
		sc, art, err := b.Build(testCfg())
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, art
	}
	res1, art1 := runOnce()
	art1.ReleaseJobs()
	if art1.Jobs != nil {
		t.Fatal("ReleaseJobs left the artifact holding the clone")
	}
	art1.ReleaseJobs() // idempotent
	res2, art2 := runOnce()
	art2.ReleaseJobs()
	res3, _ := runOnce()
	if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(res2, res3) {
		t.Fatal("job clones changed simulation results across runs")
	}
}

// TestJobClonePoolConcurrent hammers build/release from a worker fleet
// — the sweep engine's parallel point execution — and checks that
// runs scribbling on their clones never reach the cached masters. Run
// under -race by the build cache race guard.
func TestJobClonePoolConcurrent(t *testing.T) {
	b := &Builder{Cache: NewCache(0)}
	if _, _, err := b.Build(testCfg()); err != nil { // warm the masters
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, art, err := b.Build(testCfg())
				if err != nil {
					t.Error(err)
					return
				}
				for _, j := range art.Jobs {
					j.Actual = -1 // scribble like a running simulation
				}
				art.ReleaseJobs()
			}
		}()
	}
	wg.Wait()
	// After the dust settles, a fresh build must still see pristine
	// masters despite all the scribbling.
	_, art, err := b.Build(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range art.Jobs {
		if j.Actual == -1 {
			t.Fatalf("job %d leaked a previous run's mutation", i)
		}
	}
}
