package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"aroma/pkg/aroma/checkpoint"
	"aroma/pkg/aroma/scenario"
	_ "aroma/pkg/aroma/scenarios"
)

// sizes fixes the simulated work in one round of each workload. Every
// round of a run repeats the same inputs, so two commits do identical
// simulated work per round and every round must end at the same digests.
type sizes struct {
	denseWorlds int               // phy-dense: densitysweep worlds per round
	denseParams map[string]string // phy-dense: scenario parameters

	appScenarios []string // app-stack: one pass over these is a round

	sessions  int // service: client sessions per round, an even number
	residents int // service: worlds, run to their horizon at set-up, that every scrape renders

	// pinned says the workloads' digest-of-digests at the default seed
	// are in pins.json.
	pinned bool
}

// fullSizes are the benchmark's sizes; tests run tinySizes.
var fullSizes = sizes{
	denseWorlds:  4,
	appScenarios: []string{"lab", "smartprojector", "walkabout", "faultstorm", "smartspace"},
	sessions:     96,
	residents:    8,
	pinned:       true,
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not decide it.
const setupRepeats = 3

// Seed layout: a run's inputs start at base(seed); warm-up inputs sit
// warmOffset above, apart from every timed input.
const (
	warmOffset     = 500
	forkSeedOffset = 500000
)

func baseSeed(seed int64) int64 { return 1 + seed*1000 }

// runCfg is everything a workload's set-up needs.
type runCfg struct {
	seed    int64
	sz      sizes
	clients int // service clients
}

func (rc runCfg) base() int64 { return baseSeed(rc.seed) }
func (rc runCfg) warm() int64 { return baseSeed(rc.seed) + warmOffset }

// checkStride thins the second path outside traced runs: it replays
// every checkStride-th run of a round, from an offset the seed picks, so
// consecutive seeds replay every run between them. Traced runs replay
// every run, since their layer counts come from the replay.
const checkStride = 3

func (rc runCfg) replays(tr *tracer, i int) bool {
	return tr.on || (i+int(rc.seed%checkStride))%checkStride == 0
}

// verifier compares a second path's digests with a round's, run by run.
type verifier struct {
	want   []string
	n, bad int
}

// got compares the second path's digest with the round's next run.
func (v *verifier) got(digest string) {
	if v.n >= len(v.want) || digest != v.want[v.n] {
		v.bad++
	}
	v.n++
}

// skip passes over the round's next run, not replayed.
func (v *verifier) skip() { v.n++ }

// mismatches is the number of runs that disagreed, plus the number of
// runs the round and the second path do not share.
func (v *verifier) mismatches() int {
	return v.bad + max(len(v.want)-v.n, 0)
}

// roundStats is what one round did.
type roundStats struct {
	wall       time.Duration
	peakRSS    float64         // MiB, the process's peak resident size during the round
	allocBytes uint64          // heap bytes allocated
	mallocs    uint64          // heap objects allocated
	gcCPU, cpu float64         // CPU seconds, in garbage collection and in all, as runtime/metrics estimates them
	events     uint64          // kernel steps executed
	ops        []time.Duration // latency of each user-level operation
	attempted  int
	failed     int
	digests    []string // every run's digest, in a fixed order
}

// fixture is a set-up workload, ready to run rounds.
type fixture interface {
	// round runs one round of the workload's fixed work.
	round(tr *tracer) roundStats
	// check re-derives a round's digests by a second path through the
	// layers and returns how many differ from want.
	check(tr *tracer, want []string) int
	close()
}

// workload is one named benchmark input.
type workload struct {
	name  string
	setup func(rc runCfg) (fixture, error)
}

var workloads = []workload{
	{"phy-dense", setupPhyDense},
	{"app-stack", setupAppStack},
	{"service", setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digestOfDigests folds run digests, in order, into one value.
func digestOfDigests(ds []string) string {
	h := fnv.New64a()
	for _, d := range ds {
		h.Write([]byte(d))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// job is one scenario world to build and run to its horizon.
type job struct {
	scenario string
	cfg      scenario.Config
}

// runWorld builds a world, runs it to its horizon and returns its
// result. A panic anywhere in the world's run is returned as an error.
func runWorld(tr *tracer, parent uint64, j job) (res *scenario.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s seed %d: panic: %v", j.scenario, j.cfg.Seed, r)
		}
	}()
	s := tr.start("scenario.Build", parent)
	b, err := scenario.Build(j.scenario, j.cfg)
	tr.end(s, 0)
	if err != nil {
		return nil, err
	}
	defer b.World.Close()
	s = tr.start("World.RunUntil", parent)
	n := b.World.RunUntil(b.Horizon)
	tr.end(s, n)
	s = tr.start("Built.Result", parent)
	res = b.Result()
	tr.end(s, 0)
	tr.observe(b.World, parent)
	return res, nil
}

// worldsFixture runs a fixed list of in-process worlds per round, one
// after another on one goroutine, as aromasim does. opSize consecutive
// worlds form one operation.
type worldsFixture struct {
	name   string
	jobs   []job
	opSize int
}

func (f *worldsFixture) round(tr *tracer) roundStats {
	var st roundStats
	var op span
	var opStart time.Time
	for i, j := range f.jobs {
		if i%f.opSize == 0 {
			op, opStart = tr.start("op."+f.name, 0), time.Now()
		}
		st.attempted++
		s := tr.start("run", op.ID)
		res, err := runWorld(tr, s.ID, j)
		tr.end(s, 0)
		if err != nil {
			st.failed++
			st.digests = append(st.digests, "error: "+err.Error())
		} else {
			st.events += res.Steps
			st.digests = append(st.digests, res.Digest)
		}
		if (i+1)%f.opSize == 0 {
			st.ops = append(st.ops, time.Since(opStart))
			tr.end(op, 0)
		}
	}
	return st
}

// check has no second path for in-process worlds: their digests are
// checked round against round and, at the default seed, against pins.
func (f *worldsFixture) check(*tracer, []string) int { return 0 }
func (f *worldsFixture) close()                      {}

// newWorldsFixture sets up a worlds workload: its set-up is one
// untimed warm-up operation on the warm-up seeds.
func newWorldsFixture(name string, timed, warm []job, opSize int) (fixture, error) {
	f := &worldsFixture{name: name, jobs: timed, opSize: opSize}
	for _, j := range warm {
		if _, err := runWorld(&tracer{}, 0, j); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// phy-dense: many static radios on few channels. Nearly all the time
// goes to radio fan-out, the gain cache and MAC contention.
func setupPhyDense(rc runCfg) (fixture, error) {
	mk := func(seed int64, n int) []job {
		var js []job
		for k := 0; k < n; k++ {
			js = append(js, job{"densitysweep", scenario.Config{Seed: seed + int64(k), Params: rc.sz.denseParams}})
		}
		return js
	}
	return newWorldsFixture("phy-dense", mk(rc.base(), rc.sz.denseWorlds), mk(rc.warm(), 1), 1)
}

// app-stack: few radios but the whole application stack — sessions,
// rfb streaming, devices, users, discovery, leases, faults, mobility.
func setupAppStack(rc runCfg) (fixture, error) {
	mk := func(seed int64) []job {
		var js []job
		for _, name := range rc.sz.appScenarios {
			js = append(js, job{name, scenario.Config{Seed: seed}})
		}
		return js
	}
	return newWorldsFixture("app-stack", mk(rc.base()), mk(rc.warm()), len(rc.sz.appScenarios))
}

// forkWorld restores a snapshot, reseeds it and runs it to its horizon,
// as the daemon's fork does. When tracing, it also times the replay
// alone — the rebuild and the rerun to the snapshot instant — so the
// replay's share of a restore can be reported.
func forkWorld(tr *tracer, parent uint64, snap []byte, seed int64) (res *scenario.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("fork seed %d: panic: %v", seed, r)
		}
	}()
	s := tr.start("checkpoint.ForkBuilt", parent)
	b, err := checkpoint.ForkBuilt(snap, seed)
	tr.end(s, 0)
	if err != nil {
		return nil, err
	}
	defer b.World.Close()
	if tr.on {
		if err := replayAlone(tr, parent, snap); err != nil {
			return nil, err
		}
	}
	s = tr.start("World.RunUntil", parent)
	n := b.World.RunUntil(b.Horizon)
	tr.end(s, n)
	s = tr.start("Built.Result", parent)
	res = b.Result()
	tr.end(s, 0)
	tr.observe(b.World, parent)
	return res, nil
}

// replayAlone repeats the replay half of a restore — rebuild the
// recipe, rerun to the snapshot instant — under one span.
func replayAlone(tr *tracer, parent uint64, snap []byte) error {
	img, err := checkpoint.Decode(snap)
	if err != nil {
		return err
	}
	p := img.Provenance
	s := tr.start("checkpoint.replay", parent)
	defer tr.end(s, 0)
	b, err := scenario.Build(p.Scenario, scenario.Config{
		Seed: p.Seed, Horizon: p.Horizon, Verbose: p.Verbose, Params: p.Params, Faults: p.Faults,
	})
	if err != nil {
		return err
	}
	defer b.World.Close()
	b.World.RunUntil(img.Now)
	return nil
}
