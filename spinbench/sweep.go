package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	spin "repro"
	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/sim"
)

// sweep_fig6: exp.Sweep("6") in small mode — dragonfly:4,4,4,16, 4
// configs x 5 patterns = 20 curve jobs — for 2000 cycles per point on 2
// workers. At the default seed its JSON must equal the checked-in golden.
const (
	goldenPath     = "internal/exp/testdata/fig6_seed42_c2000.golden"
	sweepCycles    = 2000
	sweepWarmup    = sweepCycles / 10 // exp's default warmup
	sweepWorkers   = 2
	sweepTopo      = "dragonfly:4,4,4,16"
	sweepSatLat    = 400 // exp.Fig6's curve cut-off latency
	sweepSetupReps = 5
	// sweepSecondsPerRun is the nominal length of one sweep; it sizes
	// the number of sweeps from --seconds (at least three, so that the
	// median sweep discards one disturbed by other load on the host).
	sweepSecondsPerRun = 10
	sweepMinRuns       = 3
)

// fig6Curve mirrors one curve of exp.Fig6. The traced replay rebuilds
// the sweep from these; any drift from exp shows as a Y mismatch.
type fig6Curve struct {
	label, preset string
	vcs           int
}

var (
	fig6Configs = []fig6Curve{
		{"UGAL_Dally_3VC", "dfly_ugal_ladder", 3},
		{"UGAL_SPIN_3VC", "dfly_ugal_spin", 3},
		{"Min_SPIN_1VC", "dfly_minimal_spin", 1},
		{"FAvORS_NMin_1VC", "dfly_favors_nmin", 1},
	}
	fig6Patterns = []string{"uniform_random", "bit_complement", "transpose", "tornado", "neighbor"}
	// fig6Rates is exp's rate ladder for a 0.5 maximum.
	fig6Rates = []float64{0.025, 0.05, 0.1, 0.15, 0.225, 0.3, 0.4, 0.5}
)

// fig6Config is the simulation config of one sweep point, seeded as exp
// seeds it.
func fig6Config(c fig6Curve, pattern string, rate float64, seed int64) (spin.Config, string, error) {
	p, err := spin.PresetByName(c.preset)
	if err != nil {
		return spin.Config{}, "", err
	}
	cfg := p.Config
	cfg.Topology = sweepTopo
	cfg.VCsPerVNet = c.vcs
	cfg.Traffic = pattern
	cfg.Rate = rate
	key := fmt.Sprintf("fig6/%s/%s@%g", c.label, pattern, rate)
	cfg.Seed = runner.SeedFor(seed, key)
	cfg.Warmup = sweepWarmup
	return cfg, key, nil
}

// sweepRun is one timed exp.Sweep call.
type sweepRun struct {
	out    []byte
	wall   float64
	events []jobEvent
	err    error
}

// jobEvent is one runner progress event with its completion time.
type jobEvent struct {
	elapsed, at float64 // seconds; at is measured from the sweep's start
	err         error
}

func timeSweep(seed int64) sweepRun {
	var r sweepRun
	var mu sync.Mutex
	start := time.Now()
	o := exp.Options{Cycles: sweepCycles, Small: true, Seed: seed, Workers: sweepWorkers,
		Progress: func(e runner.Event) {
			mu.Lock()
			r.events = append(r.events, jobEvent{elapsed: e.Elapsed.Seconds(), at: time.Since(start).Seconds(), err: e.Err})
			mu.Unlock()
		}}
	v, err := exp.Sweep(context.Background(), "6", o)
	r.wall = time.Since(start).Seconds()
	if err != nil {
		r.err = err
		return r
	}
	var buf bytes.Buffer
	r.err = exp.EncodeJSON(&buf, v)
	r.out = buf.Bytes()
	return r
}

// checkGolden compares sweep output with the golden byte for byte.
func checkGolden(out, golden []byte) error {
	if bytes.Equal(out, golden) {
		return nil
	}
	i := 0
	for i < len(out) && i < len(golden) && out[i] == golden[i] {
		i++
	}
	return fmt.Errorf("sweep_fig6 output differs from %s at byte %d (%d vs %d bytes)", goldenPath, i, len(out), len(golden))
}

// checkSweepShape decodes sweep output and checks its structure: every
// pattern present with the four configured curves, every curve
// non-empty with its X values on the rate ladder in order. It returns
// the number of points.
func checkSweepShape(out []byte) (exp.Figures, int, error) {
	var figs exp.Figures
	if err := json.Unmarshal(out, &figs); err != nil {
		return nil, 0, fmt.Errorf("sweep_fig6 output does not decode: %w", err)
	}
	if len(figs) != len(fig6Patterns) {
		return nil, 0, fmt.Errorf("sweep_fig6: %d figures, want %d", len(figs), len(fig6Patterns))
	}
	points := 0
	for _, pat := range fig6Patterns {
		f := figs[pat]
		if f == nil || len(f.Series) != len(fig6Configs) {
			return nil, 0, fmt.Errorf("sweep_fig6: pattern %s lacks its %d curves", pat, len(fig6Configs))
		}
		for i, s := range f.Series {
			if s.Label != fig6Configs[i].label || len(s.Points) == 0 {
				return nil, 0, fmt.Errorf("sweep_fig6: %s curve %d is %q with %d points", pat, i, s.Label, len(s.Points))
			}
			r := 0
			for _, pt := range s.Points {
				for r < len(fig6Rates) && fig6Rates[r] != pt.X {
					r++
				}
				if r == len(fig6Rates) {
					return nil, 0, fmt.Errorf("sweep_fig6: %s/%s has X=%g off the rate ladder or out of order", pat, s.Label, pt.X)
				}
				r++
			}
			points += len(s.Points)
		}
	}
	return figs, points, nil
}

// checkSweepRun applies every output check to one sweep run and returns
// the number of points it produced.
func checkSweepRun(rep *report, r sweepRun, golden []byte, seed int64) (exp.Figures, int) {
	rep.attempted += int64(len(fig6Patterns) * len(fig6Configs))
	for _, e := range r.events {
		if e.err != nil {
			rep.failed++
			rep.fail("sweep job error: %v", e.err)
		}
	}
	if r.err != nil {
		rep.failed++
		rep.fail("sweep_fig6: %v", r.err)
		return nil, 0
	}
	figs, points, err := checkSweepShape(r.out)
	rep.check(err)
	if seed == defaultSeed {
		if err := checkGolden(r.out, golden); err != nil {
			rep.failed++
			rep.fail("%v", err)
		} else {
			fmt.Printf("sweep_fig6 output equals %s byte for byte\n", goldenPath)
		}
	}
	return figs, points
}

// sweepSetup times building the network of every point on the sweep's
// ladder — 4 configs x 5 patterns x 8 rates, the most a sweep builds —
// after a GC, sweepSetupReps times; it returns the median.
func sweepSetup(seed int64) (float64, error) {
	var cfgs []spin.Config
	for _, pat := range fig6Patterns {
		for _, c := range fig6Configs {
			for _, rate := range fig6Rates {
				cfg, _, err := fig6Config(c, pat, rate, seed)
				if err != nil {
					return 0, err
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	var ts []float64
	for i := 0; i < sweepSetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		for _, cfg := range cfgs {
			if _, err := spin.New(cfg); err != nil {
				return 0, err
			}
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	fmt.Printf("setup (%d x spin.New) x%d: %s s\n", len(cfgs), sweepSetupReps, fmtFloats(ts))
	return median(ts), nil
}

func runSweep(p params, rep *report) error {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return err
	}
	return sweepWorkload(p, rep, golden)
}

// sweepWorkload is runSweep with the golden supplied.
func sweepWorkload(p params, rep *report, golden []byte) error {
	if p.trace {
		return runSweepTraced(p, rep, golden)
	}
	setup, err := sweepSetup(p.seed)
	if err != nil {
		return err
	}
	reps := max(sweepMinRuns, p.seconds/sweepSecondsPerRun)
	var walls, jobMS []float64
	var first []byte
	points := 0
	for i := 0; i < reps; i++ {
		r := timeSweep(p.seed)
		_, points = checkSweepRun(rep, r, golden, p.seed)
		if i == 0 {
			first = r.out
		} else if !bytes.Equal(first, r.out) {
			rep.fail("sweep_fig6: repeat %d output differs from the first", i)
		}
		walls = append(walls, r.wall)
		for _, e := range r.events {
			jobMS = append(jobMS, e.elapsed*1e3)
		}
	}
	wall := median(walls)
	fmt.Printf("sweep_fig6: %d sweeps, wall %v s, %d points, %d jobs each\n", reps, fmtFloats(walls), points, len(fig6Patterns)*len(fig6Configs))
	fmt.Printf("sweep_fig6 output sha256=%x (SPIN and flit-hop counts: --trace 1)\n", sha256.Sum256(first))
	rep.count("exp.points", int64(points))
	rep.count("runner.jobs", int64(len(jobMS)))
	rep.e2e["setup_s"] = metric{setup, "s"}
	rep.e2e["wall_s"] = metric{wall, "s"}
	fmt.Printf("sim_cycles_per_s: %.4g (%d points x %d cycles per median sweep)\n", float64(points*sweepCycles)/wall, points, sweepCycles)
	latencyLine("curve job", jobMS)
	return nil
}

// replayPoint is one sweep point run from outside.
type replayPoint struct {
	key               string
	x, y              float64
	offered, accepted float64
	deadlocked        bool
	runS, measureS    float64
	routerCycles      float64
	layers            layerTimes
	stats             sim.Stats
}

// replayCurve runs one fig6 curve point by point with the curve cut-off
// exp applies, recording spans for each layer.
func replayCurve(c fig6Curve, pattern string, seed int64, log *spanLog, parent int) ([]replayPoint, error) {
	var pts []replayPoint
	for _, rate := range fig6Rates {
		cfg, key, err := fig6Config(c, pattern, rate, seed)
		if err != nil {
			return nil, err
		}
		sp := log.begin("point "+key, parent)
		t0 := time.Now()
		net, lt, err := buildLayered(cfg, log, sp)
		if err != nil {
			return nil, err
		}
		ws := log.begin("sim.warmup", sp)
		net.Run(sweepWarmup)
		log.end(ws)
		ms := log.begin("sim.measure", sp)
		t1 := time.Now()
		net.Run(sweepCycles - sweepWarmup)
		measureS := time.Since(t1).Seconds()
		log.end(ms)
		st := net.Stats()
		pt := replayPoint{key: key, x: rate, y: st.AvgLatency(), offered: rate,
			accepted: st.Throughput(net.Config().Topology.NumTerminals()), deadlocked: net.Deadlocked(),
			measureS: measureS, routerCycles: float64(net.NumRouters()) * (sweepCycles - sweepWarmup), layers: lt, stats: *st}
		pt.runS = time.Since(t0).Seconds()
		log.end(sp)
		if pt.y == 0 {
			continue
		}
		pts = append(pts, pt)
		if pt.y > sweepSatLat {
			break
		}
	}
	return pts, nil
}

// runSweepTraced runs one untraced sweep (runner metrics come from its
// progress events) and then replays every point from outside with
// spans, one curve per runner job as exp runs them; the replay must
// reproduce the sweep's points exactly.
func runSweepTraced(p params, rep *report, golden []byte) error {
	r := timeSweep(p.seed)
	figs, points := checkSweepRun(rep, r, golden, p.seed)
	if figs == nil {
		return fmt.Errorf("sweep failed; nothing to replay")
	}

	log := &spanLog{}
	root := log.begin("sweep_fig6 replay", -1)
	var jobs []runner.Job[[]replayPoint]
	for _, pat := range fig6Patterns {
		for _, c := range fig6Configs {
			key := "fig6/" + c.label + "/" + pat
			jobs = append(jobs, runner.Job[[]replayPoint]{Key: key, Run: func(context.Context, int64) ([]replayPoint, error) {
				sp := log.begin("curve "+key, root)
				defer log.end(sp)
				return replayCurve(c, pat, p.seed, log, sp)
			}})
		}
	}
	start := time.Now()
	curves, err := runner.Run(context.Background(), runner.Options{Workers: sweepWorkers}, jobs)
	replayWall := time.Since(start).Seconds()
	log.end(root)
	if err != nil {
		return err
	}

	m := rep.layer
	var offered, accepted, measureS, routerCycles float64
	var hops sim.Stats
	var dead []string
	add := func(k string, v float64, unit string) { m[k] = metric{m[k].Value + v, unit} }
	for i, curve := range curves {
		pat, label := fig6Patterns[i/len(fig6Configs)], fig6Configs[i%len(fig6Configs)].label
		rep.check(checkReplayCurve(figs, pat, label, curve))
		for _, pt := range curve {
			fmt.Printf("point %s: offered %.4g accepted %.4g drain not run deadlocked=%v\n", pt.key, pt.offered, pt.accepted, pt.deadlocked)
			offered += pt.offered
			accepted += pt.accepted
			measureS += pt.measureS
			routerCycles += pt.routerCycles
			hops.LinkTraversals += pt.stats.LinkTraversals
			spinLayerMetrics(m, &pt.stats)
			add("topology.build_s", pt.layers.topoS, "s")
			add("topology.alloc_mb", pt.layers.topoMB, "MB")
			add("routing.build_s", pt.layers.routingS, "s")
			add("routing.alloc_mb", pt.layers.routingMB, "MB")
			add("sim.new_network_s", pt.layers.networkS, "s")
			if pt.deadlocked {
				dead = append(dead, pt.key)
			}
			if pt.accepted < 0.95*pt.offered {
				add("spin.sat_run_s", pt.runS, "s")
			}
		}
	}
	sort.Strings(dead)
	fmt.Printf("deadlocked at end of run (known 1-VC SPIN defect, kept visible): %d points %v\n", len(dead), dead)
	simLayerMetrics(m, measureS, routerCycles, &hops)
	m["sim.accepted_over_offered"] = metric{accepted / offered, "ratio"}
	m["spin.deadlocked_points"] = metric{float64(len(dead)), "count"}
	m["exp.points"] = metric{float64(points), "count"}
	runnerLayerMetrics(m, r)
	m["trace.overhead_s"] = metric{replayWall - r.wall, "s"}
	fmt.Printf("trace overhead: traced replay %.4g s - untraced sweep %.4g s = %.4g s\n", replayWall, r.wall, replayWall-r.wall)
	for _, k := range []string{"exp.points", "sim.flit_hops", "spin.spins", "spin.probes", "spin.kill_moves", "spin.sm_sent", "spin.deadlocked_points"} {
		rep.count(k, int64(m[k].Value))
	}
	return log.write("sweep_fig6", p.seed, nil)
}

// checkReplayCurve compares a replayed curve with the sweep's output.
func checkReplayCurve(figs exp.Figures, pattern, label string, pts []replayPoint) error {
	f := figs[pattern]
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		if len(s.Points) != len(pts) {
			return fmt.Errorf("replay of %s/%s has %d points, the sweep %d", label, pattern, len(pts), len(s.Points))
		}
		for i, pt := range s.Points {
			if pt.X != pts[i].x || pt.Y != pts[i].y {
				return fmt.Errorf("replay of %s differs from the sweep: (%g, %g) vs (%g, %g)", pts[i].key, pts[i].x, pts[i].y, pt.X, pt.Y)
			}
		}
		return nil
	}
	return fmt.Errorf("sweep has no curve %s/%s", label, pattern)
}

// runnerLayerMetrics derives pool metrics from a sweep's progress
// events: busy fraction of the workers, worker-seconds idle at the end
// while the last jobs finished, and the longest job.
func runnerLayerMetrics(m map[string]metric, r sweepRun) {
	var busy, longest float64
	at := make([]float64, 0, len(r.events))
	for _, e := range r.events {
		busy += e.elapsed
		longest = max(longest, e.elapsed)
		at = append(at, e.at)
	}
	sort.Float64s(at)
	// Each worker's last completion starts its idle time.
	var idle float64
	for k := max(len(at)-sweepWorkers, 0); k < len(at); k++ {
		idle += r.wall - at[k]
	}
	m["runner.jobs"] = metric{float64(len(r.events)), "count"}
	m["runner.busy_frac"] = metric{busy / (sweepWorkers * r.wall), "ratio"}
	m["runner.tail_idle_s"] = metric{idle, "s"}
	m["runner.job_max_s"] = metric{longest, "s"}
}
