package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	spin "repro"
	"repro/internal/sim"
	spinimpl "repro/internal/spin"
	"repro/internal/traffic"
)

// mesh64x64_low: the paper-scale mesh64x64 preset (4096 routers,
// FAvORS-min, SPIN, 1 VC, 3 vnets) under uniform-random traffic at 0.01
// flits/node/cycle, far below the ~0.06 ideal capacity.
const (
	meshPreset = "mesh64x64"
	meshRate   = 0.01
	meshWarmup = 400
	// meshCyclesPerSecond is the nominal engine speed that sizes the
	// measured phase from --seconds.
	meshCyclesPerSecond = 400
	// meshEpoch is the cycle count of one timed operation: the
	// telemetry epoch the rest of the repository windows runs by.
	meshEpoch       = 100
	meshDrainBudget = 20000
	// meshDigestCycle is the cycle after which the stats digest is
	// taken and compared with the shards=1 reference.
	meshDigestCycle = meshWarmup + 1000
	meshSetups      = 3
	// regimeTolerance is how far accepted load may sit from offered
	// load before a "_low" workload counts as mislabeled.
	regimeTolerance = 0.05
)

// meshDigestFile records the stats digest of a shards=1 run per seed.
const meshDigestFile = "spinbench/testdata/mesh64x64_low.digest"

// meshSpec is one mesh run.
type meshSpec struct {
	seed             int64
	rate             float64
	warmup, measured int64
	drainBudget      int64
	shards           int
}

func meshConfig(s meshSpec) (spin.Config, error) {
	p, err := spin.PresetByName(meshPreset)
	if err != nil {
		return spin.Config{}, err
	}
	cfg := p.Config
	cfg.Traffic = "uniform_random"
	cfg.Rate = s.rate
	cfg.Seed = s.seed
	cfg.Warmup = s.warmup
	cfg.Shards = s.shards
	return cfg, nil
}

// meshOutcome is what one timed mesh run observed.
type meshOutcome struct {
	wall, measureS, drainS float64
	epochMS                []float64
	offered, accepted      float64
	drained                bool
	drainCycles            int64
	digest                 string // stats digest after meshDigestCycle ("" if the run is shorter)
	measuredStats          sim.Stats
	final                  sim.Stats
	routers                int
}

// layerTimes is the split of one network build into its layers.
type layerTimes struct {
	topoS, topoMB, routingS, routingMB, networkS float64
}

// buildLayered assembles the same network spin.New builds, one layer at
// a time, timing each by its span: topology, routing, then the scheme,
// traffic generator and sim.NewNetwork. log must be non-nil.
func buildLayered(cfg spin.Config, log *spanLog, parent int) (*sim.Network, layerTimes, error) {
	var lt layerTimes
	a0 := allocMB()
	sp := log.begin("topology.build", parent)
	topo, err := spin.BuildTopology(cfg.Topology, cfg.Seed)
	lt.topoS = log.end(sp)
	if err != nil {
		return nil, lt, err
	}
	a1 := allocMB()
	lt.topoMB = a1 - a0
	vcs := max(cfg.VCsPerVNet, 1)
	sp = log.begin("routing.build", parent)
	alg, err := spin.BuildRouting(cfg.Routing, topo, vcs)
	lt.routingS = log.end(sp)
	if err != nil {
		return nil, lt, err
	}
	lt.routingMB = allocMB() - a1
	sp = log.begin("sim.new_network", parent)
	pat, err := traffic.ByName(cfg.Traffic, topo)
	if err != nil {
		return nil, lt, err
	}
	var scheme sim.Scheme
	switch cfg.Scheme {
	case "":
	case "spin":
		sc := cfg.SPIN
		if cfg.TDD != 0 {
			sc.TDD = cfg.TDD
		}
		scheme = spinimpl.New(sc)
	default:
		return nil, lt, fmt.Errorf("layered build: scheme %q is not supported", cfg.Scheme)
	}
	net, err := sim.NewNetwork(sim.Config{
		Topology:   topo,
		Routing:    alg,
		Scheme:     scheme,
		Traffic:    &traffic.Synthetic{Pattern: pat, Rate: cfg.Rate, DataFrac: cfg.DataFrac, VNets: max(1, cfg.VNets)},
		VNets:      cfg.VNets,
		VCsPerVNet: vcs,
		VCDepth:    cfg.VCDepth,
		Seed:       cfg.Seed,
		Shards:     cfg.Shards,
		StatsStart: cfg.Warmup,
	})
	lt.networkS = log.end(sp)
	return net, lt, err
}

// medianLayers takes each layer's median over several builds.
func medianLayers(bs []layerTimes) layerTimes {
	pick := func(f func(layerTimes) float64) float64 {
		xs := make([]float64, len(bs))
		for i, b := range bs {
			xs[i] = f(b)
		}
		return median(xs)
	}
	return layerTimes{
		topoS:     pick(func(b layerTimes) float64 { return b.topoS }),
		topoMB:    pick(func(b layerTimes) float64 { return b.topoMB }),
		routingS:  pick(func(b layerTimes) float64 { return b.routingS }),
		routingMB: pick(func(b layerTimes) float64 { return b.routingMB }),
		networkS:  pick(func(b layerTimes) float64 { return b.networkS }),
	}
}

// newMeshSim times one spin.New of the mesh configuration.
func newMeshSim(cfg spin.Config) (*sim.Network, float64, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := spin.New(cfg)
	d := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	return s.Network(), d, nil
}

// statsDigest hashes the canonical JSON of a stats snapshot.
func statsDigest(st *sim.Stats) string {
	b, err := json.Marshal(st)
	if err != nil {
		panic(err) // sim.Stats is plain data
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// runMeshSim runs warmup, the measured cycles (timed per epoch) and
// the drain on net.
func runMeshSim(net *sim.Network, s meshSpec, log *spanLog, parent int) meshOutcome {
	// Return the build's garbage to the OS now, so the scavenger does
	// not run during the timed phase.
	debug.FreeOSMemory()
	o := meshOutcome{offered: s.rate, routers: net.NumRouters()}
	start := time.Now()
	sp := log.begin("sim.warmup", parent)
	net.Run(s.warmup)
	log.end(sp)
	sp = log.begin("sim.measure", parent)
	t0 := time.Now()
	te := t0
	for c := int64(1); c <= s.measured; c++ {
		net.Step()
		if s.warmup+c == meshDigestCycle {
			o.digest = statsDigest(net.Stats())
		}
		if c%meshEpoch == 0 {
			o.epochMS = append(o.epochMS, float64(time.Since(te).Nanoseconds())/1e6)
			te = time.Now()
		}
	}
	o.measureS = time.Since(t0).Seconds()
	log.end(sp)
	o.measuredStats = *net.Stats()
	o.accepted = net.Stats().Throughput(net.Config().Topology.NumTerminals())
	sp = log.begin("sim.drain", parent)
	before := net.Stats().Cycles
	t0 = time.Now()
	o.drained = net.Drain(s.drainBudget)
	o.drainS = time.Since(t0).Seconds()
	log.end(sp)
	o.drainCycles = net.Stats().Cycles - before
	o.wall = time.Since(start).Seconds()
	o.final = *net.Stats()
	return o
}

// checkRegime fails a run whose accepted load after warmup sits more
// than regimeTolerance from the offered load: such a run is not "low".
func checkRegime(label string, offered, accepted float64) error {
	if off := math.Abs(accepted-offered) / offered; off > regimeTolerance {
		return fmt.Errorf("%s: accepted load %.5f is %.1f%% from offered %.5f (limit %.0f%%): the network is not in the low-load regime",
			label, accepted, 100*off, offered, 100*regimeTolerance)
	}
	return nil
}

// checkDrain fails a run whose drain did not deliver every packet.
func checkDrain(label string, drained bool, st sim.Stats) error {
	if !drained || st.Injected != st.Ejected {
		return fmt.Errorf("%s: drain incomplete (drained=%v injected=%d ejected=%d)", label, drained, st.Injected, st.Ejected)
	}
	return nil
}

// recordedDigest looks up the reference digest for a seed.
func recordedDigest(seed int64) (string, bool, error) {
	f, err := os.Open(meshDigestFile)
	if err != nil {
		return "", false, err
	}
	defer f.Close()
	want := fmt.Sprintf("seed=%d rate=%g warmup=%d cycle=%d ", seed, meshRate, meshWarmup, meshDigestCycle)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), want); ok {
			d, ok := strings.CutPrefix(rest, "sha256=")
			return d, ok, nil
		}
	}
	return "", false, sc.Err()
}

// checkMeshDigest compares a run's digest with the recorded shards=1
// reference, when one is recorded for the seed.
func checkMeshDigest(s meshSpec, got string) error {
	if s.rate != meshRate || s.warmup != meshWarmup {
		return nil
	}
	want, ok, err := recordedDigest(s.seed)
	if err != nil || !ok {
		fmt.Printf("mesh digest after cycle %d: %s (no shards=1 reference recorded for seed %d)\n", meshDigestCycle, got, s.seed)
		return err
	}
	if got != want {
		return fmt.Errorf("mesh stats digest after cycle %d is %s; the shards=1 reference for seed %d is %s", meshDigestCycle, got, s.seed, want)
	}
	fmt.Printf("mesh digest after cycle %d matches the shards=1 reference for seed %d\n", meshDigestCycle, s.seed)
	return nil
}

// checkMeshRun applies every output check to one mesh run.
func checkMeshRun(rep *report, label string, s meshSpec, o meshOutcome) {
	fmt.Printf("%s: offered %.5f accepted %.5f (%+.2f%%) drain %s in %d cycles, injected %d ejected %d\n",
		label, o.offered, o.accepted, 100*(o.accepted-o.offered)/o.offered,
		map[bool]string{true: "complete", false: "INCOMPLETE"}[o.drained], o.drainCycles, o.final.Injected, o.final.Ejected)
	rep.attempted++
	if err := checkDrain(label, o.drained, o.final); err != nil {
		rep.failed++
		rep.fail("%v", err)
	}
	rep.check(checkRegime(label, o.offered, o.accepted))
	if s.warmup+s.measured >= meshDigestCycle {
		rep.check(checkMeshDigest(s, o.digest))
	}
}

// meshCounts returns a run's exact work counts.
func meshCounts(o meshOutcome) map[string]int64 {
	return map[string]int64{
		"sim.cycles_measured": o.measuredStats.MeasuredCycles,
		"sim.drain_cycles":    o.drainCycles,
		"sim.injected":        o.final.Injected,
		"sim.flit_hops":       o.measuredStats.LinkTraversals,
		"spin.spins":          o.final.Spins,
		"spin.probes":         o.final.Counter("probes_sent"),
		"spin.sm_sent":        smSent(&o.final),
	}
}

func smSent(st *sim.Stats) int64 {
	var n int64
	for _, v := range st.SMSent {
		n += v
	}
	return n
}

func runMesh(p params, rep *report) error {
	s := meshSpec{seed: p.seed, rate: meshRate, warmup: meshWarmup,
		measured: int64(p.seconds) * meshCyclesPerSecond, drainBudget: meshDrainBudget, shards: runtime.NumCPU()}
	cfg, err := meshConfig(s)
	if err != nil {
		return err
	}
	if p.trace {
		return runMeshTraced(cfg, s, rep, p.seed)
	}
	var setups []float64
	var net *sim.Network
	for i := 0; i < meshSetups; i++ {
		net = nil // release the previous network before building the next
		n, d, err := newMeshSim(cfg)
		if err != nil {
			return err
		}
		net = n
		setups = append(setups, d)
	}
	fmt.Printf("setup (spin.New) x%d: %v s\n", meshSetups, fmtFloats(setups))
	o := runMeshSim(net, s, nil, -1)
	checkMeshRun(rep, "mesh64x64_low", s, o)
	rep.counts = meshCounts(o)
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.e2e["wall_s"] = metric{o.wall, "s"}
	fmt.Printf("sim_cycles_per_s: %.4g (%d measured cycles in %.4g s)\n", float64(s.measured)/o.measureS, s.measured, o.measureS)
	latencyLine(fmt.Sprintf("%d-cycle epoch", meshEpoch), o.epochMS)
	return nil
}

// runMeshTraced splits the measured cycles between an untraced pass
// (spin.New) and a traced pass (the layered build, with spans around
// every layer and phase); their wall-time difference is the tracing
// overhead, and their final stats must be identical.
func runMeshTraced(cfg spin.Config, s meshSpec, rep *report, seed int64) error {
	s.measured /= 2
	log := &spanLog{}
	root := log.begin("mesh64x64_low", -1)
	var builds []layerTimes
	layered := func() (*sim.Network, error) {
		runtime.GC()
		sp := log.begin("setup", root)
		n, b, err := buildLayered(cfg, log, sp)
		log.end(sp)
		builds = append(builds, b)
		return n, err
	}

	// Alternate spin.New and layered builds, meshSetups of each, so that
	// drift in host speed hits both alike; each side reports its median.
	var net *sim.Network
	var setups []float64
	for i := 0; i < meshSetups; i++ {
		net = nil
		if i > 0 {
			if _, err := layered(); err != nil {
				return err
			}
		}
		n, d, err := newMeshSim(cfg)
		if err != nil {
			return err
		}
		net = n
		setups = append(setups, d)
	}
	setupS := median(setups)
	plain := runMeshSim(net, s, nil, -1)
	checkMeshRun(rep, "mesh64x64_low untraced pass", s, plain)

	net = nil
	net, err := layered()
	if err != nil {
		return err
	}
	lt := medianLayers(builds)
	traced := runMeshSim(net, s, log, root)
	log.end(root)
	checkMeshRun(rep, "mesh64x64_low traced pass", s, traced)
	if statsDigest(&plain.final) != statsDigest(&traced.final) {
		rep.fail("layered build diverges from spin.New: final stats differ")
	}
	rep.counts = meshCounts(traced)
	rep.sameCounts("mesh64x64_low untraced and traced passes", meshCounts(plain), rep.counts)
	layers := lt.topoS + lt.routingS + lt.networkS
	fmt.Printf("setup: spin.New median %.4g s; layer medians over %d builds %.4g s (topology %.4g + routing %.4g + network %.4g) = %.1f%% of spin.New\n",
		setupS, meshSetups, layers, lt.topoS, lt.routingS, lt.networkS, 100*layers/setupS)

	m := rep.layer
	m["topology.build_s"] = metric{lt.topoS, "s"}
	m["topology.alloc_mb"] = metric{lt.topoMB, "MB"}
	m["routing.build_s"] = metric{lt.routingS, "s"}
	m["routing.alloc_mb"] = metric{lt.routingMB, "MB"}
	m["sim.new_network_s"] = metric{lt.networkS, "s"}
	simLayerMetrics(m, traced.measureS, float64(traced.routers)*float64(s.measured), &traced.measuredStats)
	m["sim.drain_s"] = metric{traced.drainS, "s"}
	m["sim.accepted_over_offered"] = metric{traced.accepted / traced.offered, "ratio"}
	spinLayerMetrics(m, &traced.final)
	if !traced.drained && net.Deadlocked() {
		m["spin.deadlocked_points"] = metric{1, "count"}
	}
	if traced.accepted < 0.95*traced.offered {
		m["spin.sat_run_s"] = metric{traced.wall, "s"}
	}
	m["trace.overhead_s"] = metric{traced.wall - plain.wall, "s"}
	fmt.Printf("trace overhead: traced %.4g s - untraced %.4g s = %.4g s\n", traced.wall, plain.wall, traced.wall-plain.wall)
	return log.write("mesh64x64_low", seed, nil)
}

// simLayerMetrics fills the cycle-engine metrics from a timed stepping
// interval of routerCycles router-cycles.
func simLayerMetrics(m map[string]metric, stepS, routerCycles float64, st *sim.Stats) {
	m["sim.ns_per_router_cycle"] = metric{stepS * 1e9 / routerCycles, "ns"}
	if st.LinkTraversals > 0 {
		m["sim.ns_per_flit_hop"] = metric{stepS * 1e9 / float64(st.LinkTraversals), "ns"}
	}
	m["sim.flit_hops"] = metric{float64(st.LinkTraversals), "count"}
}

// spinLayerMetrics fills the SPIN protocol counts.
func spinLayerMetrics(m map[string]metric, st *sim.Stats) {
	add := func(k string, v int64) { m[k] = metric{m[k].Value + float64(v), "count"} }
	add("spin.spins", st.Spins)
	add("spin.probes", st.Counter("probes_sent"))
	add("spin.kill_moves", st.Counter("kill_moves_sent"))
	add("spin.sm_sent", smSent(st))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
