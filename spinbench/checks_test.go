package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/exp"
)

// The benchmark runs from the repository root; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func readGolden(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func hasProblem(rep *report, substr string) bool {
	for _, p := range rep.problems {
		if strings.Contains(p, substr) {
			return true
		}
	}
	return false
}

func TestGoldenCheckCatchesOneByteChange(t *testing.T) {
	golden := readGolden(t)
	if err := checkGolden(golden, golden); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	for _, i := range []int{0, len(golden) / 2, len(golden) - 1} {
		bad := bytes.Clone(golden)
		bad[i] ^= 1
		if checkGolden(golden, bad) == nil {
			t.Errorf("a change to byte %d of the golden passed", i)
		}
	}
}

// TestSweepRunIncorrectOnTamperedGolden runs one real fig6 sweep at the
// default seed: it passes against the golden and is reported incorrect
// against a copy with one byte changed.
func TestSweepRunIncorrectOnTamperedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full fig6 sweep")
	}
	golden := readGolden(t)
	r := timeSweep(defaultSeed)
	rep := newReport()
	if _, points := checkSweepRun(rep, r, golden, defaultSeed); !rep.correct() || points != 145 {
		t.Fatalf("sweep at seed %d: correct=%v points=%d problems=%v", defaultSeed, rep.correct(), points, rep.problems)
	}
	bad := bytes.Clone(golden)
	bad[len(bad)/2] ^= 1
	rep = newReport()
	checkSweepRun(rep, r, bad, defaultSeed)
	if rep.correct() {
		t.Fatal("sweep checked against a tampered golden reported correct")
	}
}

func TestSweepShapeCheck(t *testing.T) {
	golden := readGolden(t)
	if _, points, err := checkSweepShape(golden); err != nil || points != 145 {
		t.Fatalf("golden: points=%d err=%v", points, err)
	}
	mutate := func(f func(exp.Figures)) []byte {
		var figs exp.Figures
		if err := json.Unmarshal(golden, &figs); err != nil {
			t.Fatal(err)
		}
		f(figs)
		b, err := json.Marshal(figs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := map[string][]byte{
		"X off the ladder": mutate(func(f exp.Figures) { f["tornado"].Series[0].Points[0].X = 0.033 }),
		"X out of order": mutate(func(f exp.Figures) {
			p := f["neighbor"].Series[1].Points
			p[0], p[1] = p[1], p[0]
		}),
		"missing curve":   mutate(func(f exp.Figures) { f["transpose"].Series = f["transpose"].Series[1:] }),
		"missing pattern": mutate(func(f exp.Figures) { delete(f, "uniform_random") }),
		"empty curve":     mutate(func(f exp.Figures) { f["bit_complement"].Series[2].Points = nil }),
	}
	for name, b := range cases {
		if _, _, err := checkSweepShape(b); err == nil {
			t.Errorf("%s: structural check passed", name)
		}
	}
}

func TestHitBytesCheck(t *testing.T) {
	fill := []byte("{\n  \"key\": \"abc\",\n  \"stats\": {\n    \"injected\": 10\n  }\n}\n")
	if err := checkHitBytes(bytes.Clone(fill), fill, false); err != nil {
		t.Fatalf("identical hit rejected: %v", err)
	}
	bad := bytes.Clone(fill)
	bad[len(bad)-4] = '0'
	if checkHitBytes(bad, fill, false) == nil {
		t.Fatal("a one-byte hit/miss mismatch passed")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, fill); err != nil {
		t.Fatal(err)
	}
	if err := checkHitBytes(compact.Bytes(), fill, true); err != nil {
		t.Fatalf("traced (compact) hit rejected: %v", err)
	}
	if checkHitBytes(bytes.Replace(compact.Bytes(), []byte("10"), []byte("11"), 1), fill, true) == nil {
		t.Fatal("a traced hit/miss mismatch passed")
	}
}

// TestSpindRunIncorrectOnHitMismatch runs a small real mix against a
// server and reports it incorrect once the bytes recorded for one warm
// key are changed.
func TestSpindRunIncorrectOnHitMismatch(t *testing.T) {
	warm, reqs := genMix(7, 40)
	s, fills, _, err := setupSpind(warm)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	rep := newReport()
	runMix(rep, s, reqs, fills, false)
	if !rep.correct() {
		t.Fatalf("untampered mix reported incorrect: %v", rep.problems)
	}
	var hits []spindReq
	for _, q := range reqs {
		if q.kind == kindHit {
			hits = append(hits, q)
		}
	}
	fills[hits[0].warm] = bytes.Replace(fills[hits[0].warm], []byte(`"spins"`), []byte(`"spinz"`), 1)
	rep = newReport()
	runMix(rep, s, hits, fills, false)
	if rep.correct() || !hasProblem(rep, "cache hit bytes differ") {
		t.Fatalf("hit/miss mismatch not reported: correct=%v problems=%v", rep.correct(), rep.problems)
	}
}

func TestRegimeCheck(t *testing.T) {
	if err := checkRegime("low", 0.01, 0.0102); err != nil {
		t.Fatalf("2%% off rejected: %v", err)
	}
	if checkRegime("low", 0.05, 0.025) == nil {
		t.Fatal("accepted load at half the offered load passed as low")
	}
}

// TestMeshAtSaturatingLoadIsIncorrect runs mesh64x64 at 0.05 offered,
// which accepts about 0.025: the run must fail the regime check.
func TestMeshAtSaturatingLoadIsIncorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 4096-router mesh")
	}
	s := meshSpec{seed: defaultSeed, rate: 0.05, warmup: 200, measured: 200, drainBudget: 200, shards: runtime.NumCPU()}
	cfg, err := meshConfig(s)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := newMeshSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := runMeshSim(net, s, nil, -1)
	rep := newReport()
	checkMeshRun(rep, "mesh64x64 at 0.05", s, o)
	if rep.correct() || !hasProblem(rep, "low-load regime") {
		t.Fatalf("accepted %.4f at 0.05 offered not reported as mislabeled: %v", o.accepted, rep.problems)
	}
}

func TestSeedChangesSpindKeys(t *testing.T) {
	bodies := func(seed int64) map[string]bool {
		warm, reqs := genMix(seed, 100)
		m := map[string]bool{}
		for _, q := range append(warm, reqs...) {
			m[string(q.body)] = true
		}
		return m
	}
	a, a2, b := bodies(1), bodies(1), bodies(2)
	if len(a) != len(a2) {
		t.Fatal("the same seed drew different requests")
	}
	for k := range a {
		if !a2[k] {
			t.Fatal("the same seed drew different requests")
		}
		if b[k] {
			t.Fatalf("seeds 1 and 2 share a request: %s", k)
		}
	}
}

// TestSeedChangesMeshDigest runs short mesh64x64_low runs: the same seed
// repeats the stats digest exactly, another seed changes it.
func TestSeedChangesMeshDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 4096-router mesh three times")
	}
	digest := func(seed int64) string {
		s := meshSpec{seed: seed, rate: meshRate, warmup: 20, measured: 30, drainBudget: meshDrainBudget, shards: runtime.NumCPU()}
		cfg, err := meshConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		net, _, err := newMeshSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o := runMeshSim(net, s, nil, -1)
		return statsDigest(&o.final)
	}
	a, a2, b := digest(1), digest(1), digest(2)
	if a != a2 {
		t.Fatalf("seed 1 digests differ: %s vs %s", a, a2)
	}
	if a == b {
		t.Fatalf("seeds 1 and 2 give the same digest %s", a)
	}
}

// TestMeshDigestReferenceAtOneShard runs mesh64x64_low at the default
// seed on one shard up to the digest cycle and compares the digest with
// the recorded reference. The benchmark itself runs on every CPU, so
// this is what ties the reference to a one-shard run. When the simulator
// changes its results on purpose, the failure prints the line to record.
func TestMeshDigestReferenceAtOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the 4096-router mesh on one shard")
	}
	s := meshSpec{seed: defaultSeed, rate: meshRate, warmup: meshWarmup, measured: meshDigestCycle - meshWarmup, drainBudget: meshDrainBudget, shards: 1}
	cfg, err := meshConfig(s)
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := newMeshSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := runMeshSim(net, s, nil, -1)
	want, ok, err := recordedDigest(defaultSeed)
	if err != nil || !ok {
		t.Fatalf("no reference for seed %d in %s (err %v)", defaultSeed, meshDigestFile, err)
	}
	if o.digest != want {
		t.Fatalf("one-shard digest differs from the reference; to record it, set the line in %s to\nseed=%d rate=%g warmup=%d cycle=%d sha256=%s",
			meshDigestFile, defaultSeed, meshRate, meshWarmup, meshDigestCycle, o.digest)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json in step with the
// workloads and metrics the program prints.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	same := func(what string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program prints %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestDiffCounts(t *testing.T) {
	a := map[string]int64{"spins": 3, "hops": 100}
	if err := diffCounts(a, map[string]int64{"spins": 3, "hops": 100}); err != nil {
		t.Fatal(err)
	}
	for _, b := range []map[string]int64{
		{"spins": 3, "hops": 101},
		{"spins": 3},
		{"spins": 3, "hops": 100, "probes": 1},
	} {
		if diffCounts(a, b) == nil {
			t.Errorf("%v vs %v passed", a, b)
		}
	}
}

func TestQuantiles(t *testing.T) {
	for n, want := range map[int]float64{1000: 0.99, 200: 0.95, 100: 0.90, 40: 0.75, 20: 0.5} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %g, want %g", n, got, want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || median([]float64{1, 2, 3, 4}) != 2.5 || quantile(xs, 0.8) != 4 {
		t.Errorf("median/quantile wrong: %g %g %g", median(xs), median([]float64{1, 2, 3, 4}), quantile(xs, 0.8))
	}
}
