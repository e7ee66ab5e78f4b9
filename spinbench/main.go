// Command spinbench is the repository benchmark. It drives the SPIN
// reproduction through three user-facing paths — a paper figure sweep,
// a paper-scale preset run and a spind request mix — timing calls into
// the public functions of each layer from outside, and checks every
// output exactly.
//
//	go run . --workload mesh64x64_low --seed 42 --seconds 20 --trace 0
//
// It must run from the repository root (the checkout it measures). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, gathered by a separate traced pass whose spans are kept
// in memory and written to .bench_build/spans/ at exit. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// defaultSeed is the seed the recorded reference outputs belong to: the
// fig6 golden and the mesh64x64 shards=1 digest.
const defaultSeed = 42

// outDir holds everything a run leaves behind (the span files).
const outDir = ".bench_build"

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's outcome. Workloads add operations,
// failures, failed checks, metrics and exact work counts to it.
type report struct {
	attempted, failed int64
	problems          []string
	e2e, layer        map[string]metric
	counts            map[string]int64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, counts: map[string]int64{}}
}

// fail records a failed check; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Println("CHECK FAILED:", msg)
}

// check records a failed check when err is non-nil.
func (r *report) check(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

// count records an exact work count. Counts are printed beside the
// timings; runs that repeat a pass compare the passes' counts.
func (r *report) count(name string, v int64) { r.counts[name] = v }

// sameCounts fails the run when two passes over the same inputs did
// different work.
func (r *report) sameCounts(what string, a, b map[string]int64) {
	if err := diffCounts(a, b); err != nil {
		r.fail("%s: %v", what, err)
	}
}

// correct reports whether every output check passed. A failed operation
// whose output is still right (a spind request whose simulation did not
// drain, answered exactly as the simulator computes it) counts in
// failed but leaves the outputs correct.
func (r *report) correct() bool { return len(r.problems) == 0 }

// params sizes one run. Work is derived from --seconds at a nominal
// rate, never from the clock, so every count repeats exactly.
type params struct {
	seed    int64
	seconds int
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(p params, rep *report) error{
	"sweep_fig6":    runSweep,
	"mesh64x64_low": runMesh,
	"spind_mix":     runSpind,
}

// endToEnd and perLayer list every metric name with its unit, in print
// order. Every run prints every metric of its mode; a layer a workload
// bypasses reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"topology.build_s", "s"},
	{"topology.alloc_mb", "MB"},
	{"routing.build_s", "s"},
	{"routing.alloc_mb", "MB"},
	{"sim.new_network_s", "s"},
	{"sim.ns_per_router_cycle", "ns"},
	{"sim.ns_per_flit_hop", "ns"},
	{"sim.flit_hops", "count"},
	{"sim.drain_s", "s"},
	{"sim.accepted_over_offered", "ratio"},
	{"spin.spins", "count"},
	{"spin.probes", "count"},
	{"spin.kill_moves", "count"},
	{"spin.sm_sent", "count"},
	{"spin.deadlocked_points", "count"},
	{"spin.sat_run_s", "s"},
	{"spin.undrained_requests", "count"},
	{"runner.jobs", "count"},
	{"runner.busy_frac", "ratio"},
	{"runner.tail_idle_s", "s"},
	{"runner.job_max_s", "s"},
	{"exp.points", "count"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p95_ms", "ms"},
	{"serve.hit.decode_ms", "ms"},
	{"serve.hit.client_overhead_ms", "ms"},
	{"serve.miss.decode_ms", "ms"},
	{"serve.miss.queue_wait_ms", "ms"},
	{"serve.miss.compute_ms", "ms"},
	{"serve.miss.encode_ms", "ms"},
	{"serve.miss.client_overhead_ms", "ms"},
	{"harness.check_p50_ms", "ms"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.shared", "count"},
	{"cache.hit_ratio", "ratio"},
	{"trace.overhead_s", "s"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("spinbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep_fig6, mesh64x64_low or spind_mix")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 20, "nominal measured time; sizes the work")
	trace := fs.Int("trace", 0, "1 = traced pass printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "spinbench: need --workload (sweep_fig6, mesh64x64_low, spind_mix), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(goldenPath); err != nil {
		fmt.Fprintf(os.Stderr, "spinbench: run from the repository root: %v\n", err)
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep := newReport()
	err := fn(p, rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spinbench: %s: %v\n", *name, err)
		return 1
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spinbench: %v\n", err)
		return 1
	}
	rep.e2e["peak_rss_mb"] = metric{rss, "MB"}

	printCounts(rep.counts)
	fmt.Printf("error_rate %d/%d = %.4g\n", rep.failed, rep.attempted, float64(rep.failed)/float64(max(rep.attempted, 1)))

	want, got := endToEnd, rep.e2e
	if p.trace {
		want, got = perLayer, rep.layer
	}
	res := result{Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		v := got[m.name]
		v.Unit = m.unit
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		res.Metrics[m.name] = v
		fmt.Printf("%-32s %14.6g %s\n", m.name, v.Value, m.unit)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return 0
}

// peakRSSMB reports the process's peak resident set size in MB, as the
// kernel accounts it (getrusage ru_maxrss, in KB on Linux).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}

// allocMB reports the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tailQuantile picks the highest of p99, p95, p90, p75 and p50 that has
// at least ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, pct := range []int{99, 95, 90, 75} {
		if n*(100-pct) >= 10*100 {
			return float64(pct) / 100
		}
	}
	return 0.5
}

// latencyLine prints the median and tail of a latency distribution with
// its sample count.
func latencyLine(label string, ms []float64) {
	q := tailQuantile(len(ms))
	fmt.Printf("%s: n=%d p50=%.4g ms p%g=%.4g ms (%d samples beyond)\n",
		label, len(ms), median(ms), q*100, quantile(ms, q), len(ms)-int(math.Ceil(q*float64(len(ms)))))
}

func printCounts(c map[string]int64) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c[k])
	}
	fmt.Println("counts:", strings.Join(parts, " "))
}

// diffCounts reports every count that differs between two passes.
func diffCounts(want, got map[string]int64) error {
	var diffs []string
	for k, v := range want {
		if got[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s: %d then %d", k, v, got[k]))
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: absent then %d", k, v))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("work counts differ between passes: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// spanLog keeps spans in memory; write flushes them to a file at exit.
type spanLog struct {
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one recorded span: a name, its parent's index (-1 for a
// root), and its wall-clock interval. A span that crossed into the spind
// server also carries the trace and span IDs the server's spans point at.
type spanRec struct {
	Name   string    `json:"name"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	Dur    float64   `json:"dur_s"`
	Trace  string    `json:"trace_id,omitempty"`
	ID     string    `json:"span_id,omitempty"`
}

// add records a finished span.
func (l *spanLog) add(r spanRec) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, r)
}

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRec{Name: name, Parent: parent, Start: time.Now()})
	return len(l.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (l *spanLog) end(i int) float64 {
	if l == nil || i < 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].Dur = time.Since(l.spans[i].Start).Seconds()
	return l.spans[i].Dur
}

// write saves the spans (plus any server-side spans passed as extra) to
// .bench_build/spans/<workload>_seed<n>.json.
func (l *spanLog) write(workload string, seed int64, extra any) error {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": l.spans, "server_spans": extra})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_seed%d.json", workload, seed))
	fmt.Printf("spans: %d client spans written to %s\n", len(l.spans), path)
	return os.WriteFile(path, b, 0o644)
}
