package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/harness"
	"repro/internal/otrace"
	"repro/internal/serve"
	"repro/internal/sim"
)

// spind_mix: an in-process spind server (memory-only cache, 2 workers)
// on a loopback listener, driven by a closed loop of two client
// connections with a seeded mix of cache hits, fresh simulations and
// checked simulations.
const (
	spindWarmKeys = 32
	// spindReqPerSecond is the nominal request rate that sizes the
	// request count from --seconds.
	spindReqPerSecond = 150
	// Each block of spindBlock requests holds 80% hits, 5% checked
	// misses and 15% fresh unchecked misses.
	spindBlock       = 20
	spindBlockHits   = 16
	spindBlockChecks = 1
	spindClients     = 2
	spindWorkers     = 2
	spindSetups      = 5
	// spindVerify misses, plus spindVerifyUndrained of those that did
	// not drain, are re-run in process after the timed phase.
	spindVerify          = 8
	spindVerifyUndrained = 4
	spindCycles          = 2000
	// spindDrain is each request's drain budget. Most runs drain in
	// under 60 cycles; about one in ten does not drain within it, and
	// each such request counts as a failed operation (see README.md,
	// known defect).
	spindDrain = 500
	spindRate  = 0.1
)

// request kinds of the mix.
const (
	kindHit = iota
	kindMiss
	kindCheck
)

var kindNames = []string{"hit", "miss", "check"}

// spindReq is one request of the mix.
type spindReq struct {
	kind int
	warm int // warm-set index, for hits
	sc   harness.Scenario
	body []byte
}

// spindScenario is the simulation every request asks for, differing
// only in seed: mesh:8x8, FAvORS-min, SPIN, 1 VC, 0.1 load, drained.
func spindScenario(seed int64) harness.Scenario {
	return harness.Scenario{Topology: "mesh:8x8", Routing: "favors_min", Scheme: "spin", Traffic: "uniform_random",
		Rate: spindRate, VCsPerVNet: 1, Seed: seed, Cycles: spindCycles, DrainCycles: spindDrain}
}

func newSpindReq(kind, warm int, sc harness.Scenario) spindReq {
	b, err := json.Marshal(serve.SimRequest{Scenario: sc, Check: kind == kindCheck})
	if err != nil {
		panic(err) // the request types are plain data
	}
	return spindReq{kind: kind, warm: warm, sc: sc, body: b}
}

// genMix draws the warm set and n timed requests from seed. Every fresh
// request carries a seed never drawn before, so its key is new.
func genMix(seed int64, n int) (warm []spindReq, reqs []spindReq) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	fresh := func() harness.Scenario {
		for {
			s := rng.Int63()
			if !used[s] {
				used[s] = true
				return spindScenario(s)
			}
		}
	}
	for i := 0; i < spindWarmKeys; i++ {
		warm = append(warm, newSpindReq(kindMiss, i, fresh()))
	}
	// Exact shares in every block of spindBlock requests, shuffled within
	// the block: the load stays even along the run, so the two clients'
	// overlap does not swing with the seed.
	kinds := make([]int, 0, n)
	for len(kinds) < n {
		blk := make([]int, spindBlock)
		for i := range blk {
			switch {
			case i < spindBlockHits:
				blk[i] = kindHit
			case i < spindBlockHits+spindBlockChecks:
				blk[i] = kindCheck
			default:
				blk[i] = kindMiss
			}
		}
		rng.Shuffle(len(blk), func(a, b int) { blk[a], blk[b] = blk[b], blk[a] })
		kinds = append(kinds, blk[:min(len(blk), n-len(kinds))]...)
	}
	for _, k := range kinds {
		if k == kindHit {
			r := warm[rng.Intn(spindWarmKeys)]
			r.kind = kindHit
			reqs = append(reqs, r)
		} else {
			reqs = append(reqs, newSpindReq(k, -1, fresh()))
		}
	}
	return warm, reqs
}

// spindServer is one in-process daemon on a loopback listener.
type spindServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer() (*spindServer, error) {
	store, err := cache.Open("", 1<<16)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Cache: store, Workers: spindWorkers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &spindServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the listener down, waits for the serve loop to return and
// drains the worker pool.
func (s *spindServer) close() {
	s.hs.Shutdown(context.Background())
	<-s.done
	s.srv.Close()
}

// reply is one response as the client saw it.
type reply struct {
	code  int
	cache string
	body  []byte
	start time.Time
	ms    float64
	err   error
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends one request; a non-empty traceparent parents the server's
// spans under the client's span for the request.
func post(c *http.Client, url string, body []byte, traceparent string) reply {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{code: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b, start: t0, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, err: err}
}

// clientSpan names request i's client span within its own trace: the
// trace and span IDs the traceparent header carries.
func clientSpan(i int) (traceID, spanID string) {
	return fmt.Sprintf("%032x", i+1), fmt.Sprintf("%016x", i+1)
}

// closedLoop sends reqs over spindClients connections, each client
// sending its next request only after the previous reply, and returns
// the replies in request order with the phase's wall time. With traced,
// every request carries its client span's traceparent.
func closedLoop(url string, reqs []spindReq, traced bool) ([]reply, float64) {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < spindClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				tp := ""
				if traced {
					tid, sid := clientSpan(i)
					tp = otrace.FormatTraceparent(tid, sid)
				}
				out[i] = post(cl, url, reqs[i].body, tp)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start).Seconds()
}

// setupSpind starts a server and primes the warm set, returning the
// server, the bytes that filled each warm key, and the set-up time.
func setupSpind(warm []spindReq) (*spindServer, [][]byte, float64, error) {
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, nil, 0, err
	}
	replies, _ := closedLoop(s.url+"/v1/simulate", warm, false)
	d := time.Since(t0).Seconds()
	fills := make([][]byte, len(warm))
	for i, r := range replies {
		if err := checkReply(r, "miss"); err != nil {
			s.close()
			return nil, nil, 0, fmt.Errorf("priming warm key %d: %w", i, err)
		}
		fills[i] = r.body
	}
	return s, fills, d, nil
}

// checkReply checks the status and cache outcome of one reply.
func checkReply(r reply, wantCache string) error {
	if r.err != nil {
		return r.err
	}
	if r.code != http.StatusOK {
		return fmt.Errorf("status %d: %s", r.code, bytes.TrimSpace(r.body))
	}
	if r.cache != wantCache {
		return fmt.Errorf("X-Cache %q, want %q", r.cache, wantCache)
	}
	return nil
}

// traceEnvelope is the ?trace=server response shape.
type traceEnvelope struct {
	Spans  []otrace.SpanData `json:"spans"`
	Result json.RawMessage   `json:"result"`
}

// resultOf returns the simulation result inside a reply body (the body
// itself, or the envelope's result when traced) and any server spans.
func resultOf(body []byte, traced bool) ([]byte, []otrace.SpanData, error) {
	if !traced {
		return body, nil, nil
	}
	var env traceEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, nil, fmt.Errorf("trace envelope: %w", err)
	}
	return env.Result, env.Spans, nil
}

// checkHitBytes fails a hit whose result differs by one byte from the
// response that filled its key. A traced result is compact JSON, so both
// sides are compacted first.
func checkHitBytes(hit, fill []byte, traced bool) error {
	if traced {
		var a, b bytes.Buffer
		if err := json.Compact(&a, hit); err != nil {
			return err
		}
		if err := json.Compact(&b, fill); err != nil {
			return err
		}
		hit, fill = a.Bytes(), b.Bytes()
	}
	if !bytes.Equal(hit, fill) {
		return fmt.Errorf("cache hit bytes differ from the miss that filled the key (%d vs %d bytes)", len(hit), len(fill))
	}
	return nil
}

// checkMissResult decodes a computed result and checks that a checked
// request's checker reported ok. It also reports whether the drain
// completed. A result that did not drain is a failed operation, but its
// bytes are still checked: it is replayed in process like any miss.
func checkMissResult(res []byte, check bool) (drained bool, err error) {
	var sr serve.SimResponse
	if err := json.Unmarshal(res, &sr); err != nil {
		return false, fmt.Errorf("result does not decode: %w", err)
	}
	if sr.Stats.Drained == nil {
		return false, fmt.Errorf("request %s: result lacks the drain outcome", sr.Key)
	}
	if check && (sr.Check == nil || !sr.Check.OK) {
		return false, fmt.Errorf("request %s: checker did not report ok: %+v", sr.Key, sr.Check)
	}
	return *sr.Stats.Drained, nil
}

// mixOutcome is one timed pass over the mix.
type mixOutcome struct {
	wall                 float64
	replies              []reply  // without bodies
	ok                   []bool   // the reply passed every check
	results              [][]byte // simulation result per miss
	spans                [][]otrace.SpanData
	hits, misses, shared int64
	undrained            []int // requests whose simulation did not drain
}

// latencies returns the client latencies (ms) of the requests of the
// given kinds that passed their checks.
func (o mixOutcome) latencies(reqs []spindReq, kinds ...int) []float64 {
	var ms []float64
	for i, q := range reqs {
		if o.ok[i] && slices.Contains(kinds, q.kind) {
			ms = append(ms, o.replies[i].ms)
		}
	}
	return ms
}

// runMix sends reqs to s and checks every reply.
func runMix(rep *report, s *spindServer, reqs []spindReq, fills [][]byte, traced bool) mixOutcome {
	url := s.url + "/v1/simulate"
	if traced {
		url += "?trace=server"
	}
	before := s.srv.Snapshot()
	replies, wall := closedLoop(url, reqs, traced)
	after := s.srv.Snapshot()
	o := mixOutcome{wall: wall, replies: replies, ok: make([]bool, len(reqs)), results: make([][]byte, len(reqs)), spans: make([][]otrace.SpanData, len(reqs)),
		hits: after.Hits - before.Hits, misses: after.Misses - before.Misses, shared: after.Shared - before.Shared}
	rep.attempted += int64(len(reqs))
	for i, r := range replies {
		q := reqs[i]
		want := "miss"
		if q.kind == kindHit {
			want = "hit"
		}
		err := checkReply(r, want)
		var res []byte
		if err == nil {
			res, o.spans[i], err = resultOf(r.body, traced)
		}
		if err == nil && q.kind == kindHit {
			err = checkHitBytes(res, fills[q.warm], traced)
		}
		drained := true
		if err == nil && q.kind != kindHit {
			drained, err = checkMissResult(res, q.kind == kindCheck)
		}
		o.replies[i].body = nil
		if err != nil {
			rep.failed++
			rep.fail("request %d (%s): %v", i, kindNames[q.kind], err)
			continue
		}
		o.ok[i] = true
		if q.kind != kindHit {
			o.results[i] = res
		}
		if !drained {
			rep.failed++
			o.undrained = append(o.undrained, i)
		}
	}
	return o
}

// replayed is one miss re-run in process.
type replayed struct {
	stats        serve.SimStats
	check        *serve.CheckReport
	runS, drainS float64
	routerCycles float64
	runHops      int64 // flit hops before the drain
	final        sim.Stats
}

// replayRequest runs a request's scenario in process at shards=1 the way
// the server computes it.
func replayRequest(q spindReq) (replayed, error) {
	var out replayed
	sc := q.sc.Normalized()
	s, err := sc.SimShards(1)
	if err != nil {
		return out, err
	}
	net := s.Network()
	var checker *sim.InvariantChecker
	if q.kind == kindCheck {
		checker = net.AttachChecker(sc.CheckOptions(net.NumRouters()))
	}
	t0 := time.Now()
	s.Run(sc.Cycles)
	out.runS = time.Since(t0).Seconds()
	out.routerCycles = float64(net.NumRouters()) * float64(sc.Cycles)
	st := s.Stats()
	out.runHops = st.LinkTraversals
	out.stats = serve.SimStats{Injected: st.Injected, Ejected: st.Ejected, AvgLatency: st.AvgLatency(), AvgNetLatency: st.AvgNetLatency(),
		MaxLatency: st.MaxLatency, AvgHops: st.AvgHops(), Throughput: s.Throughput(), Spins: st.Spins}
	t0 = time.Now()
	drained := s.Drain(sc.DrainCycles)
	out.drainS = time.Since(t0).Seconds()
	out.stats.Drained = &drained
	if checker != nil {
		v := checker.Violations()
		out.check = &serve.CheckReport{OK: len(v) == 0, Violations: v, MaxDeadlockSpell: checker.MaxDeadlockSpell()}
	}
	out.final = *s.Stats()
	return out, nil
}

// verifyMisses re-runs a seeded sample of the pass's misses in process
// and compares them with the server's results.
func verifyMisses(rep *report, seed int64, reqs []spindReq, o mixOutcome) []replayed {
	var misses []int
	for i, q := range reqs {
		if q.kind != kindHit && o.results[i] != nil {
			misses = append(misses, i)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rng.Shuffle(len(misses), func(a, b int) { misses[a], misses[b] = misses[b], misses[a] })
	misses = misses[:min(spindVerify, len(misses))]
	undrained := append([]int(nil), o.undrained...)
	rng.Shuffle(len(undrained), func(a, b int) { undrained[a], undrained[b] = undrained[b], undrained[a] })
	for _, i := range undrained[:min(spindVerifyUndrained, len(undrained))] {
		if !slices.Contains(misses, i) {
			misses = append(misses, i)
		}
	}
	sort.Ints(misses)
	var out []replayed
	for _, i := range misses {
		q := reqs[i]
		var sr serve.SimResponse
		if err := json.Unmarshal(o.results[i], &sr); err != nil {
			rep.fail("request %d: %v", i, err)
			continue
		}
		got, err := replayRequest(q)
		if err != nil {
			rep.fail("request %d: in-process replay: %v", i, err)
			continue
		}
		fmt.Printf("replay of request %d (%s): offered %.4g accepted %.4g drain %v\n", i, kindNames[q.kind], q.sc.Rate, got.stats.Throughput, *got.stats.Drained)
		rep.check(compareReplay(i, sr, got))
		out = append(out, got)
	}
	fmt.Printf("%d misses (a seeded sample, with undrained ones) match their in-process shards=1 replay\n", len(out))
	return out
}

// compareReplay compares a server result with its in-process replay.
func compareReplay(i int, sr serve.SimResponse, got replayed) error {
	if !reflect.DeepEqual(sr.Stats, got.stats) {
		return fmt.Errorf("request %d: server stats %+v differ from the in-process replay %+v", i, sr.Stats, got.stats)
	}
	if (sr.Check == nil) != (got.check == nil) || (got.check != nil && (sr.Check.OK != got.check.OK || sr.Check.MaxDeadlockSpell != got.check.MaxDeadlockSpell)) {
		return fmt.Errorf("request %d: server check report %+v differs from the in-process replay %+v", i, sr.Check, got.check)
	}
	return nil
}

func runSpind(p params, rep *report) error {
	n := p.seconds * spindReqPerSecond
	warm, reqs := genMix(p.seed, n)
	var kinds [3]int64
	for _, q := range reqs {
		kinds[q.kind]++
	}
	fmt.Printf("spind_mix: %d requests (%d hits over %d warm keys, %d fresh misses, %d checked) on %d client connections\n",
		n, kinds[kindHit], spindWarmKeys, kinds[kindMiss], kinds[kindCheck], spindClients)
	if p.trace {
		return runSpindTraced(p, rep, warm, reqs)
	}
	var setups []float64
	var s *spindServer
	var fills [][]byte
	for i := 0; i < spindSetups; i++ {
		if s != nil {
			s.close()
		}
		var d float64
		var err error
		s, fills, d, err = setupSpind(warm)
		if err != nil {
			return err
		}
		setups = append(setups, d)
	}
	fmt.Printf("setup (server start + %d primed keys) x%d: %v s\n", spindWarmKeys, spindSetups, fmtFloats(setups))
	o := runMix(rep, s, reqs, fills, false)
	s.close()
	verifyMisses(rep, p.seed, reqs, o)
	rep.counts = spindCounts(o)
	rep.e2e["setup_s"] = metric{median(setups), "s"}
	rep.e2e["wall_s"] = metric{o.wall, "s"}
	fmt.Printf("req_per_s: %.4g (%d requests in %.4g s)\n", float64(len(reqs))/o.wall, len(reqs), o.wall)
	classLatencies(o, reqs)
	latencyLine("all requests", o.latencies(reqs, kindHit, kindMiss, kindCheck))
	return nil
}

// classLatencies prints the hit and miss latency distributions and
// returns hit p50, hit p99, miss p50 and miss p95.
func classLatencies(o mixOutcome, reqs []spindReq) [4]float64 {
	h, misses := o.latencies(reqs, kindHit), o.latencies(reqs, kindMiss, kindCheck)
	var out [4]float64
	out[0], out[1] = median(h), quantile(h, 0.99)
	out[2], out[3] = median(misses), quantile(misses, 0.95)
	fmt.Printf("hits: n=%d p50=%.4g ms p99=%.4g ms (%d beyond); misses: n=%d p50=%.4g ms p95=%.4g ms (%d beyond)\n",
		len(h), out[0], out[1], len(h)/100, len(misses), out[2], out[3], len(misses)/20)
	return out
}

// spindCounts prints the failed (undrained) requests of a pass and
// returns its exact work counts.
func spindCounts(o mixOutcome) map[string]int64 {
	fmt.Printf("failed: %d requests did not drain within %d cycles (1-VC SPIN defect below saturation, kept visible; see README.md), the first: %v\n",
		len(o.undrained), spindDrain, o.undrained[:min(10, len(o.undrained))])
	return map[string]int64{
		"spin.undrained_requests": int64(len(o.undrained)),
		"cache.hits":              o.hits,
		"cache.misses":            o.misses,
		"cache.shared":            o.shared,
	}
}

// runSpindTraced runs the mix twice on fresh servers, untraced and then
// with ?trace=server; their wall-time difference is the tracing
// overhead, and the server spans give the per-layer split.
func runSpindTraced(p params, rep *report, warm, reqs []spindReq) error {
	s, fills, _, err := setupSpind(warm)
	if err != nil {
		return err
	}
	plain := runMix(rep, s, reqs, fills, false)
	s.close()

	log := &spanLog{}
	s, fills, _, err = setupSpind(warm)
	if err != nil {
		return err
	}
	root := log.begin("spind_mix traced pass", -1)
	traced := runMix(rep, s, reqs, fills, true)
	log.end(root)
	s.close()
	replays := verifyMisses(rep, p.seed, reqs, traced)
	rep.counts = spindCounts(traced)
	rep.sameCounts("spind_mix untraced and traced passes", spindCounts(plain), rep.counts)

	m := rep.layer
	cl := classLatencies(plain, reqs)
	m["serve.hit_p50_ms"] = metric{cl[0], "ms"}
	m["serve.hit_p99_ms"] = metric{cl[1], "ms"}
	m["serve.miss_p50_ms"] = metric{cl[2], "ms"}
	m["serve.miss_p95_ms"] = metric{cl[3], "ms"}

	// Per-class medians of the server's span durations, and the client
	// time outside the server's root span.
	span := map[string][]float64{}
	var server []otrace.SpanData
	for i, q := range reqs {
		if !traced.ok[i] { // failed, already reported
			continue
		}
		class := "miss"
		if q.kind == kindHit {
			class = "hit"
		}
		if q.kind == kindCheck {
			class = "check"
		}
		tid, sid := clientSpan(i)
		r := traced.replies[i]
		log.add(spanRec{Name: "request " + kindNames[q.kind], Parent: root, Start: r.start, Dur: r.ms / 1e3, Trace: tid, ID: sid})
		for _, d := range traced.spans[i] {
			ms := float64(d.Dur) / 1e6
			span[class+"."+d.Name] = append(span[class+"."+d.Name], ms)
			if d.Parent == sid { // the server's root span
				span[class+".client_overhead"] = append(span[class+".client_overhead"], r.ms-ms)
			}
		}
		server = append(server, traced.spans[i]...)
	}
	med := func(k string) float64 { return median(span[k]) }
	m["serve.hit.decode_ms"] = metric{med("hit.decode"), "ms"}
	m["serve.hit.client_overhead_ms"] = metric{med("hit.client_overhead"), "ms"}
	m["serve.miss.decode_ms"] = metric{med("miss.decode"), "ms"}
	m["serve.miss.queue_wait_ms"] = metric{med("miss.queue_wait"), "ms"}
	m["serve.miss.compute_ms"] = metric{med("miss.compute"), "ms"}
	m["serve.miss.encode_ms"] = metric{med("miss.encode"), "ms"}
	m["serve.miss.client_overhead_ms"] = metric{med("miss.client_overhead"), "ms"}
	m["harness.check_p50_ms"] = metric{med("check.compute"), "ms"}
	m["spin.undrained_requests"] = metric{float64(len(traced.undrained)), "count"}
	m["cache.hits"] = metric{float64(traced.hits), "count"}
	m["cache.misses"] = metric{float64(traced.misses), "count"}
	m["cache.shared"] = metric{float64(traced.shared), "count"}
	m["cache.hit_ratio"] = metric{float64(traced.hits) / float64(traced.hits+traced.misses+traced.shared), "ratio"}

	var runS, drainS, routerCycles, offered, accepted, satS float64
	var hops sim.Stats
	for _, r := range replays {
		if r.stats.Throughput < 0.95*spindRate {
			satS += r.runS + r.drainS
		}
		runS += r.runS
		drainS += r.drainS
		routerCycles += r.routerCycles
		offered += spindRate
		accepted += r.stats.Throughput
		hops.LinkTraversals += r.runHops
		spinLayerMetrics(m, &r.final)
	}
	simLayerMetrics(m, runS, routerCycles, &hops)
	m["sim.drain_s"] = metric{drainS, "s"}
	m["sim.accepted_over_offered"] = metric{accepted / offered, "ratio"}
	m["spin.sat_run_s"] = metric{satS, "s"}
	m["trace.overhead_s"] = metric{traced.wall - plain.wall, "s"}
	fmt.Printf("trace overhead: traced %.4g s - untraced %.4g s = %.4g s\n", traced.wall, plain.wall, traced.wall-plain.wall)
	return log.write("spind_mix", p.seed, server)
}
