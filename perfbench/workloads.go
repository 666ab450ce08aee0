package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/imgutil"
	"repro/internal/trace"
)

const (
	// setupReps is how many times a run builds the system under test;
	// setup_s is the median, and the last build is the one measured.
	setupReps = 5
	// openShare is the share of --seconds given to the open-loop latency
	// phase; the closed-loop throughput phase gets the rest.
	openShare = 0.65
	// coldCacheBytes bounds cold-upload's prepared cache to about seven
	// S=32² entries at 512², so inserts and evictions churn within a run.
	coldCacheBytes = 64 << 20
	// closedHeadroom sizes the pre-generated closed-loop pool as a multiple
	// of the open-loop rate (the rates sit near a third of capacity).
	closedHeadroom = 3
	// timeoutMS stands in for the latency of a failed request: a failure
	// misses every latency limit.
	timeoutMS = 60000
)

func phaseSplit(seconds float64) (open, closed time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	open = time.Duration(float64(total) * openShare)
	return open, total - open
}

// measureSetup builds the system setupReps times, keeps the last build and
// records the median build time as setup_s.
func measureSetup(rep *report, build func() (*system, error)) (*system, error) {
	var times []float64
	var sys *system
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		sys = s
	}
	rep.set("setup_s", median(times))
	rep.samples("setup_s", len(times))
	return sys, nil
}

// checkAll runs check on every answer in parallel after the timed phases,
// counts each as attempted and valid or failed, and reports each failure
// under its label (the request ID). It returns which answers are valid.
func checkAll(rep *report, n int, check func(i int) error, label func(i int) string) []bool {
	errs := make([]error, n)
	parallelFor(n, func(i int) { errs[i] = check(i) })
	valid := make([]bool, n)
	for i, err := range errs {
		valid[i] = err == nil
		rep.count(valid[i])
		if err != nil {
			rep.fail("%s: %v", label(i), err)
		}
	}
	return valid
}

// checkOutcomes verifies every HTTP answer.
func checkOutcomes(rep *report, chk *checker, outs []outcome) []bool {
	return checkAll(rep, len(outs), func(i int) error {
		o := &outs[i]
		if !o.ok() {
			return errors.New(o.describe())
		}
		err := chk.checkPNG(o.req.pair, o.req.tiles, o.resp.PNGBase64, o.resp.TotalError)
		o.resp.PNGBase64 = "" // the check is the only reader; free the memory
		return err
	}, func(i int) string { return fmt.Sprintf("request %s (%s)", outs[i].req.id, outs[i].req.eng) })
}

// serviceMetrics derives the end-to-end metrics of a service workload from
// its open-loop and closed-loop phases.
func serviceMetrics(rep *report, sh shape, open []outcome, openValid []bool, closed []outcome, closedValid []bool, deck int) {
	lat := make([]float64, len(open))
	var errSum int64
	var nOK int
	for i, o := range open {
		lat[i] = math.Inf(1)
		if openValid[i] {
			lat[i] = ms(o.latency())
			errSum += o.resp.TotalError
			nOK++
		}
	}
	rep.set("latency_p50_ms", capInf(quantile(lat, 0.50)))
	rep.set("latency_p95_ms", capInf(quantile(lat, 0.95)))
	rep.samples("latency_p50_ms", len(lat))
	rep.samples("latency_p95_ms", len(lat))
	rep.set("error_per_pixel", float64(errSum)/float64(max(1, nOK)*sh.size*sh.size))
	rep.samples("error_per_pixel", nOK)
	rep.exact("open.total_error", errSum)
	rep.exact("open.answers", int64(nOK))
	byEngine := map[string][]float64{}
	for i, o := range open {
		byEngine[o.req.eng.String()] = append(byEngine[o.req.eng.String()], lat[i])
	}
	perEngine := map[string]string{}
	for e, ls := range byEngine {
		perEngine[e] = fmt.Sprintf("n=%d p50 %.1f ms p95 %.1f ms max %.1f ms", len(ls), quantile(ls, 0.5), quantile(ls, 0.95), quantile(ls, 1))
	}
	rep.note("open_latency_by_engine", perEngine)
	rep.set("mosaics_per_s", closedThroughput(closed, closedValid, nproc(), deck))
	rep.samples("mosaics_per_s", len(closed))
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("failed_frac", float64(rep.Failed)/float64(max(1, rep.Attempted)))
}

func capInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return timeoutMS
	}
	return v
}

// ---- cold-upload ----------------------------------------------------------

// coldPair schedules request idx: every scene is placed onto each of the
// other seven in turn, each time with fresh seeded perturbations.
func coldPair(cfg config, idx uint64) pairSpec {
	a := int(idx % numScenes)
	b := (a + 1 + int(idx/numScenes)%(numScenes-1)) % numScenes
	return pairSpec{seed: cfg.seed, idx: idx, a: a, b: b, size: cfg.shape.size}
}

// coldRequests builds n distinct-content uploads starting at stream index
// from, each with the service's default Step-3 engine.
func coldRequests(cfg config, prefix string, from uint64, n int) ([]*request, error) {
	return buildRequests(n, func(i int) (string, pairSpec, engine) {
		idx := from + uint64(i)
		return fmt.Sprintf("%s-%d", prefix, idx), coldPair(cfg, idx), engDefault
	}, cfg.shape.tiles)
}

// Stream index ranges, so no two requests of a run share content.
const (
	coldWarmupBase = 1 << 32
	coldClosedBase = 1 << 20
	coldTracedBase = 1 << 24
)

func coldSystem(cfg config, log *accessLog, warmup *request) (*system, error) {
	sc, err := backendConfig(cfg, coldCacheBytes)
	if err != nil {
		return nil, err
	}
	if log != nil {
		sc.AccessLog = log
	}
	b, err := startBackend(sc)
	if err != nil {
		return nil, err
	}
	sys := &system{url: b.url, backends: []*backend{b}}
	if log != nil {
		sys.logs = []*accessLog{log}
	}
	client := newClient()
	defer client.CloseIdleConnections()
	if o := send(client, sys.url, warmup); !o.ok() {
		sys.close()
		return nil, fmt.Errorf("warm-up request: %s", o.describe())
	}
	return sys, nil
}

// requireDistinct proves that no two requests share a content hash.
func requireDistinct(rep *report, groups ...[]*request) {
	seen := map[string]bool{}
	total := 0
	for _, g := range groups {
		for _, r := range g {
			seen[r.key] = true
			total++
		}
	}
	rep.note("distinct_content_keys", len(seen))
	if len(seen) != total {
		rep.fail("%d requests carry only %d distinct content hashes", total, len(seen))
	}
}

func runColdUpload(cfg config, rep *report) error {
	sh := cfg.shape
	openDur, closedDur := phaseSplit(cfg.seconds)
	nOpen := max(1, int(sh.rate*openDur.Seconds()))
	nClosed := int(closedHeadroom*sh.rate*closedDur.Seconds()) + 2*nproc()
	open, err := coldRequests(cfg, "open", 0, nOpen)
	if err != nil {
		return err
	}
	closed, err := coldRequests(cfg, "closed", coldClosedBase, nClosed)
	if err != nil {
		return err
	}
	warm, err := coldRequests(cfg, "warmup", coldWarmupBase, setupReps)
	if err != nil {
		return err
	}
	requireDistinct(rep, open, closed, warm)

	rep.note("phases", fmt.Sprintf("open loop %d requests at %.1f/s over %v; closed loop %d clients for %v", nOpen, sh.rate, openDur, nproc(), closedDur))
	n := 0
	sys, err := measureSetup(rep, func() (*system, error) {
		n++
		return coldSystem(cfg, nil, warm[n-1])
	})
	if err != nil {
		return err
	}
	defer sys.close()
	client := newClient()
	defer client.CloseIdleConnections()
	do := func(r *request) outcome { return send(client, sys.url, r) }
	openOuts, health := openLoop(open, sh.rate, do)
	closedOuts := closedLoop(closed, nproc(), closedDur, do)
	if len(closedOuts) == len(closed) {
		rep.note("closed_pool_exhausted", true)
	}
	rep.Generator = &health
	rep.Invalid = health.invalid()

	chk := newChecker()
	openValid := checkOutcomes(rep, chk, openOuts)
	closedValid := checkOutcomes(rep, chk, closedOuts)
	serviceMetrics(rep, sh, openOuts, openValid, closedOuts, closedValid, 1)
	return nil
}

// ---- warm-cluster ---------------------------------------------------------

// The warm library: K content pairs, requested with a skewed popularity
// (warmWeights, summing to one deck of 16) and a mix of four Step-3 engines
// (pair j's k-th request in a deck uses engine (j+k) mod 4). Each deck is
// the same multiset of (pair, engine) in a seeded order, so the traffic mix
// is identical across seeds and only its order and pixels vary.
var (
	warmWeights = []int{4, 3, 2, 2, 2, 1, 1, 1}
	warmEngines = []engine{engApprox, engParallel, engJV, engAuction}
)

const (
	warmBackends = 2
	warmDeck     = 16 // Σ warmWeights
)

func warmPair(cfg config, j int) pairSpec {
	return pairSpec{seed: cfg.seed, idx: uint64(j), a: j % numScenes, b: (j + 1) % numScenes, size: cfg.shape.size}
}

// warmLibrary builds the request template of every (pair, engine).
func warmLibrary(cfg config) ([][]*request, error) {
	flat, err := buildRequests(len(warmWeights)*len(warmEngines), func(i int) (string, pairSpec, engine) {
		j, e := i/len(warmEngines), i%len(warmEngines)
		return fmt.Sprintf("lib-%d-%d", j, e), warmPair(cfg, j), warmEngines[e]
	}, cfg.shape.tiles)
	if err != nil {
		return nil, err
	}
	lib := make([][]*request, len(warmWeights))
	for j := range lib {
		lib[j] = flat[j*len(warmEngines) : (j+1)*len(warmEngines)]
	}
	return lib, nil
}

// warmSequence returns n requests of the seeded deck stream starting at
// deck `firstDeck`.
func warmSequence(cfg config, lib [][]*request, prefix string, firstDeck uint64, n int) []*request {
	var out []*request
	for deck := firstDeck; len(out) < n; deck++ {
		var entries []*request
		for j, w := range warmWeights {
			for k := 0; k < w; k++ {
				entries = append(entries, lib[j][(j+k)%len(warmEngines)])
			}
		}
		rng := rand.New(rand.NewPCG(cfg.seed, deck))
		rng.Shuffle(len(entries), func(a, b int) { entries[a], entries[b] = entries[b], entries[a] })
		for _, e := range entries {
			if len(out) == n {
				break
			}
			out = append(out, e.withID(fmt.Sprintf("%s-%d", prefix, len(out))))
		}
	}
	return out
}

// warmSystem starts warmBackends mosaicds behind a router and fills their
// caches with every library pair through the router, nproc at a time.
func warmSystem(cfg config, lib [][]*request, traced bool) (*system, error) {
	sys := &system{}
	for i := 0; i < warmBackends; i++ {
		var log *accessLog
		if traced {
			log = &accessLog{}
		}
		sc, err := backendConfig(cfg, 0)
		if err != nil {
			return nil, err
		}
		if log != nil {
			sc.AccessLog = log
			sys.logs = append(sys.logs, log)
		}
		b, err := startBackend(sc)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.backends = append(sys.backends, b)
	}
	rt, err := startRouter(sys.backends)
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.router, sys.url = rt, rt.url
	fill := make([]*request, len(lib))
	for j := range lib {
		fill[j] = lib[j][0].withID(fmt.Sprintf("fill-%d", j))
	}
	client := newClient()
	defer client.CloseIdleConnections()
	outs := closedLoop(fill, nproc(), time.Hour, func(r *request) outcome { return send(client, sys.url, r) })
	for _, o := range outs {
		if !o.ok() {
			sys.close()
			return nil, fmt.Errorf("cache fill %s: %s", o.req.id, o.describe())
		}
	}
	return sys, nil
}

func runWarmCluster(cfg config, rep *report) error {
	sh := cfg.shape
	openDur, closedDur := phaseSplit(cfg.seconds)
	// Whole decks only, so every run's open-loop phase serves the same
	// multiset of (pair, engine) and error_per_pixel repeats across seeds.
	nOpen := max(1, int(sh.rate*openDur.Seconds())/warmDeck) * warmDeck
	nClosed := int(closedHeadroom*sh.rate*closedDur.Seconds()) + 2*nproc()
	lib, err := warmLibrary(cfg)
	if err != nil {
		return err
	}
	open := warmSequence(cfg, lib, "open", 0, nOpen)
	closed := warmSequence(cfg, lib, "closed", 1<<20, nClosed)
	rep.note("phases", fmt.Sprintf("open loop %d requests at %.1f/s over %v; closed loop %d clients for %v; %d pairs on %d backends", nOpen, sh.rate, openDur, nproc(), closedDur, len(lib), warmBackends))

	sys, err := measureSetup(rep, func() (*system, error) { return warmSystem(cfg, lib, false) })
	if err != nil {
		return err
	}
	defer sys.close()
	client := newClient()
	defer client.CloseIdleConnections()
	do := func(r *request) outcome { return send(client, sys.url, r) }
	openOuts, health := openLoop(open, sh.rate, do)
	closedOuts := closedLoop(closed, nproc(), closedDur, do)
	rep.Generator = &health
	rep.Invalid = health.invalid()

	chk := newChecker()
	openValid := checkOutcomes(rep, chk, openOuts)
	closedValid := checkOutcomes(rep, chk, closedOuts)
	misses := 0
	for _, o := range append(openOuts, closedOuts...) {
		if o.ok() && o.resp.Cache != "hit" {
			misses++
		}
	}
	rep.note("cache_misses_after_fill", misses)
	serviceMetrics(rep, sh, openOuts, openValid, closedOuts, closedValid, warmDeck)
	return nil
}

// ---- exact-s64 ------------------------------------------------------------

// exactEngines is one batch cycle: every pair is solved by all three.
var exactEngines = []engine{engJV, engAuction, engParallel}

// minExactCycles is the fixed prefix every run completes; its answers set
// error_per_pixel and the exact counters, so both repeat for a seed.
const minExactCycles = 2

// exactPair is cycle c's input: always lena placed onto peppers, with fresh
// seeded perturbations per cycle. JV's time at S=64² depends strongly on the
// scene pair (3.2 s to 16.7 s measured across pairs on a 2-CPU host) and a
// run holds only a few cycles, so rotating scenes would make a run's
// throughput depend on which pairs fell inside its window.
func exactPair(cfg config, c int) pairSpec {
	return pairSpec{seed: cfg.seed, idx: uint64(c), a: 0, b: 3, size: cfg.shape.size}
}

// library is the exact-s64 system under test: a device sized to the host and
// the edge coloring of K_S that the parallel search needs, computed once
// per S and reused across images as the paper does.
type library struct {
	dev      *cuda.Device
	coloring *edgecolor.Coloring
}

func newLibrary(cfg config) *library {
	s := cfg.shape.tiles * cfg.shape.tiles
	return &library{dev: cuda.New(nproc()), coloring: edgecolor.Complete(s)}
}

func (l *library) options(cfg config, e engine, tr trace.Collector) core.Options {
	return core.Options{
		TilesPerSide: cfg.shape.tiles,
		Algorithm:    e.alg,
		Solver:       e.solver,
		Device:       l.dev,
		Coloring:     l.coloring,
		Trace:        tr,
	}
}

type libCall struct {
	pair pairSpec
	eng  engine
	res  *core.Result
	err  error
	dur  time.Duration
}

// runCycles generates mosaics cycle by cycle (one pair, every engine) until
// dur has passed and at least minCycles cycles are done. With observe set,
// each call runs under a fresh span tree handed to observe afterwards.
func runCycles(cfg config, lib *library, first, minCycles int, dur time.Duration, observe func(c *libCall, tree *trace.Tree, start time.Time)) []libCall {
	type inputs struct{ in, tgt *imgutil.Gray }
	pre := map[int]inputs{}
	pairs := func(c int) inputs {
		if p, ok := pre[c]; ok {
			return p
		}
		in, tgt := exactPair(cfg, c).images()
		pre[c] = inputs{in, tgt}
		return pre[c]
	}
	// Inputs for the cycles a run can reach are generated before timing.
	for c := first; c < first+minCycles+4; c++ {
		pairs(c)
	}
	var calls []libCall
	start := time.Now()
	for c := first; c < first+minCycles || time.Since(start) < dur; c++ {
		p := pairs(c)
		for _, e := range exactEngines {
			call := libCall{pair: exactPair(cfg, c), eng: e}
			var tree *trace.Tree
			var tr trace.Collector
			if observe != nil {
				tree = trace.NewTree()
				tr = tree
			}
			t0 := time.Now()
			call.res, call.err = core.GenerateContext(context.Background(), p.in, p.tgt, lib.options(cfg, e, tr))
			call.dur = time.Since(t0)
			if observe != nil {
				observe(&call, tree, t0)
			}
			calls = append(calls, call)
		}
	}
	return calls
}

// checkCalls verifies every library answer.
func checkCalls(rep *report, calls []libCall, tiles int) []bool {
	chk := newChecker()
	return checkAll(rep, len(calls), func(i int) error {
		c := calls[i]
		switch {
		case c.err != nil:
			return c.err
		case c.res.Partial:
			return errors.New("partial answer")
		}
		return chk.checkImage(c.pair, tiles, c.res.Mosaic, c.res.TotalError)
	}, func(i int) string { return fmt.Sprintf("pair %d (%s)", calls[i].pair.idx, calls[i].eng) })
}

func runExactS64(cfg config, rep *report) error {
	var lib *library
	var times []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		lib = newLibrary(cfg)
		times = append(times, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(times))
	rep.samples("setup_s", len(times))
	rep.note("phases", fmt.Sprintf("closed loop, 1 caller, cycles of %v over %.0fs (at least %d cycles)", exactEngines, cfg.seconds, minExactCycles))

	dur := time.Duration(cfg.seconds * float64(time.Second))
	calls := runCycles(cfg, lib, 0, minExactCycles, dur, nil)
	valid := checkCalls(rep, calls, cfg.shape.tiles)

	var lat []float64
	var errSum int64
	nPrefix := 0
	var perCall []string
	for i, c := range calls {
		perCall = append(perCall, fmt.Sprintf("pair %d %s %.0f ms", c.pair.idx, c.eng, ms(c.dur)))
		l := math.Inf(1)
		if valid[i] {
			l = ms(c.dur)
		}
		lat = append(lat, l)
		if i < minExactCycles*len(exactEngines) && valid[i] {
			errSum += c.res.TotalError
			nPrefix++
			key := fmt.Sprintf("call%d.%s.", i, c.eng)
			rep.exact(key+"total_error", c.res.TotalError)
			rep.exact(key+"sweeps", c.res.Stats.Counter(trace.CounterSweepRounds))
			rep.exact(key+"swap_attempts", c.res.Stats.Counter(trace.CounterSwapAttempts))
			rep.exact(key+"cuda_launches", c.res.Stats.Counter(trace.CounterKernelLaunches))
		}
	}
	rep.note("calls", perCall)
	// Timings are per cycle (the same three engines on one pair each),
	// medians over cycles.
	cyc := len(exactEngines)
	rep.set("latency_p50_ms", capInf(blockQuantile(lat, cyc, 0.50)))
	rep.set("latency_p95_ms", capInf(blockQuantile(lat, cyc, 0.95)))
	rep.samples("latency_p50_ms", len(lat))
	rep.samples("latency_p95_ms", len(lat))
	var rates []float64
	for i := 0; i+cyc <= len(calls); i += cyc {
		var busy time.Duration
		good := 0
		for j := i; j < i+cyc; j++ {
			busy += calls[j].dur
			if valid[j] {
				good++
			}
		}
		rates = append(rates, float64(good)/busy.Seconds())
	}
	rep.set("mosaics_per_s", median(rates))
	rep.samples("mosaics_per_s", len(calls))
	sz := cfg.shape.size
	rep.set("error_per_pixel", float64(errSum)/float64(max(1, nPrefix)*sz*sz))
	rep.samples("error_per_pixel", nPrefix)
	rep.exact("prefix.total_error", errSum)
	rep.set("peak_rss_mb", peakRSSMB())
	rep.set("failed_frac", float64(rep.Failed)/float64(max(1, rep.Attempted)))
	return nil
}
