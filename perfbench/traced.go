package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/edgecolor"
	"repro/internal/hist"
	"repro/internal/imgutil"
	"repro/internal/localsearch"
	"repro/internal/metric"
	"repro/internal/perm"
	"repro/internal/service"
	"repro/internal/tile"
	"repro/internal/tilestore"
	"repro/internal/trace"
)

// A traced run measures the per-layer metrics. It runs the workload twice
// on fresh systems — once untraced, once with the benchmark's spans around
// every call plus the service access log — and then replays the workload's
// distinct inputs through each layer's public entry point. Spans are kept in
// memory and written to <out>/spans/ at the end. The difference between the
// two closed-loop segments is the tracing overhead.

// span is one recorded interval. Attributed spans are rebuilt from the
// service's access-log phases (or the library's own span tree): their
// duration is exact, their offset inside the parent is not.
type span struct {
	ID         int64  `json:"id"`
	Parent     int64  `json:"parent"`
	Name       string `json:"name"`
	RequestID  string `json:"request_id,omitempty"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	Attributed bool   `json:"attributed,omitempty"`
}

type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(s span) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	s.ID = int64(len(l.spans) + 1)
	l.spans = append(l.spans, s)
	return s.ID
}

// record stores a finished interval and returns its ID.
func (l *spanLog) record(name, reqID string, parent int64, start, end time.Time) int64 {
	return l.add(span{Parent: parent, Name: name, RequestID: reqID,
		StartNS: int64(start.Sub(l.t0)), EndNS: int64(end.Sub(l.t0))})
}

// attribute stores a child of parent with a known duration.
func (l *spanLog) attribute(name, reqID string, parent int64, at time.Time, d time.Duration) {
	l.add(span{Parent: parent, Name: name, RequestID: reqID, Attributed: true,
		StartNS: int64(at.Sub(l.t0)), EndNS: int64(at.Sub(l.t0) + d)})
}

// begin opens a span whose end is set by end; replay roots use it.
func (l *spanLog) begin(name, reqID string, parent int64) int64 {
	now := int64(time.Since(l.t0))
	return l.add(span{Parent: parent, Name: name, RequestID: reqID, StartNS: now, EndNS: now})
}

func (l *spanLog) end(id int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndNS = int64(time.Since(l.t0))
}

// do times fn as a span named name under parent.
func (l *spanLog) do(name, reqID string, parent int64, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	l.record(name, reqID, parent, start, end)
	return end.Sub(start)
}

// durations returns each span name's durations in ms.
func (l *spanLog) durations() map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range l.spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e6)
	}
	return out
}

func (l *spanLog) write(cfg config) (string, error) {
	dir := filepath.Join(cfg.outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", cfg.workload, cfg.seed, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// layers accumulates the replay's work counters.
type layers struct {
	tilePairs, bytesScanned, buildNS int64
	sweeps, attempts, swaps          int64
	certGap, trueGap                 float64
	bytesIn, inputs                  int64
	dev                              *cuda.Device
	dev0                             cuda.Metrics
}

// replayer calls each layer's public entry point under a span.
type replayer struct {
	cfg  config
	sl   *spanLog
	rep  *report
	chk  *checker
	ly   layers
	jv   map[pairSpec]int64 // JV optimum per pair, for assign.true_gap
	prep map[pairSpec]*core.Prepared
}

func newReplayer(cfg config, sl *spanLog, rep *report, dev *cuda.Device) *replayer {
	return &replayer{cfg: cfg, sl: sl, rep: rep, chk: newChecker(),
		ly: layers{dev: dev, dev0: dev.Metrics()}, jv: map[pairSpec]int64{}, prep: map[pairSpec]*core.Prepared{}}
}

func (r *replayer) m() int { return r.cfg.shape.size / r.cfg.shape.tiles }
func (r *replayer) s() int { return r.cfg.shape.tiles * r.cfg.shape.tiles }

// decode runs service.DecodeSubmission on the request body.
func (r *replayer) decode(req *request, parent int64) (*service.Request, error) {
	hreq, err := http.NewRequest(http.MethodPost, "/v1/mosaic", bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", req.ctype)
	var dec *service.Request
	r.sl.do("pnm.decode", req.id, parent, func() { dec, err = service.DecodeSubmission(hreq, 0) })
	r.ly.bytesIn += int64(len(req.body))
	r.ly.inputs++
	return dec, err
}

// prepare runs preprocessing and Step 2 as the service does on a miss.
func (r *replayer) prepare(reqID string, parent int64, in, tgt *imgutil.Gray) (*metric.Matrix, *imgutil.Gray, error) {
	m := r.m()
	var inStore, tgtStore *tilestore.Store
	var work *imgutil.Gray
	var err error
	r.sl.do("tilestore.gather", reqID, parent, func() {
		if tgtStore, err = tilestore.FromImage(tgt, m); err != nil {
			return
		}
		var lut [hist.Levels]uint8
		if lut, err = hist.MatchLUT(hist.Of(in), tgtStore.GlobalHistogram()); err != nil {
			return
		}
		inStore, work, err = tilestore.GatherLUT(in, m, lut)
	})
	if err != nil {
		return nil, nil, err
	}
	var costs *metric.Matrix
	d := r.sl.do("metric.build", reqID, parent, func() {
		costs, err = metric.BuildStore(r.ly.dev, inStore, tgtStore, metric.L1, metric.BuilderAuto)
	})
	s := int64(r.s())
	r.ly.tilePairs += s * s
	r.ly.bytesScanned += s * s * int64(2*m*m) // both tiles of every pair are read once
	r.ly.buildNS += int64(d)
	return costs, work, err
}

// step3 runs one engine's public entry point on costs and returns the
// assignment.
func (r *replayer) step3(reqID string, parent int64, p pairSpec, e engine, costs *metric.Matrix, col *edgecolor.Coloring) (perm.Perm, error) {
	ctx := context.Background()
	start := perm.Identity(costs.S)
	var out perm.Perm
	var st localsearch.Stats
	var err error
	switch e {
	case engDefault, engApprox:
		r.sl.do("localsearch.serial", reqID, parent, func() {
			out, st, err = localsearch.SerialContext(ctx, costs, start, localsearch.Options{})
		})
	case engParallel:
		if col == nil {
			r.sl.do("edgecolor.build", reqID, parent, func() { col = edgecolor.Complete(costs.S) })
		}
		r.sl.do("localsearch.parallel", reqID, parent, func() {
			out, st, err = localsearch.ParallelContext(ctx, r.ly.dev, costs, start, col, localsearch.Options{})
		})
	case engJV:
		r.sl.do("assign.jv", reqID, parent, func() { out, err = assign.JVContext(ctx, costs.S, costs.W) })
		if err == nil {
			r.jv[p] = costs.Total(out)
		}
	case engAuction:
		var info *assign.Info
		r.sl.do("assign.auction-device", reqID, parent, func() {
			out, info, err = assign.AuctionDeviceContext(ctx, costs.S, costs.W, assign.DeviceAuctionOptions{Device: r.ly.dev})
		})
		if err != nil {
			return nil, err
		}
		r.ly.certGap = max(r.ly.certGap, info.Gap)
		opt, ok := r.jv[p]
		if !ok {
			jp, jerr := assign.JVContext(ctx, costs.S, costs.W) // reference only, not a layer of this request
			if jerr != nil {
				return nil, jerr
			}
			opt = costs.Total(jp)
			r.jv[p] = opt
		}
		r.ly.trueGap = max(r.ly.trueGap, float64(costs.Total(out)-opt)/float64(max(1, opt)))
	default:
		return nil, fmt.Errorf("no replay for engine %s", e)
	}
	r.ly.sweeps += int64(st.Passes)
	r.ly.attempts += st.Attempts
	r.ly.swaps += st.Swaps
	return out, err
}

// assemble builds the mosaic from the matched input and checks it.
func (r *replayer) assemble(reqID string, parent int64, p pairSpec, work *imgutil.Gray, costs *metric.Matrix, a perm.Perm) {
	var mosaic *imgutil.Gray
	var err error
	r.sl.do("core.assemble", reqID, parent, func() {
		var g *tile.Grid
		if g, err = tile.NewGrid(work, r.m()); err == nil {
			mosaic, err = g.Assemble(a)
		}
	})
	if err == nil {
		err = r.chk.checkImage(p, r.cfg.shape.tiles, mosaic, costs.Total(a))
	}
	r.rep.count(err == nil)
	if err != nil {
		r.rep.fail("replay %s: %v", reqID, err)
		return
	}
	r.rep.exact("replay."+reqID+".total_error", costs.Total(a))
}

// finish reports the replay's per-layer metrics and exact counters.
func (r *replayer) finish() {
	ly := &r.ly
	d := ly.dev.Metrics().Sub(ly.dev0)
	rep := r.rep
	dur := r.sl.durations()
	for metricName, spanName := range map[string]string{
		"pnm.decode_ms":                 "pnm.decode",
		"tilestore.gather_ms":           "tilestore.gather",
		"metric.build_ms":               "metric.build",
		"localsearch.serial.busy_ms":    "localsearch.serial",
		"localsearch.parallel.busy_ms":  "localsearch.parallel",
		"edgecolor.build_ms":            "edgecolor.build",
		"assign.jv.busy_ms":             "assign.jv",
		"assign.auction-device.busy_ms": "assign.auction-device",
		"core.assemble_ms":              "core.assemble",
	} {
		rep.set(metricName, median(dur[spanName]))
		rep.samples(metricName, len(dur[spanName]))
	}
	rep.set("pnm.bytes_in", float64(ly.bytesIn)/float64(max(1, ly.inputs)))
	rep.set("metric.tile_pairs", float64(ly.tilePairs))
	rep.set("metric.bytes_scanned", float64(ly.bytesScanned))
	gbps := 0.0
	if ly.buildNS > 0 {
		gbps = float64(ly.bytesScanned) / float64(ly.buildNS)
	}
	rep.set("metric.gbps", gbps)
	rep.set("localsearch.sweeps", float64(ly.sweeps))
	rep.set("localsearch.swap_attempts", float64(ly.attempts))
	rep.set("localsearch.swaps", float64(ly.swaps))
	useful := 0.0
	if ly.attempts > 0 {
		useful = float64(ly.swaps) / float64(ly.attempts)
	}
	rep.set("localsearch.useful_ratio", useful)
	rep.set("assign.certified_gap", ly.certGap)
	rep.set("assign.true_gap", ly.trueGap)
	rep.set("cuda.launches", float64(d.Launches))
	rep.set("cuda.blocks", float64(d.Blocks))
	rep.set("cuda.launch_ms", float64(d.LaunchNanos)/1e6)
	for name, v := range map[string]int64{
		"metric.tile_pairs": ly.tilePairs, "localsearch.sweeps": ly.sweeps,
		"localsearch.swap_attempts": ly.attempts, "localsearch.swaps": ly.swaps,
		"cuda.launches": d.Launches, "cuda.blocks": d.Blocks,
	} {
		rep.exact(name, v)
	}
}

// ---- service workloads ----------------------------------------------------

// tracedSpec adapts the traced run to one service workload.
type tracedSpec struct {
	build func(traced bool, seg int) (*system, error)
	// segment returns the requests of closed-loop segment seg (0 untraced,
	// 1 traced).
	segment func(seg int) ([]*request, error)
	// decodes is how many times one request is decoded on its way (the
	// router decodes too).
	decodes int
	// replay sends the workload's distinct inputs through the layers.
	replay func(r *replayer, reqs []*request) error
}

func tracedService(cfg config, rep *report, ts tracedSpec) error {
	segDur := time.Duration(cfg.seconds / 3 * float64(time.Second))
	sl := newSpanLog()
	client := newClient()
	defer client.CloseIdleConnections()
	chk := newChecker()

	// Segment 0: untraced, the overhead baseline.
	reqs0, err := ts.segment(0)
	if err != nil {
		return err
	}
	sys, err := ts.build(false, 0)
	if err != nil {
		return err
	}
	outs0 := closedLoop(reqs0, nproc(), segDur, func(r *request) outcome { return send(client, sys.url, r) })
	sys.close()
	checkOutcomes(rep, chk, outs0)

	// Segment 1: spans around every round trip, access log on.
	reqs1, err := ts.segment(1)
	if err != nil {
		return err
	}
	sys, err = ts.build(true, 1)
	if err != nil {
		return err
	}
	before, err := sys.counters()
	if err != nil {
		sys.close()
		return err
	}
	var rootsMu sync.Mutex
	roots := map[string]int64{}
	outs1 := closedLoop(reqs1, nproc(), segDur, func(r *request) outcome {
		o := send(client, sys.url, r)
		id := sl.record("http.roundtrip", r.id, 0, o.sent, o.end)
		rootsMu.Lock()
		roots[r.id] = id
		rootsMu.Unlock()
		return o
	})
	after, err := sys.counters()
	if err != nil {
		sys.close()
		return err
	}
	lines := map[string]accessLine{}
	for _, l := range sys.logs {
		ls, err := l.lines()
		if err != nil {
			sys.close()
			return err
		}
		for k, v := range ls {
			lines[k] = v
		}
	}
	routed, nBackends := sys.router != nil, len(sys.backends)
	sys.close()
	checkOutcomes(rep, chk, outs1)

	// Join the access log by request ID: each backend phase becomes an
	// attributed child of the round trip.
	phases := map[string][]float64{}
	var backendNS []float64
	var hops []float64
	served := map[string]int{}
	for _, o := range outs1 {
		al, ok := lines[o.req.id]
		if !ok {
			rep.fail("request %s has no access-log record", o.req.id)
			continue
		}
		var attributed int64
		for ph, ns := range al.PhasesNS {
			phases[ph] = append(phases[ph], float64(ns)/1e6)
			if ph != trace.PhaseName(trace.SpanRequest) {
				attributed += ns
				sl.attribute("service."+ph, o.req.id, roots[o.req.id], o.sent, time.Duration(ns))
			}
		}
		backendNS = append(backendNS, float64(attributed)/1e6)
		if routed && o.ok() {
			hops = append(hops, ms(o.end.Sub(o.sent))-o.resp.ElapsedMS)
			served[o.backend]++
		}
	}

	var lat0, lat1 []float64
	for _, o := range outs0 {
		lat0 = append(lat0, ms(o.end.Sub(o.sent)))
	}
	for _, o := range outs1 {
		lat1 = append(lat1, ms(o.end.Sub(o.sent)))
	}

	// Replay the traced segment's distinct inputs through the layers.
	dev := cuda.New(nproc())
	r := newReplayer(cfg, sl, rep, dev)
	if err := ts.replay(r, distinct(reqs1)); err != nil {
		return err
	}
	r.finish()

	// Service and cluster layers, from the access log and /metrics.
	delta := func(name string) float64 { return after[name] - before[name] }
	for metricName, ph := range map[string]string{
		"service.encode_ms":      trace.PhaseName(trace.SpanEncode),
		"service.queue_wait_ms":  trace.PhaseName(trace.SpanQueueWait),
		"service.device_wait_ms": trace.PhaseName(trace.SpanDeviceWait),
	} {
		rep.set(metricName, median(phases[ph]))
		rep.samples(metricName, len(phases[ph]))
	}
	hits, misses := delta("mosaic_service_cache_hits_total"), delta("mosaic_service_cache_misses_total")
	rep.set("service.cache_hit_ratio", hits/max(1, hits+misses))
	rep.note("service.cache_hit_ratio_base", hits+misses)
	rep.set("service.cache_evictions", delta("mosaic_service_cache_evictions_total"))
	jobs := delta("mosaic_service_jobs_total")
	rep.set("service.batched_ratio", delta("mosaic_service_batched_jobs_total")/max(1, jobs))
	rep.note("service.batched_ratio_base", jobs)
	rep.set("service.admission_rejections", delta("mosaic_admission_rejections_total"))
	rep.set("service.partial_responses", delta("mosaic_partial_responses_total"))
	rep.set("cluster.hop_ms", median(hops))
	rep.samples("cluster.hop_ms", len(hops))
	rep.set("cluster.peek_hits", delta("mosaic_router_peek_hits_total"))
	rep.set("cluster.failovers", delta("mosaic_router_failovers_total"))
	skew := 0.0
	if len(served) > 0 {
		most, total := 0, 0
		for _, n := range served {
			most = max(most, n)
			total += n
		}
		skew = float64(most) * float64(nBackends) / float64(total)
	}
	rep.set("cluster.backend_skew", skew)

	// Does the blocking path account for the untraced latency? Backend
	// phases plus the decodes outside the service's own span tree.
	accounted := mean(backendNS) + float64(ts.decodes)*median(sl.durations()["pnm.decode"])
	finishTrace(cfg, rep, sl, median(lat1)/median(lat0)-1, accounted/mean(lat0), len(lat0), len(lat1))
	return nil
}

// finishTrace records the tracing overhead, the blocking-path coverage and
// the self time of each layer, and writes the span file.
func finishTrace(cfg config, rep *report, sl *spanLog, overhead, coverage float64, n0, n1 int) {
	rep.set("trace.overhead_frac", overhead)
	rep.samples("trace.overhead_frac", min(n0, n1))
	rep.set("trace.path_coverage", coverage)
	rep.set("failed_frac", float64(rep.Failed)/float64(max(1, rep.Attempted)))
	serving, replay := sl.layerSelfTimes()
	rep.note("self_ms_serving", serving)
	rep.note("self_ms_replay", replay)
	for _, t := range []struct {
		title string
		self  map[string]float64
	}{{"serving path (traced segment)", serving}, {"replay (direct layer calls)", replay}} {
		names := make([]string, 0, len(t.self))
		for n := range t.self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return t.self[names[i]] > t.self[names[j]] })
		fmt.Fprintf(os.Stderr, "perfbench: self time by layer, %s\n", t.title)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "  %-16s %10.1f ms\n", n, t.self[n])
		}
	}
	if l := largestLayer(serving); l != "" {
		rep.note("largest_serving_layer", l)
		fmt.Fprintf(os.Stderr, "  largest self time on the serving path: %s\n", l)
	}
	fmt.Fprintf(os.Stderr, "  tracing overhead %+.1f%%, blocking path accounts for %.0f%% of untraced latency\n", overhead*100, coverage*100)
	path, err := sl.write(cfg)
	if err != nil {
		rep.fail("write spans: %v", err)
		return
	}
	rep.note("span_file", path)
}

// layerSelfTimes sums self time (ms) per layer, separately for the serving
// path and for the replay.
func (l *spanLog) layerSelfTimes() (serving, replay map[string]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	serving, replay = map[string]float64{}, map[string]float64{}
	for _, s := range l.spans {
		root := s
		for root.Parent != 0 {
			root = l.spans[root.Parent-1]
		}
		into := serving
		if root.Name == "replay" {
			into = replay
		}
		into[layerOf(s.Name)] += float64(max(0, s.EndNS-s.StartNS-child[s.ID])) / 1e6
	}
	return serving, replay
}

// layerOf maps a span — a benchmark span, an access-log phase ("service.") or
// a library phase ("core.") — to the layer that does its work. Queue and
// device waits are grouped as "wait": time spent waiting, not working.
func layerOf(span string) string {
	switch span {
	case "pnm.decode":
		return "pnm"
	case "tilestore.gather", "service.histogram_match", "service.tiling", "core.histogram_match", "core.tiling":
		return "tilestore"
	case "metric.build", "service.error_matrix", "core.error_matrix":
		return "metric"
	case "localsearch.serial", "localsearch.parallel", "service.rearrangement", "core.rearrangement":
		return "localsearch"
	case "edgecolor.build":
		return "edgecolor"
	case "assign.jv", "assign.auction-device", "service.assign", "core.assign":
		return "assign"
	case "core.assemble", "service.assembly", "core.assembly", "core.finish", "core.generate",
		"service.pipeline", "service.cache_lookup":
		return "core"
	case "service.encode":
		return "service.encode"
	case "service.queue_wait", "service.device_wait", "service.retry_backoff", "core.retry_backoff":
		return "wait"
	case "http.roundtrip":
		return "http" // client, HTTP transport and, behind a router, the hop
	}
	return span
}

// largestLayer names the layer with the most self time, waits and the
// benchmark's own replay roots excluded.
func largestLayer(self map[string]float64) string {
	best := ""
	for n, v := range self {
		if n != "wait" && n != "replay" && (best == "" || v > self[best]) {
			best = n
		}
	}
	return best
}

// distinct keeps the first request of each (content, engine).
func distinct(reqs []*request) []*request {
	seen := map[string]bool{}
	var out []*request
	for _, r := range reqs {
		k := r.key + "|" + r.eng.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// replayLimit bounds how many distinct inputs a traced run replays.
const replayLimit = 8

func tracedColdUpload(cfg config, rep *report) error {
	warm, err := coldRequests(cfg, "warmup", coldWarmupBase, 2)
	if err != nil {
		return err
	}
	n := int(closedHeadroom*cfg.shape.rate*cfg.seconds/3) + 2*nproc()
	return tracedService(cfg, rep, tracedSpec{
		build: func(traced bool, seg int) (*system, error) {
			var log *accessLog
			if traced {
				log = &accessLog{}
			}
			return coldSystem(cfg, log, warm[seg])
		},
		segment: func(seg int) ([]*request, error) {
			return coldRequests(cfg, fmt.Sprintf("traced%d", seg), coldTracedBase*uint64(seg+1), n)
		},
		decodes: 1,
		replay: func(r *replayer, reqs []*request) error {
			for _, req := range reqs[:min(len(reqs), replayLimit/2)] {
				root := r.sl.begin("replay", req.id, 0)
				dec, err := r.decode(req, root)
				if err != nil {
					return err
				}
				costs, work, err := r.prepare(req.id, root, dec.Input, dec.Target)
				if err != nil {
					return err
				}
				a, err := r.step3(req.id, root, req.pair, req.eng, costs, nil)
				if err != nil {
					return err
				}
				r.assemble(req.id, root, req.pair, work, costs, a)
				r.sl.end(root)
			}
			return nil
		},
	})
}

func tracedWarmCluster(cfg config, rep *report) error {
	lib, err := warmLibrary(cfg)
	if err != nil {
		return err
	}
	n := int(closedHeadroom*cfg.shape.rate*cfg.seconds/3) + 2*nproc()
	return tracedService(cfg, rep, tracedSpec{
		build: func(traced bool, _ int) (*system, error) { return warmSystem(cfg, lib, traced) },
		segment: func(seg int) ([]*request, error) {
			return warmSequence(cfg, lib, fmt.Sprintf("traced%d", seg), uint64(seg+2)<<20, n), nil
		},
		decodes: 2,
		replay: func(r *replayer, reqs []*request) error {
			ctx := context.Background()
			finishDev := cuda.New(nproc())
			for _, req := range reqs[:min(len(reqs), replayLimit)] {
				root := r.sl.begin("replay", req.id, 0)
				dec, err := r.decode(req, root)
				if err != nil {
					return err
				}
				// The library is already prepared on the serving path (every
				// request hits the cache), so Step 2 runs outside any span and
				// off the counted device.
				prep, ok := r.prep[req.pair]
				if !ok {
					if prep, err = core.PrepareContext(ctx, dec.Input, dec.Target, core.Options{TilesPerSide: cfg.shape.tiles}); err != nil {
						return err
					}
					r.prep[req.pair] = prep
				}
				a, err := r.step3(req.id, root, req.pair, req.eng, prep.Costs(), nil)
				if err != nil {
					return err
				}
				work, err := hist.Match(dec.Input, dec.Target)
				if err != nil {
					return err
				}
				r.assemble(req.id, root, req.pair, work, prep.Costs(), a)
				// The serving call itself, on its own device so the direct
				// engine calls above stay the only counted launches.
				var res *core.Result
				r.sl.do("core.finish", req.id, root, func() {
					res, err = prep.FinishContext(ctx, core.Options{Algorithm: req.eng.alg, Solver: req.eng.solver, Device: finishDev})
				})
				if err != nil {
					return err
				}
				if err := r.chk.checkImage(req.pair, cfg.shape.tiles, res.Mosaic, res.TotalError); err != nil {
					rep.fail("replay FinishContext %s: %v", req.id, err)
				}
				r.sl.end(root)
			}
			return nil
		},
	})
}

// ---- exact-s64 ------------------------------------------------------------

func tracedExactS64(cfg config, rep *report) error {
	sl := newSpanLog()
	lib := newLibrary(cfg)

	// Cycle 0 untraced, then the same cycle with a span around each library
	// call and the library's own span tree attributed beneath it.
	calls0 := runCycles(cfg, lib, 0, 1, 0, nil)
	checkCalls(rep, calls0, cfg.shape.tiles)
	var accounted []float64
	calls1 := runCycles(cfg, lib, 0, 1, 0, func(c *libCall, tree *trace.Tree, start time.Time) {
		id := sl.record("core.generate", fmt.Sprintf("call-%d-%s", c.pair.idx, c.eng), 0, start, start.Add(c.dur))
		var sum int64
		for ph, ns := range trace.Phases(tree.Roots()) {
			if ph != trace.PhaseName(trace.SpanPipeline) {
				sl.attribute("core."+ph, "", id, start, time.Duration(ns))
				sum += ns
			}
		}
		accounted = append(accounted, float64(sum)/1e6)
	})
	checkCalls(rep, calls1, cfg.shape.tiles)
	var lat0, lat1 []float64
	for i := range calls0 {
		lat0 = append(lat0, ms(calls0[i].dur))
		lat1 = append(lat1, ms(calls1[i].dur))
	}

	// Replay cycle 0 through the layers: gather, Step 2, the coloring, and
	// each engine's entry point on the same matrix.
	r := newReplayer(cfg, sl, rep, lib.dev)
	p := exactPair(cfg, 0)
	in, tgt := p.images()
	id := fmt.Sprintf("replay-%d", p.idx)
	root := sl.begin("replay", id, 0)
	costs, work, err := r.prepare(id, root, in, tgt)
	if err != nil {
		return err
	}
	var col *edgecolor.Coloring
	sl.do("edgecolor.build", id, root, func() { col = edgecolor.Complete(costs.S) })
	for _, e := range exactEngines {
		a, err := r.step3(id+"-"+strings.ReplaceAll(e.String(), "/", "-"), root, p, e, costs, col)
		if err != nil {
			return err
		}
		r.assemble(id+"-"+strings.ReplaceAll(e.String(), "/", "-"), root, p, work, costs, a)
	}
	sl.end(root)
	r.finish()
	for _, name := range []string{"service.encode_ms", "service.queue_wait_ms", "service.device_wait_ms",
		"service.cache_hit_ratio", "service.cache_evictions", "service.batched_ratio",
		"service.admission_rejections", "service.partial_responses",
		"cluster.hop_ms", "cluster.peek_hits", "cluster.failovers", "cluster.backend_skew"} {
		rep.set(name, 0) // no service or cluster on this workload's path
	}
	finishTrace(cfg, rep, sl, median(lat1)/median(lat0)-1, mean(accounted)/mean(lat0), len(lat0), len(lat1))
	return nil
}
