package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// Config sizes a Router. The zero value of any field selects the documented
// default; Backends is the only required field.
type Config struct {
	// Backends are the mosaicd base URLs ("http://host:port"). All start
	// healthy; the router removes a backend from the ring when a forward
	// fails at the transport level and re-adds it when its /healthz answers
	// again.
	Backends []string
	// Replicas is the virtual-node count per backend (default 128).
	Replicas int
	// LoadBound is the bounded-load factor c: a backend whose in-flight
	// count exceeds ceil(c·(total+1)/n) spills the request to its ring
	// successor. Default 1.25; values ≤ 1 disable bounding.
	LoadBound float64
	// NoPeek disables the cross-node cache peek: requests always go to
	// their ring home (or its load/failover successor).
	NoPeek bool
	// NoShed disables deadline-based load shedding. Set it when the
	// backends run with -anytime as their default policy: they will degrade
	// a missed deadline into a partial result themselves, so the router
	// rejecting up front would discard work the backend could still finish.
	NoShed bool
	// ShedMinSamples is how many observed round-trips a backend needs
	// before its latency estimate participates in shedding (default 4).
	// Shedding only fires when EVERY candidate has a warm estimate above
	// the request's remaining budget — one cold backend vetoes the shed.
	ShedMinSamples int
	// MaxImageSide caps the working image side accepted for routing-key
	// decoding (default 1024, matching the backend default).
	MaxImageSide int
	// ProbeInterval paces the health probe that restores dead backends
	// (default 500ms).
	ProbeInterval time.Duration
	// Registry receives the router metrics; nil creates a private one.
	Registry *telemetry.Registry
	// Client issues the proxied requests (default: a dedicated client with
	// no overall timeout — per-request deadlines ride on the incoming
	// request's context).
	Client *http.Client
	// PeekTimeout bounds one HEAD /v1/prepared probe (default 250ms): a
	// slow peer must not stall routing, it just loses the redirect.
	PeekTimeout time.Duration
	// JobsRetain bounds the async job→backend map (default 4096).
	JobsRetain int
}

func (c *Config) applyDefaults() {
	if c.LoadBound == 0 {
		c.LoadBound = 1.25
	}
	if c.MaxImageSide <= 0 {
		c.MaxImageSide = 1024
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.PeekTimeout <= 0 {
		c.PeekTimeout = 250 * time.Millisecond
	}
	if c.JobsRetain <= 0 {
		c.JobsRetain = 4096
	}
	if c.ShedMinSamples <= 0 {
		c.ShedMinSamples = 4
	}
}

// Router consistent-hashes mosaic submissions by content hash onto healthy
// backends, peeks peer caches to reuse prepared work cluster-wide, fails
// over on dead nodes, and proxies async job polls back to the backend that
// owns the job.
type Router struct {
	cfg  Config
	reg  *telemetry.Registry
	ring *Ring

	mu      sync.Mutex
	loads   map[string]int  // in-flight proxied requests per backend
	down    map[string]bool // backends removed from the ring, awaiting probe
	jobs    map[string]string
	jobSeq  []string // FIFO eviction order for jobs
	latency map[string]*latEWMA
	stopped bool
	stop    chan struct{}

	requests  func(backend string) *telemetry.Counter
	peekHits  *telemetry.Counter
	failovers *telemetry.Counter
	sheds     func(reason string) *telemetry.Counter
	rejected  func(reason string) *telemetry.Counter
}

// latEWMA is one backend's observed round-trip latency, exponentially
// smoothed with the same factor the backend's own admission estimator uses.
type latEWMA struct {
	mean float64 // nanoseconds
	n    int64
}

// observeLatency folds one successful round-trip into node's estimate.
func (rt *Router) observeLatency(node string, d time.Duration) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e := rt.latency[node]
	if e == nil {
		e = &latEWMA{}
		rt.latency[node] = e
	}
	if e.n == 0 {
		e.mean = float64(d)
	} else {
		e.mean += 0.2 * (float64(d) - e.mean)
	}
	e.n++
}

// estimateLatency returns node's smoothed round-trip; ok is false until the
// backend has served ShedMinSamples requests through this router.
func (rt *Router) estimateLatency(node string) (time.Duration, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	e := rt.latency[node]
	if e == nil || e.n < int64(rt.cfg.ShedMinSamples) {
		return 0, false
	}
	return time.Duration(e.mean), true
}

// New starts a router over cfg.Backends. The health probe goroutine runs
// until Close.
func New(cfg Config) (*Router, error) {
	cfg.applyDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	rt := &Router{
		cfg:     cfg,
		reg:     cfg.Registry,
		ring:    NewRing(cfg.Replicas),
		loads:   make(map[string]int),
		down:    make(map[string]bool),
		jobs:    make(map[string]string),
		latency: make(map[string]*latEWMA),
		stop:    make(chan struct{}),
	}
	for _, b := range cfg.Backends {
		b = strings.TrimRight(b, "/")
		if !strings.Contains(b, "://") {
			return nil, fmt.Errorf("cluster: backend %q is not a base URL", b)
		}
		rt.ring.Add(b)
	}
	rt.registerMetrics()
	go rt.probeLoop()
	return rt, nil
}

func (rt *Router) registerMetrics() {
	reg := rt.reg
	rt.requests = func(backend string) *telemetry.Counter {
		return reg.Counter("mosaic_router_requests_total",
			"Requests proxied to each backend.", telemetry.Labels{"backend": backend})
	}
	rt.peekHits = reg.Counter("mosaic_router_peek_hits_total",
		"Requests redirected to a non-home backend that already held the prepared work.", nil)
	rt.failovers = reg.Counter("mosaic_router_failovers_total",
		"Forwards retried on a ring successor after a backend failed at the transport level.", nil)
	rt.rejected = func(reason string) *telemetry.Counter {
		return reg.Counter("mosaic_router_rejected_total",
			"Requests the router rejected without reaching a backend.", telemetry.Labels{"reason": reason})
	}
	rt.sheds = func(reason string) *telemetry.Counter {
		return reg.Counter("mosaic_router_sheds_total",
			"Requests shed because their deadline was expired or unmeetable on every candidate backend.",
			telemetry.Labels{"reason": reason})
	}
	reg.GaugeFunc("mosaic_router_backends_healthy", "Backends currently in the ring.", nil,
		func() float64 { return float64(rt.ring.Len()) })
	reg.GaugeFunc("mosaic_router_backends", "Backends configured.", nil,
		func() float64 { return float64(len(rt.cfg.Backends)) })
}

// Ready implements the telemetry.WithReadiness check: the router serves as
// long as at least one backend is in the ring.
func (rt *Router) Ready() (bool, string) {
	if rt.ring.Len() == 0 {
		return false, "no healthy backends"
	}
	return true, ""
}

// Registry returns the metrics registry the router reports into.
func (rt *Router) Registry() *telemetry.Registry { return rt.reg }

// Close stops the health probe. In-flight proxies complete on their own.
func (rt *Router) Close() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stopped {
		return
	}
	rt.stopped = true
	close(rt.stop)
}

// RegisterRoutes mounts the routed API:
//
//	POST /v1/mosaic     route by content hash, peek peers, forward
//	GET  /v1/jobs/{id}  proxy to the backend that accepted the async job
func (rt *Router) RegisterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("/v1/mosaic", rt.handleMosaic)
	mux.HandleFunc("/v1/jobs/", rt.handleJob)
}

func (rt *Router) handleMosaic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		routerError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Buffer the body once: the routing key is derived from a decoded clone,
	// and the buffer makes failover retries safe (the original stream would
	// be half-consumed after a broken forward).
	body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxUploadBytes+1))
	if err != nil {
		rt.rejected("read").Inc()
		routerError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	if len(body) > service.MaxUploadBytes {
		rt.rejected("too_large").Inc()
		routerError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit", service.MaxUploadBytes))
		return
	}
	decoded, err := rt.decodeSubmission(r, body)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, service.ErrTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		rt.rejected("bad_request").Inc()
		routerError(w, code, err.Error())
		return
	}
	key := decoded.ContentKey()

	// Resolve the request's absolute deadline: an X-Request-Deadline header
	// (already absolute — a failover hop must not restart the clock) wins;
	// otherwise derive one from timeout_ms and stamp the header so the
	// backend and any further hop see the same instant.
	deadline := decoded.Deadline
	if deadline.IsZero() && decoded.Timeout > 0 {
		deadline = time.Now().Add(decoded.Timeout)
		r.Header.Set("X-Request-Deadline", strconv.FormatInt(deadline.UnixMilli(), 10))
	}
	// Anytime requests are never shed on deadline grounds: the backend
	// degrades them to a partial mosaic instead of failing, so work remains
	// useful even past the deadline.
	anytime := decoded.Anytime != nil && *decoded.Anytime

	candidates := rt.ring.Candidates(key, 0)
	if len(candidates) == 0 {
		rt.rejected("no_backends").Inc()
		routerError(w, http.StatusServiceUnavailable, "no healthy backends")
		return
	}

	if !rt.cfg.NoShed && !anytime && !deadline.IsZero() {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			rt.sheds("expired").Inc()
			routerError(w, http.StatusGatewayTimeout, "deadline already expired at the router")
			return
		}
		if min, ok := rt.minCandidateEstimate(candidates); ok && min > remaining {
			rt.sheds("unmeetable").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(clampSeconds(min-remaining)))
			routerError(w, http.StatusTooManyRequests,
				fmt.Sprintf("deadline unmeetable: every backend estimates %v against a %v budget", min.Round(time.Millisecond), remaining.Round(time.Millisecond)))
			return
		}
	}

	target := rt.placeRequest(r, key, candidates)

	// Forward with failover: the target first, then the remaining ring
	// candidates in order. Only transport-level failures trigger failover —
	// an HTTP error status is the backend's answer and is relayed as-is.
	// Each iteration re-checks the client context and the deadline: replaying
	// a cancelled or expired request against the next backend would burn a
	// worker on an answer nobody can use.
	tried := map[string]bool{}
	for _, node := range append([]string{target}, candidates...) {
		if tried[node] || !rt.ring.Has(node) {
			continue
		}
		if r.Context().Err() != nil {
			rt.rejected("cancelled").Inc()
			routerError(w, 499, "client closed request")
			return
		}
		if !rt.cfg.NoShed && !anytime && !deadline.IsZero() && time.Until(deadline) <= 0 {
			rt.sheds("expired").Inc()
			routerError(w, http.StatusGatewayTimeout, "deadline expired during failover")
			return
		}
		tried[node] = true
		rt.incLoad(node)
		start := time.Now()
		resp, err := rt.forward(node, r, body)
		rt.decLoad(node)
		if err != nil {
			if r.Context().Err() != nil {
				routerError(w, 499, "client closed request")
				return
			}
			rt.markDown(node)
			rt.failovers.Inc()
			continue
		}
		// Only completed sync jobs train the estimate: 202 accepts and
		// rejections return in microseconds and would drag the mean toward
		// zero exactly when shedding should fire.
		if resp.StatusCode == http.StatusOK {
			rt.observeLatency(node, time.Since(start))
		}
		rt.requests(node).Inc()
		rt.relay(w, resp, node)
		return
	}
	rt.rejected("all_failed").Inc()
	routerError(w, http.StatusBadGateway, "every backend failed")
}

// minCandidateEstimate returns the smallest warm latency estimate among
// candidates. ok is false when ANY candidate lacks a warm estimate — a cold
// backend might be fast, so it vetoes shedding.
func (rt *Router) minCandidateEstimate(candidates []string) (time.Duration, bool) {
	var min time.Duration
	for i, node := range candidates {
		est, ok := rt.estimateLatency(node)
		if !ok {
			return 0, false
		}
		if i == 0 || est < min {
			min = est
		}
	}
	return min, len(candidates) > 0
}

// clampSeconds renders a duration as whole seconds in [1, 30] for
// Retry-After headers.
func clampSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	if s > 30 {
		s = 30
	}
	return s
}

// placeRequest picks the backend for a key: the bounded-load home first,
// then — unless the home already holds the prepared work — a peek across the
// other candidates, redirecting to any node with the Prepared resident so
// Step 2 runs at most once cluster-wide per content hash.
func (rt *Router) placeRequest(r *http.Request, key string, candidates []string) string {
	rt.mu.Lock()
	loads := make(map[string]int, len(rt.loads))
	for n, l := range rt.loads {
		loads[n] = l
	}
	rt.mu.Unlock()
	target := pickBounded(candidates, loads, rt.cfg.LoadBound)
	if rt.cfg.NoPeek || rt.peek(r, target, key) {
		return target
	}
	for _, node := range candidates {
		if node == target {
			continue
		}
		if rt.peek(r, node, key) {
			rt.peekHits.Inc()
			return node
		}
	}
	return target
}

// decodeSubmission decodes a clone of the buffered submission exactly as the
// backend will. Its ContentKey is the routing key — the value that makes
// router placement and backend cache keying the same function — and its
// Timeout/Deadline/Anytime fields drive deadline propagation and shedding.
func (rt *Router) decodeSubmission(r *http.Request, body []byte) (*service.Request, error) {
	clone, err := http.NewRequestWithContext(r.Context(), http.MethodPost, r.URL.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	clone.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	if v := r.Header.Get("X-Request-Deadline"); v != "" {
		clone.Header.Set("X-Request-Deadline", v)
	}
	return service.DecodeSubmission(clone, rt.cfg.MaxImageSide)
}

// peek asks one backend whether it holds the prepared work. Any failure is a
// miss: the peek is an optimization and must never block routing.
func (rt *Router) peek(r *http.Request, node, key string) bool {
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.PeekTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, node+"/v1/prepared/"+key, nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (rt *Router) forward(node string, r *http.Request, body []byte) (*http.Response, error) {
	url := node + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := r.Header.Get("X-Request-ID"); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	if dl := r.Header.Get("X-Request-Deadline"); dl != "" {
		req.Header.Set("X-Request-Deadline", dl)
	}
	return rt.cfg.Client.Do(req)
}

// relay copies a backend response to the client, stamping the backend that
// answered, and — for async 202 accepts — records which backend owns the
// minted job so later polls route correctly.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, node string) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		routerError(w, http.StatusBadGateway, fmt.Sprintf("backend response: %v", err))
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		var jr struct {
			JobID string `json:"job_id"`
		}
		if json.Unmarshal(data, &jr) == nil && jr.JobID != "" {
			rt.recordJob(jr.JobID, node)
		}
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Mosaic-Backend", node)
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(data)
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		routerError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	rt.mu.Lock()
	node, ok := rt.jobs[id]
	rt.mu.Unlock()
	if !ok {
		routerError(w, http.StatusNotFound, "no such job (not accepted through this router, or evicted)")
		return
	}
	resp, err := rt.forward(node, r, nil)
	if err != nil {
		rt.markDown(node)
		routerError(w, http.StatusBadGateway, fmt.Sprintf("backend %s: %v", node, err))
		return
	}
	rt.relay(w, resp, node)
}

func (rt *Router) recordJob(id, node string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, dup := rt.jobs[id]; !dup {
		rt.jobSeq = append(rt.jobSeq, id)
	}
	rt.jobs[id] = node
	for len(rt.jobs) > rt.cfg.JobsRetain && len(rt.jobSeq) > 0 {
		delete(rt.jobs, rt.jobSeq[0])
		rt.jobSeq = rt.jobSeq[1:]
	}
}

func (rt *Router) incLoad(node string) {
	rt.mu.Lock()
	rt.loads[node]++
	rt.mu.Unlock()
}

func (rt *Router) decLoad(node string) {
	rt.mu.Lock()
	if rt.loads[node] > 0 {
		rt.loads[node]--
	}
	rt.mu.Unlock()
}

// markDown removes a backend from the ring (its keys fall to ring
// successors — the rebalance) and queues it for the health probe.
func (rt *Router) markDown(node string) {
	rt.ring.Remove(node)
	rt.mu.Lock()
	rt.down[node] = true
	rt.mu.Unlock()
}

// probeLoop polls down backends' /healthz and re-adds recovered ones, which
// moves their old keys straight back — cache affinity surviving the bounce.
func (rt *Router) probeLoop() {
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.mu.Lock()
			var targets []string
			for n := range rt.down {
				targets = append(targets, n)
			}
			rt.mu.Unlock()
			for _, node := range targets {
				req, err := http.NewRequest(http.MethodGet, node+"/healthz", nil)
				if err != nil {
					continue
				}
				resp, err := rt.cfg.Client.Do(req)
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					rt.mu.Lock()
					delete(rt.down, node)
					rt.mu.Unlock()
					rt.ring.Add(node)
				}
			}
		}
	}
}

func routerError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}{"error", msg})
}
